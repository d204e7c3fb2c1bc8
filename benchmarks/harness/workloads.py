"""The six benchmark workloads: set-up, one pass, output checks.

Every workload exposes the same two calls.  ``setup(seed, round_index,
smoke)`` builds inputs from the seed and the program state one round of
passes needs (model, calibration, codecs, engine, pool); the harness
times it as one ``setup_s`` sample.  ``run_pass(state, tracer)`` runs
one pass — inside the tracer, when one is given, for exactly the timed
region — then checks its outputs and returns a :class:`PassResult`.

A serve pass needs a fresh engine, so serve rounds hold one pass and
each round replays its own trace (sub-seed ``seed * 1009 + round``): a
run's median is then taken over several traces and does not hinge on
one trace's prompt/output mix.  Round 0's trace is the *reference*
trace the simulated metrics, the traced pass and the audit use.  The
fixed-size workloads rebuild identical inputs every round, so their
byte and quality metrics must repeat exactly.

Why these six: see ``README.md`` and the ``why`` lines of
``BENCHMARK.json``.
"""

from __future__ import annotations

import hashlib
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from repro.core import KVCacheCodec, KVCacheStream, calibrate_kv_meta
from repro.hardware import ParallelHuffmanDecoder
from repro.llm import ProxyModel, SyntheticCorpus, calibrate, get_proxy_spec
from repro.obs import TraceRecorder
from repro.obs.timing import wall_clock
from repro.serve import (
    SLO,
    AsyncServingEngine,
    PagedKVPool,
    ServingEngine,
    StepCostModel,
    VirtualClock,
    chain_hash,
    generate_sessions,
    generate_trace,
    replay_sessions,
    replay_trace,
    summarize_turns,
)
from repro.serve.pool import ROOT_CHAIN
from repro.serve.scheduler import DeadlinePolicy

from spans import phase_totals

__all__ = ["WORKLOADS", "PassResult", "serve_ladder"]

PAGE_TOKENS = 8


@dataclass
class PassResult:
    """What one pass measured."""

    wall_s: float
    #: Work done, in the workload's unit (tokens or pool ops) — serve
    #: passes differ in size, so host time is compared per unit.
    units: int
    #: Wall seconds of each step (engine step, codec side, token, op).
    steps: list
    #: Deterministic outputs: simulated, byte and quality metrics.
    exact: dict
    attempted: int
    failed: int
    #: Descriptions of failed output checks (empty = correct).
    problems: list = field(default_factory=list)
    #: Wall seconds spent encoding / decoding (codec workloads).
    encode_s: float = 0.0
    decode_s: float = 0.0
    kv_fp16_bytes: int = 0
    #: Counters and reports the per-layer metrics are derived from.
    facts: dict = field(default_factory=dict)


def _sub_seed(seed: int, round_index: int) -> int:
    return seed * 1009 + round_index


# ----------------------------------------------------------------------
# codec_bulk / kv_stream: the codec alone.
# ----------------------------------------------------------------------

def _kv_tensor(rng: np.random.Generator, tokens: int, dim: int) -> np.ndarray:
    """Heavy-tailed KV rows with log-normal per-channel scales."""
    scales = np.exp(rng.normal(0.0, 0.8, size=(1, dim)))
    return (rng.standard_t(df=5, size=(tokens, dim)) * scales * 0.5).astype(
        np.float32
    )


def _codec_setup(seed: int, tokens: int) -> dict:
    rng = np.random.default_rng(seed)
    keys = _kv_tensor(rng, tokens, 128)
    values = _kv_tensor(rng, tokens, 128)
    start = wall_clock()
    key_codec = KVCacheCodec(calibrate_kv_meta(keys, seed=0))
    value_codec = KVCacheCodec(calibrate_kv_meta(values, seed=0))
    return {
        "keys": keys,
        "values": values,
        "key_codec": key_codec,
        "value_codec": value_codec,
        "calibrate_s": wall_clock() - start,
        "rng": rng,
    }


def _nmse(decoded: list, original: list) -> float:
    err = sum(float(np.sum((d - x) ** 2)) for d, x in zip(decoded, original))
    ref = sum(float(np.sum(x.astype(np.float64) ** 2)) for x in original)
    return err / ref


def codec_bulk_setup(seed, round_index, smoke, traced=False) -> dict:
    state = _codec_setup(seed, 128 if smoke else 1024)
    state["cross_check_blocks"] = 40 if smoke else 500
    # The cross-checks are the same every round; run them on the first.
    state["cross_check_due"] = round_index == 0
    return state


def _codec_cross_checks(state: dict, compressed, codec: KVCacheCodec) -> tuple:
    """Re-pack bit-exactness and hardware decoder == unpack_blocks."""
    problems = []
    plan = codec.plan_from_blocks(
        compressed.blocks, compressed.shape, compressed.pad
    )
    if not np.array_equal(codec.encode_plan(plan).blocks, compressed.blocks):
        problems.append("re-packed blocks differ from the encoded blocks")
    count = min(state["cross_check_blocks"], compressed.num_groups)
    picks = np.sort(
        state["rng"].choice(compressed.num_groups, size=count, replace=False)
    )
    software = codec.decode(compressed).reshape(compressed.num_groups, -1)
    decoder = ParallelHuffmanDecoder(codec.meta)
    start = wall_clock()
    for g in picks:
        block = decoder.decode(compressed.blocks[g].tobytes())
        if not np.array_equal(block.values, software[g]):
            problems.append(f"hardware decode of block {g} != unpack_blocks")
            break
    hw_s = wall_clock() - start
    return problems, hw_s, count


def codec_bulk_pass(state: dict, tracer=None) -> PassResult:
    steps, decoded, compressed = [], [], []
    encode_s = decode_s = 0.0
    sides = (
        (state["key_codec"], state["keys"]),
        (state["value_codec"], state["values"]),
    )
    with tracer or nullcontext():
        begin = wall_clock()
        for codec, tensor in sides:
            t0 = wall_clock()
            packed = codec.encode_tokens(tensor)
            t1 = wall_clock()
            out = codec.decode_tokens(packed)
            t2 = wall_clock()
            encode_s += t1 - t0
            decode_s += t2 - t1
            steps.append(t2 - t0)
            compressed.append(packed)
            decoded.append(out)
        wall_s = wall_clock() - begin
    tokens = state["keys"].shape[0]
    problems: list = []
    facts = {"calibrate_s": state["calibrate_s"]}
    if state["cross_check_due"]:
        state["cross_check_due"] = False
        problems, hw_s, count = _codec_cross_checks(
            state, compressed[0], state["key_codec"]
        )
        facts["hw_decode_s"] = hw_s
        facts["hw_blocks"] = count
    return PassResult(
        wall_s=wall_s,
        units=2 * tokens,
        steps=steps,
        exact={
            "roundtrip_nmse": _nmse(decoded, [state["keys"], state["values"]]),
            "kv_bytes_per_token": sum(c.nbytes for c in compressed) / tokens,
        },
        attempted=4,
        failed=0,
        problems=problems,
        encode_s=encode_s,
        decode_s=decode_s,
        kv_fp16_bytes=2 * (state["keys"].size + state["values"].size),
        facts=facts,
    )


def kv_stream_setup(seed, round_index, smoke, traced=False) -> dict:
    return _codec_setup(seed, 192 if smoke else 2048)


def kv_stream_pass(state: dict, tracer=None) -> PassResult:
    keys, values = state["keys"], state["values"]
    tokens = keys.shape[0]
    stream = KVCacheStream(state["key_codec"], state["value_codec"])
    steps = []
    encode_s = decode_s = 0.0
    with tracer or nullcontext():
        begin = wall_clock()
        for t in range(tokens):
            t0 = wall_clock()
            stream.append(keys[t], values[t])
            t1 = wall_clock()
            read_k = stream.read_keys()
            read_v = stream.read_values()
            t2 = wall_clock()
            encode_s += t1 - t0
            decode_s += t2 - t1
            steps.append(t2 - t0)
        wall_s = wall_clock() - begin
    facts = {
        "calibrate_s": state["calibrate_s"],
        "decoded_tokens": sum(stream.decoded_tokens.values()),
        "appended_tokens": 2 * tokens,
    }
    if tracer is not None:
        reads = [
            k + v
            for k, v in zip(
                tracer.durations("core.kv.read_keys"),
                tracer.durations("core.kv.read_values"),
            )
        ]
        # Mean read time of the 64 tokens that end at each context size.
        for context in (256, 2048):
            end = min(context, tokens)
            window = reads[max(0, end - 64):end]
            facts[f"read_s_ctx{context}"] = sum(window) / len(window)
    problems = []
    if len(stream) != tokens or read_k.shape[0] != tokens:
        problems.append(f"stream holds {len(stream)} of {tokens} tokens")
    if stream.decoded_tokens != {"keys": tokens, "values": tokens}:
        problems.append(
            f"decoded_tokens {stream.decoded_tokens} != appended {tokens}"
        )
    return PassResult(
        wall_s=wall_s,
        units=tokens,
        steps=steps,
        exact={
            "roundtrip_nmse": _nmse([read_k, read_v], [keys, values]),
            "kv_bytes_per_token": stream.compressed_nbytes / tokens,
        },
        attempted=tokens,
        failed=0,
        problems=problems,
        encode_s=encode_s,
        decode_s=decode_s,
        kv_fp16_bytes=stream.original_nbytes,
        facts=facts,
    )


# ----------------------------------------------------------------------
# serve_cold / serve_fp16 / serve_shared: the serving stack.
# ----------------------------------------------------------------------

#: Open-loop Poisson rate ladder (requests per virtual second); adjacent
#: rungs are 1.5x apart and the middle rung is the reference rung.
LADDER_RPS = (1.35, 2.0, 3.0, 4.5, 6.75)
REFERENCE_RUNG = 2
#: Requests per rung: at least this many at every rate, so a 0.95
#: attainment bar means something, and at least RUNG_MIN_S virtual
#: seconds of arrivals, so overload at the high rungs has time to build a
#: backlog (ecco rides out 36 requests at 4.5 req/s on most seeds).
RUNG_REQUESTS = 24
RUNG_MIN_S = 6.0
#: Per-request TTFT objective (virtual s) and the KV byte budget both
#: backends get.  96 tokens is the longest request the trace can hold;
#: the budget fits it on fp16 (512 B/token) with the watermark to spare,
#: so no request is unfittable, yet holds only ~2 fp16 or ~4 ecco
#: requests — bytes, not ``max_batch_size``, cap concurrency.
OPEN_LOOP_TTFT_S = 1.5
OPEN_LOOP_BUDGET = 56_000
#: Backlog limit of the rate ladder: every request must have its first
#: token within this many virtual seconds of the last arrival.
DRAIN_LIMIT_S = 2.0

SHARED_TTFT_S = 30.0


def _model_and_calib():
    model = ProxyModel(get_proxy_spec("proxy-small"), seed=0)
    tokens = SyntheticCorpus().batches(16 * 65 + 65, 16, 64, seed=777)[0]
    return model, calibrate(model, tokens)


def _rung_trace(sub_seed: int, rate_rps: float, requests: int) -> list:
    """The first ``requests`` arrivals of a seeded unshared chat trace,
    offered at ``rate_rps``.

    The trace is always drawn at the reference rate and its arrival
    times are then rescaled, so every rung of one seed offers the *same*
    requests in the same order, only faster or slower: rungs differ by
    rate alone, not by the luck of their prompts.
    """
    reference_rps = LADDER_RPS[REFERENCE_RUNG]
    trace = generate_trace(
        seed=sub_seed,
        rate_rps=reference_rps,
        duration_s=3.0 * requests / reference_rps,
        arrivals="poisson",
        mix={"chat": 1},
        chat_system_pages=0,
        chat_turn_mean=40.0,
        chat_turn_sigma=0.3,
        output_mean=16.0,
        output_sigma=0.3,
        max_tokens=48,
        vocab_size=64,
        page_tokens=PAGE_TOKENS,
    )[:requests]
    for item in trace:
        item.arrival_s *= reference_rps / rate_rps
        item.slo = SLO(ttft_s=OPEN_LOOP_TTFT_S)
    return trace


def _open_loop_engine(storage: str, model, calib, recorder, reference: bool):
    clock = VirtualClock()
    engine = ServingEngine(
        model,
        calib if storage == "ecco" else None,
        storage=storage,
        byte_budget=OPEN_LOOP_BUDGET,
        page_tokens=PAGE_TOKENS,
        max_batch_size=16,
        policy="fcfs",
        prefix_reuse=False,
        record_reference=reference,
        clock=clock,
        recorder=recorder,
    )
    return engine, clock


def _open_loop_setup(storage, seed, round_index, smoke, traced=False) -> dict:
    model, calib = _model_and_calib()
    requests = 6 if smoke else RUNG_REQUESTS
    trace = _rung_trace(
        _sub_seed(seed, round_index), LADDER_RPS[REFERENCE_RUNG], requests
    )
    recorder = TraceRecorder(wall_clock) if traced else None
    start = wall_clock()
    engine, clock = _open_loop_engine(storage, model, calib, recorder, traced)
    return {
        "kind": "open",
        "trace": trace,
        "engine": engine,
        "clock": clock,
        "recorder": recorder,
        "calibrate_s": wall_clock() - start if storage == "ecco" else 0.0,
        "ttft_slo_s": OPEN_LOOP_TTFT_S,
    }


def serve_cold_setup(seed, round_index, smoke, traced=False) -> dict:
    return _open_loop_setup("ecco", seed, round_index, smoke, traced)


def serve_fp16_setup(seed, round_index, smoke, traced=False) -> dict:
    return _open_loop_setup("fp16", seed, round_index, smoke, traced)


def serve_shared_setup(seed, round_index, smoke, traced=False) -> dict:
    model, calib = _model_and_calib()
    sessions = generate_sessions(
        seed=_sub_seed(seed, round_index),
        num_sessions=3 if smoke else 8,
        system_pages=4,
        turns_mean=4.0,
        # 32 system tokens + 4 turns x (16 user + 16 reply) = 160 tokens
        # = 40 KiB: the longest conversation still fits the byte budget,
        # so no turn is ever rejected at submit.
        max_turns=4,
        max_tokens=16,
        think_mean_s=0.5,
        # All clients start within one virtual second, so their turns
        # overlap and compete for the budget from the first step.
        start_window_s=1.0,
        vocab_size=64,
        page_tokens=PAGE_TOKENS,
    )
    clock = VirtualClock()
    recorder = TraceRecorder(wall_clock) if traced else None
    start = wall_clock()
    engine = ServingEngine(
        model,
        calib,
        storage="ecco",
        # About a quarter of the bytes the sessions occupy when nothing
        # is ever evicted, so pressure eviction, preemption and
        # compressed swap all fire.
        byte_budget=44_000,
        page_tokens=PAGE_TOKENS,
        max_batch_size=16,
        # Sessions carry no per-request SLO; the blanket objective keeps
        # earliest-deadline-first ordering on while staying loose enough
        # that the closed loop never sheds a turn.
        policy=DeadlinePolicy(default_slo=SLO(ttft_s=SHARED_TTFT_S)),
        prefill_chunk_tokens=PAGE_TOKENS,
        prefix_reuse=True,
        record_reference=traced,
        clock=clock,
        recorder=recorder,
    )
    return {
        "kind": "sessions",
        "sessions": sessions,
        "engine": engine,
        "clock": clock,
        "recorder": recorder,
        "calibrate_s": wall_clock() - start,
        "ttft_slo_s": SHARED_TTFT_S,
    }


def _serve_exact(engine, report: dict, sent: int, ttft_slo_s: float) -> dict:
    """Simulated (virtual-clock) metrics of one replay."""
    met = sum(
        1
        for request in engine.requests
        if request.metrics.ttft_s is not None
        and request.metrics.ttft_s <= ttft_slo_s
    )
    return {
        "sim_ttft_p95_s": report["ttft_s_p95"] or 0.0,
        "sim_itl_p95_s": report["inter_token_s_p95"] or 0.0,
        # Over requests *sent*: a rejected or shed request is a miss.
        "sim_slo_attainment": met / sent,
        "sim_tokens_per_s": report["tokens_per_s"],
        "kv_bytes_per_token": float(report["per_token_nbytes"]),
    }


def _audit_decoded_kv(engine) -> list:
    """Decoded KV of every request vs a single-stream reference.

    Reuse-aware: the codec encodes every token row on its own, so the
    rows a request forwarded itself must equal a fresh single-stream
    encode of its recorded raw K/V, and every row it *attached* from
    the prefix cache must equal a row some request produced that way
    for the identical token prefix — the turn that actually encoded it.
    """
    problems = []
    ecco = engine.backend.name == "ecco"
    produced: dict[tuple, set] = {}
    borrowed: list[tuple] = []
    for request in engine.requests:
        kv = request.kv
        if kv is None or kv.raw_prompt is None or not kv.token_ids:
            continue
        digest = hashlib.blake2b(digest_size=12)
        prefixes = []
        for token in kv.token_ids:
            digest.update(int(token).to_bytes(8, "little"))
            prefixes.append(digest.digest())
        own_from = kv.attached_tokens
        for layer in range(engine.backend.num_layers):
            for pair_index, side in enumerate(("keys", "values")):
                stored = kv.read(layer, side)
                parts = []
                if kv.raw_prompt[layer][side] is not None:
                    parts.append(kv.raw_prompt[layer][side])
                parts.extend(
                    row[None, :] for row in kv.raw_decode[layer][side]
                )
                raw = np.concatenate(parts, axis=0)
                if own_from + raw.shape[0] != stored.shape[0]:
                    problems.append(
                        f"{request.request_id}: {stored.shape[0]} stored "
                        f"rows vs {own_from} attached + {raw.shape[0]} raw"
                    )
                    continue
                if ecco:
                    codec = engine.backend.codecs[layer][pair_index]
                    reference = codec.decode_tokens(codec.encode_tokens(raw))
                else:
                    reference = raw.astype(np.float16)
                reference = reference.astype(np.float32)
                if not np.array_equal(reference, stored[own_from:]):
                    problems.append(
                        f"{request.request_id}: layer {layer} {side} "
                        f"differs from the single-stream reference"
                    )
                for pos in range(own_from, stored.shape[0]):
                    produced.setdefault(
                        (layer, side, prefixes[pos]), set()
                    ).add(stored[pos].tobytes())
                for pos in range(own_from):
                    borrowed.append(
                        (request.request_id, layer, side, prefixes[pos],
                         stored[pos].tobytes())
                    )
    for request_id, layer, side, prefix, row in borrowed:
        if row not in produced.get((layer, side, prefix), ()):
            problems.append(
                f"{request_id}: attached row (layer {layer} {side}) matches "
                f"no single-stream encode of that prefix"
            )
            break
    return problems


def _serve_pass(state: dict, tracer=None) -> PassResult:
    engine, clock = state["engine"], state["clock"]
    frontend = AsyncServingEngine(engine, step_cost=StepCostModel())
    steps: list = []
    if tracer is None:
        # The one instrument an untraced pass carries: a clock pair
        # around this engine instance's step.
        plain_step = engine.step

        def timed_step() -> int:
            start = wall_clock()
            tokens = plain_step()
            steps.append(wall_clock() - start)
            return tokens

        engine.step = timed_step
    with tracer or nullcontext():
        begin = wall_clock()
        if state["kind"] == "open":
            replay = replay_trace(frontend, state["trace"], clock)
        else:
            replay = replay_sessions(frontend, state["sessions"], clock)
        report = engine.report(clock())
        wall_s = wall_clock() - begin
    if tracer is not None:
        steps = tracer.durations("serve.engine.step")
    # Refusals at submit (the 429 path) never become engine requests;
    # requests the policy sheds at admission do.
    shed = report["shed_requests"]
    if state["kind"] == "open":
        refused = replay["rejected"]
    else:
        refused = replay["turns_rejected"] - shed
    sent = report["requests"] + refused

    pool = engine.pool
    problems = []
    try:
        pool.check_budget()
    except RuntimeError as error:
        problems.append(f"check_budget: {error}")
    overruns = pool.stats["budget_overruns"]
    if overruns:
        problems.append(f"{overruns} budget overruns")
    if pool.unreachable_cached_pages():
        problems.append("unreachable cached pages left in the pool")
    if pool.leaf_index_violations():
        problems.append("leaf index disagrees with the cache")
    expected = len(state.get("trace", ())) or replay.get("turns_submitted", 0) + refused
    if report["finished"] + shed + refused != sent or sent != expected:
        problems.append(
            f"finished {report['finished']} + shed {shed} + rejected "
            f"{refused} != sent {expected}"
        )
    if tracer is not None:
        problems.extend(_audit_decoded_kv(engine))

    facts = {
        "calibrate_s": state["calibrate_s"],
        "report": report,
        "frontend": frontend.report(),
        "replay": {k: v for k, v in replay.items() if k != "sessions"},
        "trie_nodes": len(pool.trie) if pool.trie is not None else 0,
    }
    if engine.backend.name == "ecco":
        kvs = [r.kv for r in engine.requests if r.kv is not None]
        facts["decoded_tokens"] = sum(
            sum(kv.decoded_token_counters.values()) for kv in kvs
        )
        facts["appended_tokens"] = sum(
            2 * engine.backend.num_layers * kv.num_tokens for kv in kvs
        )
    if state["kind"] == "sessions":
        turns = [t for s in replay["sessions"] for t in s.turn_reports()]
        facts["turns"] = summarize_turns(turns)
    if state["recorder"] is not None:
        facts["phases"] = dict(phase_totals(state["recorder"]))
    return PassResult(
        wall_s=wall_s,
        units=replay["tokens_processed"],
        steps=steps,
        exact=_serve_exact(engine, report, sent, state["ttft_slo_s"]),
        attempted=sent,
        failed=refused + shed + overruns,
        problems=problems,
        facts=facts,
    )


def serve_ladder(name: str, seed: int, smoke: bool, reference: dict) -> dict:
    """Replay every rung once; ``reference`` is the already-measured
    reference-rung pass (``sim_slo_attainment`` and backlog).  Returns
    ``sim_max_rate_rps`` — the highest rate below the first rung that
    misses 0.95 attainment or leaves a backlog — and whether the ladder
    brackets (lowest rung sustained, top rung not)."""
    storage = "ecco" if name == "serve_cold" else "fp16"
    model, calib = _model_and_calib()
    sustained = []
    for rung, rate in enumerate(LADDER_RPS):
        if rung == REFERENCE_RUNG or (smoke and rung < len(LADDER_RPS) - 1):
            # Smoke replays only the top rung.
            sustained.append(reference)
            continue
        requests = max(RUNG_REQUESTS, round(RUNG_MIN_S * rate))
        trace = _rung_trace(_sub_seed(seed, 0), rate, 6 if smoke else requests)
        engine, clock = _open_loop_engine(storage, model, calib, None, False)
        replay_trace(engine, trace, clock, StepCostModel())
        sustained.append(_rung_outcome(engine, trace))
    max_rate = 0.0
    for rate, ok in zip(LADDER_RPS, sustained):
        if not ok["sustained"]:
            break
        max_rate = rate
    return {
        "sim_max_rate_rps": max_rate,
        "sim_ladder_brackets": float(
            sustained[0]["sustained"] and not sustained[-1]["sustained"]
        ),
        "rungs": [
            {"rate_rps": rate, **ok} for rate, ok in zip(LADDER_RPS, sustained)
        ],
    }


def _rung_outcome(engine, trace: list) -> dict:
    last_arrival = max(item.arrival_s for item in trace)
    first_tokens = [
        r.metrics.first_token_s
        for r in engine.requests
        if r.metrics.first_token_s is not None
    ]
    met = sum(
        1
        for r in engine.requests
        if r.metrics.ttft_s is not None
        and r.metrics.ttft_s <= OPEN_LOOP_TTFT_S
    )
    attainment = met / len(trace)
    # ``None``: some request never got a first token at all.
    backlog_s = (
        max(first_tokens) - last_arrival
        if len(first_tokens) == len(trace)
        else None
    )
    return {
        "attainment": attainment,
        "backlog_s": backlog_s,
        "sustained": attainment >= 0.95
        and backlog_s is not None
        and backlog_s <= DRAIN_LIMIT_S,
    }


def _open_loop_pass(state: dict, tracer=None) -> PassResult:
    result = _serve_pass(state, tracer)
    result.facts["rung"] = _rung_outcome(state["engine"], state["trace"])
    return result


# ----------------------------------------------------------------------
# pool_churn: the paged pool and its trie, nothing else.
# ----------------------------------------------------------------------

POOL_PAGE_NBYTES = 1024
POOL_PAGE_FP16 = 4096
ROOT_CHAINS = 8
ROOT_PAGES = 4
CHAIN_PAGES = 16
POOL_PASSES = 5


def _stub_payload():
    return {"tokens": PAGE_TOKENS}, POOL_PAGE_NBYTES, POOL_PAGE_FP16


def _split_stub(payload: dict, head_tokens: int):
    per_token = POOL_PAGE_NBYTES // PAGE_TOKENS
    per_fp16 = POOL_PAGE_FP16 // PAGE_TOKENS
    tail_tokens = payload["tokens"] - head_tokens
    return (
        {"tokens": head_tokens}, head_tokens * per_token,
        head_tokens * per_fp16,
        {"tokens": tail_tokens}, tail_tokens * per_token,
        tail_tokens * per_fp16,
    )


def _refuse_build():
    raise AssertionError("expected a resident page")


class _Chain:
    """One token chain: pages of token ids with their hash chain."""

    def __init__(self, parent: str, pages: np.ndarray, prefix=()):
        self.pages = pages
        self.links = []  # (chain, parent, ids) per page, root first
        self.links.extend(prefix)
        for ids in pages:
            chain = chain_hash(parent, ids)
            self.links.append((chain, parent, ids))
            parent = chain
        self.ids = np.concatenate([link[2] for link in self.links])


def _acquire_links(pool: PagedKVPool, links) -> list:
    return [
        pool.acquire(chain, ids, _stub_payload, parent=parent)[0]
        for chain, parent, ids in links
    ]


def _time_matches(pool: PagedKVPool, chains: list, rng) -> float:
    """Mean wall seconds of one full-depth trie match at this pool size."""
    picks = rng.integers(len(chains), size=200)
    start = wall_clock()
    for pick in picks:
        pool.trie.match(chains[pick].ids, ROOT_CHAIN)
    return (wall_clock() - start) / len(picks)


def pool_churn_setup(seed, round_index, smoke, traced=False) -> dict:
    rng = np.random.default_rng(seed)
    num_chains = 30 if smoke else 623
    ops_per_pass = 150 if smoke else 2000
    total_pages = ROOT_CHAINS * ROOT_PAGES + num_chains * CHAIN_PAGES
    clock = VirtualClock()
    pool = PagedKVPool(
        total_pages * POOL_PAGE_NBYTES,
        page_tokens=PAGE_TOKENS,
        # Chains are populated one virtual second apart, so only the
        # oldest few age out per pass — not the whole pool at once.
        ttl_s=num_chains + 20.0,
        clock=clock,
    )

    def tokens(pages: int) -> np.ndarray:
        return rng.integers(0, 1 << 30, size=(pages, PAGE_TOKENS), dtype=np.int64)

    roots = [_Chain(ROOT_CHAIN, tokens(ROOT_PAGES)) for _ in range(ROOT_CHAINS)]

    def new_chain() -> _Chain:
        root = roots[int(rng.integers(ROOT_CHAINS))]
        return _Chain(root.links[-1][0], tokens(CHAIN_PAGES), root.links)

    chains = []
    match_s = {}
    for index in range(num_chains):
        chain = new_chain()
        for page in _acquire_links(pool, chain.links):
            pool.release(page)
        chains.append(chain)
        clock.advance(1.0)
        if pool.num_resident_pages >= 1000 and "1k" not in match_s:
            match_s["1k"] = _time_matches(pool, chains, rng)
    match_s["10k"] = _time_matches(pool, chains, rng)
    match_s.setdefault("1k", match_s["10k"])

    # The op lists are drawn here, before any timed region; an op names
    # its chain by index into ``chains`` (which acquire ops extend).
    passes = []
    known = num_chains
    for _ in range(POOL_PASSES):
        ops = []
        for kind in rng.choice(
            4, size=ops_per_pass, p=(0.60, 0.25, 0.10, 0.05)
        ):
            if kind == 0:
                chain = chains[int(rng.integers(known))]
                depth = int(rng.integers(1, len(chain.links) + 1))
                ops.append(("lookup", chain.ids[: depth * PAGE_TOKENS]))
            elif kind == 1:
                chains.append(new_chain())
                ops.append(("acquire", chains[-1]))
                known += 1
            elif kind == 2:
                chain = chains[int(rng.integers(known))]
                depth = int(rng.integers(ROOT_PAGES, len(chain.links)))
                head = int(rng.integers(1, PAGE_TOKENS))
                ids = np.concatenate([
                    chain.ids[: depth * PAGE_TOKENS + head],
                    rng.integers(1 << 30, 1 << 31, size=4, dtype=np.int64),
                ])
                ops.append(("split", ids))
            elif rng.random() < 0.5:
                ops.append(("expire", None))
            else:
                ops.append(("swap", chains[int(rng.integers(known))]))
        passes.append(ops)
    return {
        "pool": pool,
        "clock": clock,
        "passes": passes,
        "next_pass": 0,
        "match_s": match_s,
        "calibrate_s": 0.0,
    }


def _pool_op(pool: PagedKVPool, kind: str, arg) -> None:
    if kind == "lookup":
        pool.lookup_prefix(arg)
    elif kind == "acquire":
        for page in _acquire_links(pool, arg.links):
            pool.release(page)
    elif kind == "split":
        match = pool.lookup_prefix(arg)
        if match.partial is not None:
            pool.split_page(match.partial, match.partial_tokens, _split_stub)
    elif kind == "expire":
        pool.expire_ttl()
    else:
        # Pin whatever of the chain is still resident, swap its own
        # pages out leaf-first and back in root-first, then unpin.  The
        # shared root pages stay pinned: swapping one out would cascade
        # through every cached chain below it.
        pinned = [
            pool.acquire(p.chain, p.token_ids, _refuse_build, parent=p.parent)[0]
            for p in pool.match_prefix(arg.ids)
        ]
        own = pinned[ROOT_PAGES:]
        for page in reversed(own):
            pool.swap_out(page)
        pinned[ROOT_PAGES:] = [pool.swap_in(page) for page in own]
        for page in pinned:
            pool.release(page)


def pool_churn_pass(state: dict, tracer=None) -> PassResult:
    pool, clock = state["pool"], state["clock"]
    ops = state["passes"][state["next_pass"] % len(state["passes"])]
    state["next_pass"] += 1
    steps = []
    failed = 0
    with tracer or nullcontext():
        begin = wall_clock()
        for kind, arg in ops:
            t0 = wall_clock()
            try:
                _pool_op(pool, kind, arg)
            except (ValueError, RuntimeError, AssertionError):
                failed += 1
            steps.append(wall_clock() - t0)
            clock.advance(0.05)
        wall_s = wall_clock() - begin
    problems = []
    try:
        pool.check_budget()
    except RuntimeError as error:
        problems.append(f"check_budget: {error}")
    if pool.unreachable_cached_pages():
        problems.append("unreachable cached pages")
    if pool.leaf_index_violations():
        problems.append("leaf index violations")
    overruns = pool.stats["budget_overruns"]
    if overruns:
        problems.append(f"{overruns} budget overruns")
    return PassResult(
        wall_s=wall_s,
        units=len(ops),
        steps=steps,
        exact={},
        attempted=len(ops),
        failed=failed + overruns,
        problems=problems,
        facts={
            "calibrate_s": 0.0,
            "report": {"pool": pool.snapshot()},
            "trie_nodes": len(pool.trie),
            "match_s": state["match_s"],
        },
    )


@dataclass(frozen=True)
class Workload:
    name: str
    setup: object
    run_pass: object
    #: Passes one set-up serves (a serve pass consumes its engine).
    passes_per_round: int
    #: The pass size host time is rescaled to: tokens, or pool ops.
    nominal_units: int
    #: True when every round replays its own sub-seeded inputs.
    varies_by_round: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("codec_bulk", codec_bulk_setup, codec_bulk_pass, 8, 2048),
        Workload("kv_stream", kv_stream_setup, kv_stream_pass, 1, 2048),
        Workload("serve_cold", serve_cold_setup, _open_loop_pass, 1, 1400, True),
        Workload("serve_fp16", serve_fp16_setup, _open_loop_pass, 1, 1400, True),
        Workload("serve_shared", serve_shared_setup, _serve_pass, 1, 1500, True),
        Workload("pool_churn", pool_churn_setup, pool_churn_pass, POOL_PASSES,
                 2000),
    )
}
