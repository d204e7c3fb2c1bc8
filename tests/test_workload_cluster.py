"""Tier-0 tests for chunked prefill, trace workloads and the cluster.

Chunked prefill is held to bit-exactness at two levels: the storage
path (page-aligned partial commits must produce byte-identical pages,
streams and pool accounting vs the whole prompt as one chunk, on both
backends) and the engine (a chunked run generates the same tokens and
stores the same KV as an unchunked run, and its decoded KV matches a
single-stream reference).  The workload layer is held to
reproducibility and its advertised sharing structure; the cluster to
prefix-affinity routing and faithful metric aggregation.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.llm import ProxyModel, calibrate, get_proxy_spec, quantize_model
from repro.llm.decode import decode_step, prefill_chunk
from repro.serve import (
    ClusterRouter,
    PagedKVPool,
    RequestState,
    ServingEngine,
    StepCostModel,
    TraceRequest,
    VirtualClock,
    WorkloadConfig,
    bursty_arrivals,
    generate_trace,
    poisson_arrivals,
    replay_trace,
)
from repro.serve.engine import _PromptKV
from repro.serve.storage import EccoKVBackend, Fp16KVBackend


@pytest.fixture(scope="module")
def parts():
    spec = get_proxy_spec("proxy-small")
    model = ProxyModel(spec, seed=1)
    rng = np.random.default_rng(0)
    calib = calibrate(model, rng.integers(0, spec.vocab_size, size=(8, 33)))
    return spec, model, calib


# ----------------------------------------------------------------------
# Chunked prefill: storage-level bit-exactness on both backends.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend_cls", [EccoKVBackend, Fp16KVBackend])
def test_partial_commits_match_whole_prompt_byte_for_byte(
    parts, backend_cls
):
    """Feeding identical raw K/V through three page-aligned chunks must
    leave the request (and the pool) in exactly the state one chunk
    covering the whole prompt does: same reads, same bytes, same page
    payloads."""
    spec, model, calib = parts
    num_layers, d = 2, 64
    T, P = 29, 8
    rng = np.random.default_rng(9)
    prompt = rng.integers(0, 50, size=T)
    raw = {
        layer: (
            rng.standard_normal((T, d)).astype(np.float32),
            rng.standard_normal((T, d)).astype(np.float32),
        )
        for layer in range(num_layers)
    }

    def fresh():
        backend = backend_cls(num_layers, d, calib)
        pool = PagedKVPool(byte_budget=10**7, page_tokens=P)
        return backend.create_request(pool, prompt), pool

    def ingest(kv, bounds):
        for start, end in bounds:
            kv.begin_chunk(start, end)
            for layer in range(num_layers):
                kv.ingest_chunk(
                    layer, raw[layer][0][start:end], raw[layer][1][start:end]
                )
            kv.commit_chunk()

    whole, pool_whole = fresh()
    ingest(whole, ((0, T),))
    chunked, pool_chunked = fresh()
    ingest(chunked, ((0, 8), (8, 24), (24, T)))

    assert chunked.num_tokens == whole.num_tokens == T
    for layer in range(num_layers):
        for side in ("keys", "values"):
            assert np.array_equal(
                whole.read(layer, side), chunked.read(layer, side)
            )
    # Page payloads are byte-identical, page for page.
    assert len(whole.pages) == len(chunked.pages) == T // P
    for pw, pc in zip(whole.pages, chunked.pages):
        assert pw.chain == pc.chain
        assert pw.nbytes == pc.nbytes
        for layer in range(num_layers):
            for w_seg, c_seg in zip(pw.payload[layer], pc.payload[layer]):
                if backend_cls is EccoKVBackend:
                    assert np.array_equal(w_seg.blocks, c_seg.blocks)
                else:
                    assert np.array_equal(w_seg, c_seg)
    # And the pool accounting agrees to the byte.
    for attr in ("bytes_resident", "private_bytes", "fp16_bytes_resident"):
        assert getattr(pool_whole, attr) == getattr(pool_chunked, attr)
    assert whole.logical_nbytes == chunked.logical_nbytes


def test_chunk_bounds_are_validated(parts):
    spec, model, calib = parts
    backend = Fp16KVBackend(1, 32)
    pool = PagedKVPool(byte_budget=10**6, page_tokens=8)
    kv = backend.create_request(pool, np.arange(20))
    with pytest.raises(ValueError, match="chunk starts at 4"):
        kv.begin_chunk(4, 12)
    with pytest.raises(ValueError, match="neither page-aligned"):
        kv.begin_chunk(0, 12)
    kv.begin_chunk(0, 8)
    with pytest.raises(RuntimeError, match="no open chunk"):
        backend.create_request(pool, np.arange(20)).ingest_chunk(
            0, np.zeros((8, 32)), np.zeros((8, 32))
        )


# ----------------------------------------------------------------------
# The served prefill against the forward the accuracy tables run.
# ----------------------------------------------------------------------

def _fp16_roundtrip(rows: np.ndarray) -> np.ndarray:
    return np.asarray(rows, dtype=np.float32).astype(np.float16).astype(
        np.float32
    )


class _Fp16KV:
    """The served forward's KV protocol over plain per-request, per-layer
    lists: every row is stored through the roundtrip the forward's hook
    applies.  ``serving`` names the requests the next call advances, in
    row order, each with an equal share of the rows (a prefill chunk is
    one request, a decode step one row per request)."""

    def __init__(self, num_requests: int = 1):
        self.held = [{} for _ in range(num_requests)]
        self.serving = [0]

    def append(self, layer, keys, values):
        parts = len(self.serving)
        for r, k, v in zip(
            self.serving, np.split(keys, parts), np.split(values, parts)
        ):
            keys_held, values_held = self.held[r].setdefault(layer, ([], []))
            keys_held.append(_fp16_roundtrip(k))
            values_held.append(_fp16_roundtrip(v))

    def read(self, layer):
        keys = [np.concatenate(self.held[r][layer][0]) for r in self.serving]
        values = [np.concatenate(self.held[r][layer][1]) for r in self.serving]
        return keys, values


def _fp16_forward(model, tokens):
    return model.forward(
        tokens[None, :], kv_quant=lambda name, kv: _fp16_roundtrip(kv)
    )[0]


def test_served_prefill_matches_the_accuracy_table_forward(parts):
    """The server ingests prompts with ``prefill_chunk`` and decodes with
    ``decode_step``; Tables 1, 2 and 4 score
    ``ProxyModel.forward(kv_quant=)``.  Given the same KV roundtrip, they
    produce the same logits: a prompt as one chunk or two, and a decode
    batch of ragged requests against each one's last position."""
    spec, model, calib = parts
    rng = np.random.default_rng(11)
    T, split = 29, 16
    prompt = rng.integers(0, spec.vocab_size, size=T)
    want = _fp16_forward(model, prompt)

    whole = prefill_chunk(model, prompt, 0, _Fp16KV())
    kv = _Fp16KV()
    two = np.concatenate([
        prefill_chunk(model, prompt[:split], 0, kv),
        prefill_chunk(model, prompt[split:], split, kv),
    ])
    for got in (whole, two):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) < 1e-4
        assert np.array_equal(got.argmax(axis=-1), want.argmax(axis=-1))

    # Three prompts of different lengths, prefilled up to their
    # second-to-last token, then their last tokens in one decode step.
    prompts = [prompt, prompt[:11], rng.integers(0, spec.vocab_size, size=20)]
    kv = _Fp16KV(len(prompts))
    for r, tokens in enumerate(prompts):
        kv.serving = [r]
        prefill_chunk(model, tokens[:-1], 0, kv)
    kv.serving = list(range(len(prompts)))
    got = decode_step(
        model,
        np.array([tokens[-1] for tokens in prompts]),
        np.array([len(tokens) - 1 for tokens in prompts]),
        kv,
    )
    for r, tokens in enumerate(prompts):
        want = _fp16_forward(model, tokens)[-1]
        assert np.max(np.abs(got[r] - want)) < 1e-4
        assert got[r].argmax() == want.argmax()


@pytest.mark.parametrize("T", [29, 40])
def test_served_ecco_prefill_matches_the_accuracy_table_forward(parts, T):
    """The Ecco case: a prompt ingested into the served Ecco store scores
    the logits the accuracy tables' forward scores under their ``"ecco"``
    KV hook, because both store each token row through one per-tensor
    codec roundtrip.  The served rows differ from the forward's only in
    float32 summation order, which can still land a group scale one step
    apart (at T = 29 one layer-1 value row does, and a logit moves by
    about 8e-5), which the bound allows."""
    spec, model, calib = parts
    prompt = np.random.default_rng(T).integers(0, spec.vocab_size, size=T)
    backend = EccoKVBackend(spec.num_layers, spec.d_model, calib)
    pool = PagedKVPool(byte_budget=10**7, page_tokens=8)
    kv = backend.create_request(pool, prompt)
    kv.begin_chunk(0, T)
    got = prefill_chunk(model, prompt, 0, _PromptKV([SimpleNamespace(kv=kv)]))
    kv.commit_chunk()

    hook = quantize_model(
        model, calib, weight_method="rtn", kv_method="ecco"
    ).kv_quant
    want = model.forward(prompt[None], kv_quant=hook)[0]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) < 1e-4
    assert np.array_equal(got.argmax(axis=-1), want.argmax(axis=-1))


class _StaleKV(_Fp16KV):
    """The protocol broken once ``stale`` is set: ``read`` leaves out the
    rows just appended."""

    stale = False

    def read(self, layer):
        if not self.stale:
            return super().read(layer)
        return tuple(
            [
                np.concatenate(blocks[:-1] + [blocks[-1][:0]])
                for blocks in (self.held[r][layer][side] for r in self.serving)
            ]
            for side in (0, 1)
        )


def test_a_history_of_the_wrong_length_is_a_value_error(parts):
    """Each request's read must run to its last position.  One that
    leaves out the rows just appended is a ValueError naming the
    mismatch — not a numpy broadcast error, a silent broadcast over a
    one-row history, or attention over the wrong rows."""
    spec, model, calib = parts
    prompt = np.arange(9) % spec.vocab_size
    mismatch = "rows end at position"

    cold = _StaleKV()
    cold.stale = True
    with pytest.raises(ValueError, match=mismatch):
        prefill_chunk(model, prompt, 0, cold)

    one_row = _StaleKV()
    prefill_chunk(model, prompt[:1], 0, one_row)
    one_row.stale = True
    with pytest.raises(ValueError, match=mismatch):
        prefill_chunk(model, prompt[1:], 1, one_row)

    kv = _StaleKV(2)
    for r in range(2):
        kv.serving = [r]
        prefill_chunk(model, prompt[: 5 + r], 0, kv)
    kv.serving = [0, 1]
    kv.stale = True
    with pytest.raises(ValueError, match=mismatch):
        decode_step(model, prompt[:2], np.array([5, 6]), kv)


# ----------------------------------------------------------------------
# Chunked prefill: engine-level equivalence + single-stream reference.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("storage", ["ecco", "fp16"])
def test_chunked_engine_matches_unchunked_and_reference(parts, storage):
    spec, model, calib = parts
    rng = np.random.default_rng(7)
    prompts = [
        rng.integers(0, spec.vocab_size, size=n) for n in (29, 12, 40, 19)
    ]
    runs = {}
    for chunk in (None, 8):
        engine = ServingEngine(
            model,
            calib if storage == "ecco" else None,
            storage=storage,
            byte_budget=80_000,
            page_tokens=8,
            max_batch_size=8,
            watermark=0.1,
            prefill_chunk_tokens=chunk,
            step_token_budget=24 if chunk else None,
            record_reference=True,
        )
        requests = [engine.submit(p, max_new_tokens=6) for p in prompts]
        report = engine.run()
        assert report["finished"] == len(prompts)
        assert report["pool"]["budget_overruns"] == 0
        runs[chunk] = (engine, requests, report)
    # Chunked == unchunked: same generated tokens, same stored KV.  Both
    # runs go through ``prefill_chunk``; only where the chunks end
    # differs, and with it the float32 summation order of the attention
    # over the stored history (measured max |delta| 2.4e-4 on fp16).  The
    # ecco codec's coarse bins absorb that drift, so its stored blocks
    # match bit for bit; raw fp16 sits on a much finer rounding grid
    # where single-ULP flips are possible, so it is held to fp16
    # resolution instead (the *storage* path is proven byte-identical
    # on both backends in the partial-commit test above).
    for a, b in zip(runs[None][1], runs[8][1]):
        assert a.generated == b.generated
        for layer in range(spec.num_layers):
            for side in ("keys", "values"):
                got = a.kv.read(layer, side)
                want = b.kv.read(layer, side)
                if storage == "ecco":
                    assert np.array_equal(got, want)
                else:
                    assert np.allclose(got, want, atol=1e-2, rtol=1e-2)
    assert runs[8][2]["prefill_chunks"] > len(prompts)  # really chunked
    # Acceptance: the chunked run's decoded KV is bit-exact against a
    # single-stream reference fed the same raw (pre-quantization) K/V.
    assert runs[8][0].audit_kv() == []


def test_prefilling_state_is_observable(parts):
    """A long prompt with a small chunk size passes through PREFILLING
    across several steps before its first token exists."""
    spec, model, calib = parts
    engine = ServingEngine(
        model,
        calib,
        byte_budget=80_000,
        page_tokens=8,
        prefill_chunk_tokens=8,
        step_token_budget=8,
    )
    rng = np.random.default_rng(1)
    request = engine.submit(
        rng.integers(0, spec.vocab_size, size=40), max_new_tokens=2
    )
    engine.step()
    assert request.state == RequestState.PREFILLING
    assert 0 < request.prefill_pos < request.prompt_len
    assert request.metrics.first_token_s is None
    while engine.scheduler.has_work:
        engine.step()
    assert request.state == RequestState.FINISHED
    assert request.metrics.prefill_chunks == 5


# ----------------------------------------------------------------------
# Workloads: reproducibility and sharing structure.
# ----------------------------------------------------------------------

def test_traces_are_reproducible_and_mixed():
    cfg = WorkloadConfig(duration_s=40.0, rate_rps=1.5, arrivals="bursty")
    a = generate_trace(cfg, seed=4)
    b = generate_trace(cfg, seed=4)
    assert len(a) == len(b) > 10
    for x, y in zip(a, b):
        assert x.arrival_s == y.arrival_s
        assert x.max_new_tokens == y.max_new_tokens
        assert np.array_equal(x.prompt, y.prompt)
    c = generate_trace(cfg, seed=5)
    assert any(
        not np.array_equal(x.prompt, y.prompt) for x, y in zip(a, c)
    )
    scenarios = {t.scenario for t in a}
    assert scenarios == {"chat", "rag", "agent"}
    assert all(0.0 <= t.arrival_s < cfg.duration_s for t in a)
    assert all(t.arrival_s <= u.arrival_s for t, u in zip(a, a[1:]))


def test_arrival_processes_stay_in_window():
    rng = np.random.default_rng(2)
    for times in (
        poisson_arrivals(2.0, 50.0, rng),
        bursty_arrivals(0.5, 6.0, 50.0, rng),
    ):
        assert times.size > 10
        assert np.all((0 <= times) & (times < 50.0))
        assert np.all(np.diff(times) >= 0)


def test_rag_and_agent_scenarios_share_page_aligned_prefixes():
    cfg = WorkloadConfig(
        duration_s=60.0,
        rate_rps=1.5,
        mix={"rag": 0.6, "agent": 0.4},
        rag_corpora=2,
        rag_system_pages=3,
        page_tokens=8,
    )
    trace = generate_trace(cfg, seed=8)
    rags = [t for t in trace if t.scenario == "rag"]
    assert len(rags) > 4
    system_len = cfg.rag_system_pages * cfg.page_tokens
    prefixes = {tuple(t.prompt[:system_len]) for t in rags}
    # Long identical preambles: at most rag_corpora distinct ones.
    assert 1 <= len(prefixes) <= cfg.rag_corpora
    agents = [t for t in trace if t.scenario == "agent"]
    by_len = sorted(agents, key=lambda t: len(t.prompt))
    # Some agent resubmission extends an earlier context verbatim.
    grown = any(
        len(long.prompt) > len(short.prompt)
        and np.array_equal(long.prompt[: len(short.prompt)], short.prompt)
        for short in by_len
        for long in by_len
    )
    assert grown


# ----------------------------------------------------------------------
# Replay + cost model + cluster.
# ----------------------------------------------------------------------

def test_step_cost_model_is_a_two_lane_roofline():
    cost = StepCostModel(
        base_s=1e-3, compute_s_per_token=1e-3, bw_s_per_byte=1e-6
    )
    compute_bound = {
        "prefill_tokens": 90, "decode_tokens": 10, "kv_read_bytes": 1_000.0
    }
    bw_bound = {
        "prefill_tokens": 0, "decode_tokens": 4, "kv_read_bytes": 50_000.0
    }
    assert cost(compute_bound) == pytest.approx(1e-3 + 0.1)
    assert cost(bw_bound) == pytest.approx(1e-3 + 0.05)
    # A cluster's replicas run concurrently: the list costs the max.
    assert cost([compute_bound, bw_bound]) == pytest.approx(1e-3 + 0.1)
    # Zero work costs zero time — charging is idempotent over empty
    # steps (a polling driver cannot smear phantom seconds in).
    assert cost([]) == 0.0
    idle = {"prefill_tokens": 0, "decode_tokens": 0, "kv_read_bytes": 0.0}
    assert cost(idle) == 0.0
    assert cost([idle, idle]) == 0.0
    assert cost.prefill_s(0) == 0.0
    assert cost.decode_s(0, 0.0) == 0.0


def test_replay_measures_ttft_from_trace_arrival_and_counts_rejects(parts):
    spec, model, calib = parts
    clock = VirtualClock()
    engine = ServingEngine(
        model,
        calib,
        byte_budget=60_000,
        page_tokens=8,
        prefill_chunk_tokens=8,
        clock=clock,
    )
    cfg = WorkloadConfig(
        duration_s=8.0, rate_rps=1.5, vocab_size=spec.vocab_size,
        max_tokens=24,
    )
    trace = generate_trace(cfg, seed=12)
    # One request the pool can never hold: replay counts it as rejected.
    trace.append(
        TraceRequest(
            arrival_s=1.0,
            prompt=np.arange(400) % spec.vocab_size,
            max_new_tokens=50,
        )
    )
    replay = replay_trace(engine, trace, clock)
    assert replay["rejected"] == 1
    assert replay["submitted"] == len(trace) - 1
    report = engine.report(clock())
    assert report["finished"] == replay["submitted"]
    arrivals = {
        round(t.arrival_s, 9) for t in trace[:-1]
    }
    for request in engine.requests:
        # TTFT anchors on the trace arrival, not the submit step.
        assert round(request.metrics.arrival_s, 9) in arrivals
        assert request.metrics.ttft_s >= 0.0


def test_cluster_ids_are_unique_and_rejections_leave_no_trace(parts):
    """Request IDs are cluster-scoped (auto IDs never collide across
    replicas, caller duplicates are rejected even when routing would
    split them), and a rejected submission mutates neither the routing
    stats nor the affinity/ID state."""
    spec, model, calib = parts
    engines = [
        ServingEngine(model, calib, byte_budget=30_000, page_tokens=8)
        for _ in range(2)
    ]
    cluster = ClusterRouter(engines)
    rng = np.random.default_rng(3)
    requests = [
        cluster.submit(
            rng.integers(0, spec.vocab_size, size=16), max_new_tokens=2
        )
        for _ in range(6)
    ]
    ids = [r.request_id for r in requests]
    assert len(set(ids)) == 6                       # no cross-replica clash
    assert {r.replica for r in requests} == {0, 1}  # both replicas used
    with pytest.raises(ValueError, match="duplicate request_id"):
        cluster.submit(
            rng.integers(0, spec.vocab_size, size=16),
            max_new_tokens=2,
            request_id=ids[0],
        )
    stats_before = {
        "routed": list(cluster.stats["routed"]),
        "affinity_hits": cluster.stats["affinity_hits"],
        "next": cluster._next_request,
    }
    shared = requests[0].prompt  # a prefix the affinity map knows
    with pytest.raises(ValueError, match="pool budget"):
        cluster.submit(shared, max_new_tokens=10_000)
    assert list(cluster.stats["routed"]) == stats_before["routed"]
    assert cluster.stats["affinity_hits"] == stats_before["affinity_hits"]
    assert cluster._next_request == stats_before["next"]
    accepted = cluster.submit(shared, max_new_tokens=2)
    assert accepted.request_id == "req-6"  # the rejection burned nothing


def test_cluster_routes_by_prefix_affinity_and_aggregates(parts):
    spec, model, calib = parts
    clock = VirtualClock()
    engines = [
        ServingEngine(
            model,
            calib,
            byte_budget=60_000,
            page_tokens=8,
            prefill_chunk_tokens=8,
            step_token_budget=24,
            clock=clock,
        )
        for _ in range(2)
    ]
    cluster = ClusterRouter(engines)
    cfg = WorkloadConfig(
        duration_s=15.0,
        rate_rps=2.0,
        arrivals="bursty",
        vocab_size=spec.vocab_size,
        mix={"chat": 0.5, "rag": 0.3, "agent": 0.2},
        rag_system_pages=4,
        max_tokens=24,
    )
    trace = generate_trace(cfg, seed=21)
    replay = replay_trace(cluster, trace, clock)
    report = cluster.report(clock())
    assert report["replicas"] == 2
    assert report["finished"] == replay["submitted"] == len(trace)
    assert sum(report["routing"]["routed"]) == len(trace)
    assert min(report["routing"]["routed"]) > 0  # both replicas used
    # Repeated shared prefixes stick to their replica.
    assert report["routing"]["affinity_hits"] > 0
    assert report["budget_overruns"] == 0
    # Aggregation is the literal sum of the replica reports.
    for key in ("finished", "decode_steps", "preemptions", "prefill_chunks"):
        assert report[key] == sum(r[key] for r in report["per_replica"])
    ttfts = [
        r.metrics.ttft_s
        for e in engines
        for r in e.requests
        if r.metrics.ttft_s is not None
    ]
    assert report["ttft_s_max"] == pytest.approx(max(ttfts))
