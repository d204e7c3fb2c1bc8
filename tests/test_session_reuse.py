"""Tier-0 tests for the prefix-cache chain lifecycle and sessions.

The three tentpole bugfixes, each pinned by a test: (1) eviction is
chain-aware — no eviction pass ever leaves a cached page that a
prefix-match walk cannot reach, and suffixes go before the prefixes
beneath them; (2) a finished request's final partial page is promoted
into the hash chain at release, byte-identical to a fresh encode of the
same tokens, so a follow-up turn hits the whole history; (3) the
private-byte accounting paths refuse double frees instead of silently
driving counters negative and relaxing the budget.  On top: the session
layer's cross-turn reuse (attach-everything warm admissions, bit-exact
decoded KV across turns vs a single-stream reference), warm-vs-cold
TTFT under synchronous charging, and cluster session affinity.
"""

import numpy as np
import pytest

from repro.llm import ProxyModel, calibrate, get_proxy_spec
from repro.serve import (
    SLO,
    AsyncServingEngine,
    ClusterRouter,
    DeadlinePolicy,
    PagedKVPool,
    RequestState,
    ServingEngine,
    Session,
    StepCostModel,
    VirtualClock,
    chain_hash,
    generate_sessions,
    replay_sessions,
    replay_trace,
    summarize_turns,
)
from repro.serve.pool import ROOT_CHAIN
from repro.serve.storage import EccoKVBackend, Fp16KVBackend


@pytest.fixture(scope="module")
def parts():
    spec = get_proxy_spec("proxy-small")
    model = ProxyModel(spec, seed=1)
    rng = np.random.default_rng(0)
    calib = calibrate(model, rng.integers(0, spec.vocab_size, size=(8, 33)))
    return spec, model, calib


def _builder(nbytes=400):
    payload = {0: (np.zeros(nbytes // 4, np.uint8), np.zeros(nbytes // 4, np.uint8))}
    return lambda: (payload, nbytes, nbytes * 4)


def _chain_of(pool, length, start=0, nbytes=400):
    """Build a parent->child chain of ``length`` pages; returns pages."""
    pages = []
    parent = ROOT_CHAIN
    for i in range(length):
        ids = (start + i,)
        chain = chain_hash(parent, ids)
        page, _ = pool.acquire(chain, ids, _builder(nbytes), parent=parent)
        pages.append(page)
        parent = chain
    return pages


# ----------------------------------------------------------------------
# Tentpole (1): chain-aware eviction.
# ----------------------------------------------------------------------

def test_eviction_is_suffix_first_and_never_orphans():
    """Suffix pages are reclaimed before the prefixes beneath them, and
    after every eviction pass every surviving cached page is reachable
    by a prefix-match walk from ROOT_CHAIN."""
    pool = PagedKVPool(byte_budget=4_000, page_tokens=4)
    a, b, c = _chain_of(pool, 3, nbytes=1_000)
    for page in (a, b, c):
        pool.release(page)
    assert pool.num_cached_pages == 3

    # One page of pressure: the deepest suffix (c) goes, not the LRU
    # head (a) — which would have stranded b and c as unreachable.
    pool.reserve_private(1_500, 6_000)
    assert pool.peek(c.chain) is None
    assert pool.peek(a.chain) is not None and pool.peek(b.chain) is not None
    assert pool.unreachable_cached_pages() == []

    # More pressure walks up the chain: b then a.
    pool.reserve_private(1_000, 4_000)
    assert pool.peek(b.chain) is None and pool.peek(a.chain) is not None
    assert pool.unreachable_cached_pages() == []
    assert pool.stats["pages_evicted"] == 2
    pool.check_budget()


def test_forced_parent_eviction_cascades_through_descendants():
    """When every cached page still has resident children the fallback
    evicts a parent — and must drag its cached subtree with it rather
    than leave unreachable descendants squatting in the budget."""
    pool = PagedKVPool(byte_budget=4_000, page_tokens=4)
    a, b, c = _chain_of(pool, 3, nbytes=1_000)
    for page in (a, b, c):
        pool.release(page)
    # Ask for more than any single suffix eviction frees: the cascade
    # must reclaim the whole chain, deepest first, leaving no orphans.
    pool.reserve_private(3_500, 14_000)
    assert pool.num_cached_pages == 0
    assert pool.stats["pages_evicted"] == 3
    assert pool.unreachable_cached_pages() == []
    assert pool.bytes_resident == 3_500
    pool.check_budget()


def test_release_after_parent_eviction_frees_instead_of_caching():
    """A page whose parent already left residency is freed at release —
    caching it would create exactly the unreachable dead weight the
    chain-aware eviction exists to prevent."""
    pool = PagedKVPool(byte_budget=4_000, page_tokens=4)
    a, b = _chain_of(pool, 2, nbytes=1_000)
    pool.release(a)  # a cached; b still pinned (a's resident child)
    # Pressure: a is the only cached page; the fallback evicts it even
    # though b (pinned) hangs off it.
    pool.reserve_private(3_000, 12_000)
    assert pool.peek(a.chain) is None
    # Now b's last ref leaves: parent gone => freed, not cached.
    pool.release(b)
    assert pool.peek(b.chain) is None
    assert pool.num_cached_pages == 0
    assert pool.unreachable_cached_pages() == []
    assert pool.bytes_resident == 3_000  # only the private reservation
    pool.check_budget()


def test_cascade_eviction_handles_chains_deeper_than_recursion_limit():
    """A months-old conversation leaves a linear cached chain of
    thousands of pages; the cascade must reclaim it iteratively."""
    import sys

    depth = sys.getrecursionlimit() + 200
    pool = PagedKVPool(byte_budget=depth * 10 + 100, page_tokens=4)
    pages = _chain_of(pool, depth, nbytes=10)
    for page in pages:
        pool.release(page)
    assert pool.num_cached_pages == depth
    pool.reserve_private(depth * 10 + 50, 100)  # forces a full cascade
    assert pool.num_cached_pages < depth
    assert pool.unreachable_cached_pages() == []
    pool.check_budget()


def test_match_prefix_walks_variable_size_chain_nodes():
    """match_prefix descends parent->child over mixed page sizes (full
    pages and promoted tails) and stops at the first gap."""
    pool = PagedKVPool(byte_budget=100_000, page_tokens=4)
    parent = ROOT_CHAIN
    spans = [(0, 1, 2, 3), (4, 5, 6, 7), (8, 9)]  # 4 + 4 + 2 tokens
    for ids in spans:
        chain = chain_hash(parent, ids)
        pool.acquire(chain, ids, _builder(), parent=parent)
        parent = chain
    matched = pool.match_prefix(list(range(10)) + [99])
    assert [p.token_ids for p in matched] == [tuple(s) for s in spans]
    # A diverging token after the first page stops the walk there.
    assert [p.token_ids for p in pool.match_prefix([0, 1, 2, 3, 99])] == [
        (0, 1, 2, 3)
    ]
    assert pool.match_prefix([7, 7, 7]) == []


# ----------------------------------------------------------------------
# Tentpole (3): double frees raise instead of relaxing the budget.
# ----------------------------------------------------------------------

def test_private_double_free_raises_and_budget_checks_negatives():
    pool = PagedKVPool(byte_budget=10_000, page_tokens=4)
    pool.reserve_private(600, 2_400)
    pool.free_private(600, 2_400)
    with pytest.raises(ValueError, match="double free"):
        pool.free_private(600, 2_400)
    assert pool.private_bytes == 0 and pool.bytes_resident == 0

    pool.reserve_private(500, 2_000)
    with pytest.raises(ValueError, match="double free"):
        pool.swap_private_out(501, 2_004)
    pool.swap_private_out(500, 2_000)
    pool.swap_private_in(500, 2_000)
    with pytest.raises(ValueError, match="double swap-in"):
        pool.swap_private_in(500, 2_000)
    with pytest.raises(ValueError, match="non-negative"):
        pool.free_private(-1, 0)
    pool.check_budget()

    # The swap-in guard is exact, not aggregate: another request's
    # swapped *pages* must not mask a private double swap-in.
    page, _ = pool.acquire(
        chain_hash(ROOT_CHAIN, (1,)), (1,), _builder(800)
    )
    pool.swap_out(page)
    assert pool.bytes_swapped == 800
    pool.reserve_private(100, 400)
    pool.swap_private_out(100, 400)
    pool.swap_private_in(100, 400)
    with pytest.raises(ValueError, match="double swap-in"):
        pool.swap_private_in(100, 400)
    pool.check_budget()

    # check_budget also fails loudly on negative counters (drift that a
    # guard-free path could have caused).
    pool.bytes_swapped = -4
    with pytest.raises(RuntimeError, match="negative"):
        pool.check_budget()


def test_request_kv_release_double_free_raises(parts):
    """A second release() is a loud error — re-running tail promotion
    would register a corrupt zero-byte page into the chain."""
    spec, model, calib = parts
    backend = Fp16KVBackend(1, 32)
    pool = PagedKVPool(byte_budget=10**6, page_tokens=8)
    kv = backend.create_request(pool, np.arange(11))
    rng = np.random.default_rng(3)
    kv.begin_chunk(0, 11)
    kv.ingest_chunk(
        0, rng.standard_normal((11, 32)), rng.standard_normal((11, 32))
    )
    kv.commit_chunk()
    pages_before = pool.stats["pages_allocated"]
    kv.release()
    assert pool.stats["pages_allocated"] == pages_before + 1  # tail page
    with pytest.raises(RuntimeError, match="double free"):
        kv.release()
    with pytest.raises(RuntimeError, match="already released"):
        kv.swap_out()
    assert pool.stats["pages_allocated"] == pages_before + 1
    pool.check_budget()


# ----------------------------------------------------------------------
# Tentpole (2): tail promotion at release, byte-identical.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("backend_cls", [EccoKVBackend, Fp16KVBackend])
def test_tail_promotion_is_byte_identical_to_fresh_encode(parts, backend_cls):
    """The page promoted from a released request's partial tail holds
    exactly the bytes a fresh encode of the same token rows produces,
    and is addressable by extending the request's hash chain."""
    spec, model, calib = parts
    num_layers, d = 2, 64
    T, P, DECODE = 13, 8, 2
    rng = np.random.default_rng(5)
    prompt = rng.integers(0, 50, size=T)
    backend = backend_cls(num_layers, d, calib)
    pool = PagedKVPool(byte_budget=10**7, page_tokens=P)
    kv = backend.create_request(pool, prompt)
    raw = {
        layer: (
            rng.standard_normal((T + DECODE, d)).astype(np.float32),
            rng.standard_normal((T + DECODE, d)).astype(np.float32),
        )
        for layer in range(num_layers)
    }
    kv.begin_chunk(0, T)
    for layer in range(num_layers):
        kv.ingest_chunk(layer, raw[layer][0][:T], raw[layer][1][:T])
    kv.commit_chunk()
    for step in range(DECODE):
        for layer in range(num_layers):
            k_row, v_row = raw[layer][0][T + step], raw[layer][1][T + step]
            kv.append_token_layer(
                layer, k_row, v_row,
                *backend.encode_pair(layer, k_row[None], v_row[None]),
            )
        kv.commit_token(90 + step)

    tail_ids = list(prompt[P:]) + [90, 91]
    full_page = kv.pages[0]
    kv.release()
    assert pool.private_bytes == 0 and pool.bytes_active == 0

    # The tail survived as a chain-addressable cached page...
    tail_chain = chain_hash(full_page.chain, tail_ids)
    tail_page = pool.peek(tail_chain)
    assert tail_page is not None
    assert tail_page.token_ids == tuple(tail_ids)
    assert tail_page.parent == full_page.chain
    # ...and a prefix walk over the full history finds everything.
    matched = pool.match_prefix(list(prompt) + [90, 91, 99])
    assert [p.chain for p in matched] == [full_page.chain, tail_chain]

    # Byte identity vs a fresh encode of the same rows.
    for layer in range(num_layers):
        rows_k = raw[layer][0][P:]
        rows_v = raw[layer][1][P:]
        got_k, got_v = tail_page.payload[layer]
        if backend_cls is EccoKVBackend:
            key_codec, value_codec = backend.codecs[layer]
            assert np.array_equal(
                got_k.blocks, key_codec.encode_tokens(rows_k).blocks
            )
            assert np.array_equal(
                got_v.blocks, value_codec.encode_tokens(rows_v).blocks
            )
        else:
            assert np.array_equal(got_k, rows_k.astype(np.float16))
            assert np.array_equal(got_v, rows_v.astype(np.float16))
    pool.check_budget()


# ----------------------------------------------------------------------
# Sessions: cross-turn reuse end to end.
# ----------------------------------------------------------------------

def test_session_turns_attach_full_history_and_stay_bit_exact(parts):
    """Turn N+1 attaches every stored token of turn N (full pages plus
    the promoted tail), forwards only the new suffix, and the decoded KV
    after three turns is bit-exact against one single-stream reference
    fed the recorded raw K/V of all turns."""
    spec, model, calib = parts
    rng = np.random.default_rng(11)
    engine = ServingEngine(
        model,
        calib,
        byte_budget=300_000,
        page_tokens=8,
        record_reference=True,
    )
    session = Session(engine, "chat-0")
    for _ in range(3):
        session.submit_turn(
            rng.integers(0, spec.vocab_size, size=11), max_new_tokens=5
        )
        engine.run()
    first, *rest = session.requests
    assert first.metrics.cached_tokens == 0
    for prev, request in zip(session.requests, rest):
        # The cache held prev's prompt + all generated tokens but the
        # final one (its KV row is never appended); attach got it all.
        assert request.metrics.cached_tokens == prev.kv.num_tokens
        # Re-encoded: the 11 new user tokens plus prev's final generated
        # token (whose KV row a finished decode never appended).
        assert request.prompt_len - request.metrics.cached_tokens == 12
        assert request.metrics.cached_pages > 0
        assert request.session_id == "chat-0"
    report = engine.report(0.0)
    assert report["warm_prefills"] == 2
    assert report["prefix_tokens_reused"] == sum(
        r.metrics.cached_tokens for r in rest
    )
    assert report["pool"]["budget_overruns"] == 0
    assert report["pool"]["shared_fp16_bytes_saved"] > 0
    assert engine.pool.unreachable_cached_pages() == []

    # Bit-exactness: warm turns record only their forwarded suffix; the
    # audit holds every attached row to the turn that encoded it.
    assert engine.audit_kv() == []


def test_warm_turns_beat_cold_ttft_under_synchronous_charging(parts):
    """With the engine charging its own virtual clock, a warm turn's
    TTFT (suffix-only prefill) sits well below the cold re-prefill of
    the same conversation on a reuse-disabled engine."""
    spec, model, calib = parts
    traces = generate_sessions(
        seed=7, num_sessions=4, vocab_size=spec.vocab_size, max_turns=4
    )
    reports = {}
    for reuse in (True, False):
        clock = VirtualClock()
        engine = ServingEngine(
            model,
            calib,
            byte_budget=400_000,
            page_tokens=8,
            prefix_reuse=reuse,
            step_cost=StepCostModel(),
            clock=clock,
        )
        replay = replay_sessions(engine, traces, clock)
        assert replay["turns_rejected"] == 0
        summary = summarize_turns(
            [t for s in replay["sessions"] for t in s.turn_reports()]
        )
        assert engine.pool.snapshot()["budget_overruns"] == 0
        reports[reuse] = summary
    warm = reports[True]
    cold = reports[False]
    assert warm["warm_turns"] > 0 and cold["warm_turns"] == 0
    assert warm["prefix_tokens_reused"] > 0
    assert warm["prompt_tokens_reencoded"] < cold["prompt_tokens"]
    # Same turns, same clock model: reuse must cut follow-up TTFT hard.
    assert warm["ttft_s_mean_warm"] < 0.5 * cold["ttft_s_mean_cold"]


def test_session_rejects_overlapping_turns_and_folds_history(parts):
    spec, model, calib = parts
    engine = ServingEngine(model, calib, byte_budget=200_000, page_tokens=8)
    session = Session(engine, "s")
    rng = np.random.default_rng(2)
    first = session.submit_turn(
        rng.integers(0, spec.vocab_size, size=9), max_new_tokens=3
    )
    with pytest.raises(RuntimeError, match="still in flight"):
        session.submit_turn(
            rng.integers(0, spec.vocab_size, size=4), max_new_tokens=2
        )
    engine.run()
    second = session.submit_turn(
        rng.integers(0, spec.vocab_size, size=4), max_new_tokens=2
    )
    want = np.concatenate([first.prompt, np.asarray(first.generated)])
    assert np.array_equal(second.prompt[:-4], want)
    assert second.request_id == "s/turn-1"
    engine.run()


def test_cluster_pins_sessions_to_one_replica(parts):
    spec, model, calib = parts
    clock = VirtualClock()
    engines = [
        ServingEngine(model, calib, byte_budget=200_000, page_tokens=8, clock=clock)
        for _ in range(2)
    ]
    cluster = ClusterRouter(engines)
    traces = generate_sessions(
        seed=9, num_sessions=4, vocab_size=spec.vocab_size, max_turns=4
    )
    replay = replay_sessions(cluster, traces, clock, step_cost=StepCostModel())
    for session in replay["sessions"]:
        assert len({r.replica for r in session.requests}) == 1
    report = cluster.report(clock())
    assert report["routing"]["session_pins"] == len(traces)
    assert report["routing"]["session_hits"] == replay["turns_submitted"] - len(
        traces
    )
    # Follow-up turns landed on the replica holding their history.
    assert report["prefix_tokens_reused"] > 0
    assert report["ttft_s_mean_warm"] is not None


def test_cluster_refuses_self_charging_replicas(parts):
    spec, model, calib = parts
    engine = ServingEngine(
        model, calib, byte_budget=100_000, step_cost=StepCostModel(),
        clock=VirtualClock(),
    )
    with pytest.raises(ValueError, match="serialize"):
        ClusterRouter([engine])


def test_double_charging_is_refused_by_the_frontend_constructor(parts):
    """A self-charging engine plus a pump-side ``step_cost`` would
    charge every step twice: the front-end constructor refuses the pair
    instead of dropping the argument, ``replay_sessions`` gets the
    refusal from it, and a timed trace refuses a self-charging target
    outright."""
    spec, model, calib = parts

    def engine(**kwargs):
        clock = VirtualClock()
        return clock, ServingEngine(
            model, calib, byte_budget=100_000, clock=clock, **kwargs
        )

    _, charging = engine(step_cost=StepCostModel())
    with pytest.raises(ValueError, match="double-count"):
        AsyncServingEngine(charging, step_cost=StepCostModel())
    # Either side alone is fine.
    AsyncServingEngine(charging)
    AsyncServingEngine(engine()[1], step_cost=StepCostModel())

    traces = generate_sessions(
        seed=3, num_sessions=1, vocab_size=spec.vocab_size, max_turns=2
    )
    clock, charging = engine(step_cost=StepCostModel())
    with pytest.raises(ValueError, match="double-count"):
        replay_sessions(charging, traces, clock, step_cost=StepCostModel())
    assert replay_sessions(charging, traces, clock)["turns_rejected"] == 0
    with pytest.raises(ValueError, match="double-count"):
        replay_trace(charging, [], clock)


def test_replay_only_swallows_budget_rejections(parts):
    """Re-replaying the same traces against one engine must fail loudly
    on the duplicate request IDs — only capacity rejections
    (BudgetExceededError) are counted as 429-style rejects."""
    spec, model, calib = parts
    traces = generate_sessions(
        seed=13, num_sessions=2, vocab_size=spec.vocab_size, max_turns=3
    )
    clock = VirtualClock()
    engine = ServingEngine(model, calib, byte_budget=300_000, clock=clock)
    first = replay_sessions(engine, traces, clock, step_cost=StepCostModel())
    assert first["turns_rejected"] == 0
    with pytest.raises(ValueError, match="duplicate request_id"):
        replay_sessions(engine, traces, clock, step_cost=StepCostModel())
    # A pool both conversations outgrow (16 kB = 64 tokens): the turn
    # that can never fit is rejected at submit and counted, and it ends
    # its session — the turns after it need its reply.
    clock = VirtualClock()
    tight = ServingEngine(model, calib, byte_budget=16_384, clock=clock)
    result = replay_sessions(tight, traces, clock, step_cost=StepCostModel())
    turns = [session.num_turns for session in result["sessions"]]
    assert all(n < trace.num_turns for n, trace in zip(turns, traces))
    assert result["turns_rejected"] == 2
    assert result["turns_submitted"] == sum(turns) > 0
    assert tight.report(clock())["finished"] == sum(turns)


def test_engine_refuses_step_cost_on_a_wall_clock(parts):
    spec, model, calib = parts
    with pytest.raises(ValueError, match="advanceable clock"):
        ServingEngine(
            model, calib, byte_budget=100_000, step_cost=StepCostModel()
        )


def test_replay_stops_a_session_whose_turn_is_shed_at_admission(parts):
    """Under a deadline policy a turn whose TTFT objective is already
    blown when it reaches admission is shed; the replay counts it and
    the session goes no further."""
    spec, model, calib = parts
    traces = generate_sessions(
        seed=19, num_sessions=2, min_turns=2, max_turns=2,
        start_window_s=1e-9, vocab_size=spec.vocab_size,
    )
    clock = VirtualClock()
    engine = ServingEngine(
        model,
        calib,
        byte_budget=300_000,
        # One at a time: whoever is admitted second has waited out the
        # other's whole prefill (>= 0.1 s) against a 0.05 s TTFT.
        max_batch_size=1,
        policy=DeadlinePolicy(default_slo=SLO(ttft_s=0.05)),
        clock=clock,
    )
    result = replay_sessions(
        engine, traces, clock,
        step_cost=StepCostModel(compute_s_per_token=1e-2),
    )
    served, shed = result["sessions"]
    assert shed.requests[-1].state is RequestState.SHED
    assert (served.num_turns, shed.num_turns) == (2, 1)
    assert (result["turns_submitted"], result["turns_rejected"]) == (3, 1)
    report = engine.report(clock())
    assert (report["finished"], report["shed_requests"]) == (2, 1)
