"""Tier-0 tests for the event-driven serving core.

Covers the async streaming front-end (token streams, virtual-time
determinism, bit-exactness vs the synchronous engine), SLO-aware
admission (the deadline policy must beat FCFS on tail TTFT under a
bursty trace by shedding already-late work), per-tenant rate limits and
weighted fairness, client retry/timeout modeling (a retry storm must
converge with a bounded shed rate and zero budget overruns), and the
satellite guards: clock monotonicity, idempotent step charging, seeded
cluster tie-breaking, empty-batch routing, and percentile reporting.
"""

import numpy as np
import asyncio

import pytest

from repro.llm import ProxyModel, calibrate, get_proxy_spec
from repro.serve import (
    SLO,
    AsyncServingEngine,
    ClusterRouter,
    DeadlinePolicy,
    FCFSPolicy,
    Request,
    RequestShedError,
    RequestState,
    RequestTimeoutError,
    RetryPolicy,
    ServingEngine,
    StepCostModel,
    TraceRequest,
    VirtualClock,
    WorkloadConfig,
    generate_trace,
    latency_percentiles,
    next_deadline_s,
    replay_open_loop,
    replay_trace,
    slack_s,
    slo_attainment,
)
from repro.serve.scheduler import make_policy


@pytest.fixture(scope="module")
def parts():
    spec = get_proxy_spec("proxy-small")
    model = ProxyModel(spec, seed=1)
    rng = np.random.default_rng(0)
    calib = calibrate(model, rng.integers(0, spec.vocab_size, size=(8, 33)))
    return spec, model, calib


def make_engine(parts, clock, **overrides):
    spec, model, calib = parts
    kwargs = dict(
        storage="ecco",
        byte_budget=120_000,
        page_tokens=8,
        max_batch_size=4,
        clock=clock,
    )
    kwargs.update(overrides)
    return ServingEngine(model, calib, **kwargs)


# ----------------------------------------------------------------------
# SLO math and policy plumbing.
# ----------------------------------------------------------------------

def test_slo_deadlines_slack_and_attainment():
    with pytest.raises(ValueError):
        SLO(ttft_s=-1.0)
    assert not SLO().has_deadline

    request = Request("r", np.arange(4), max_new_tokens=4)
    request.metrics.arrival_s = 10.0
    assert next_deadline_s(request) == np.inf  # no SLO: never due

    request.slo = SLO(ttft_s=0.5, inter_token_s=0.2, e2e_s=5.0)
    # Before the first token the TTFT deadline binds.
    assert next_deadline_s(request) == pytest.approx(10.5)
    assert slack_s(request, 10.1) == pytest.approx(0.4)
    # After a token the inter-token deadline binds (e2e still capped).
    request.metrics.first_token_s = 10.3
    request.metrics.token_s = [10.3]
    assert next_deadline_s(request) == pytest.approx(10.5)
    request.metrics.token_s = [10.3, 10.4]
    assert next_deadline_s(request) == pytest.approx(10.6)

    # Attainment counts: TTFT met, one inter-token gap blown.
    request.metrics.token_s = [10.3, 10.4, 10.9]
    stats = slo_attainment([request])
    assert stats["slo_requests"] == 1
    assert stats["slo_ttft_met"] == 1
    assert stats["slo_itl_missed"] == 1
    assert stats["slo_ttft_attainment"] == 1.0


def test_make_policy_resolves_names_and_instances():
    assert isinstance(make_policy("fcfs"), FCFSPolicy)
    assert isinstance(make_policy("deadline"), DeadlinePolicy)
    custom = DeadlinePolicy(default_slo=SLO(ttft_s=1.0))
    assert make_policy(custom) is custom
    with pytest.raises(KeyError):
        make_policy("lifo")
    with pytest.raises(TypeError):
        make_policy(42)


def test_deadline_policy_preempts_the_request_with_most_slack():
    def request(name, arrival_s, slo=None):
        made = Request(name, np.arange(4), max_new_tokens=4, slo=slo)
        made.metrics.arrival_s = arrival_s
        return made

    policy = DeadlinePolicy()
    tight = request("tight", 0.5, SLO(ttft_s=0.3))  # due 0.8, youngest
    loose = request("loose", 0.2, SLO(ttft_s=2.0))  # due 2.2
    mid = request("mid", 0.0, SLO(ttft_s=1.0))  # due 1.0
    # Most slack goes first, not FCFS's youngest.
    assert policy.pick_victim([tight, loose, mid], now=0.6) is loose
    assert FCFSPolicy().pick_victim([tight, loose, mid], now=0.6) is tight

    # No SLO and no default: infinite slack, preempted before any
    # request that has a deadline to miss.
    free_old = request("free-old", 0.1)
    assert policy.pick_victim([tight, loose, free_old], now=0.6) is free_old

    # Equal slack (both infinite; both due at 1.0) falls back to the
    # youngest arrival, which is FCFS's choice.
    free_young = request("free-young", 0.4)
    assert policy.pick_victim([free_old, free_young], now=0.6) is free_young
    also_mid = request("also-mid", 0.5, SLO(ttft_s=0.5))  # due 1.0
    for candidates in ([mid, also_mid], [also_mid, mid]):
        assert policy.pick_victim(candidates, now=0.6) is also_mid
        assert FCFSPolicy().pick_victim(candidates, now=0.6) is also_mid

    # A default SLO gives SLO-less requests a deadline (arrival + 0.5),
    # so they stop being the automatic victim.
    blanket = DeadlinePolicy(default_slo=SLO(ttft_s=0.5))
    assert blanket.pick_victim([tight, loose, free_old], now=0.55) is loose
    # free-old is due at 0.6: 0.05 s of slack against tight's 0.25.
    assert blanket.pick_victim([tight, free_old], now=0.55) is tight
    # ... while a request's own SLO still wins over the default.
    assert blanket.pick_victim([loose, free_young], now=0.55) is loose


def test_virtual_clock_refuses_backwards_and_nan():
    clock = VirtualClock()
    clock.advance(1.5)
    with pytest.raises(ValueError):
        clock.advance(-1e-9)
    with pytest.raises(ValueError):
        clock.advance(float("nan"))
    with pytest.raises(ValueError):
        clock.jump_to(float("nan"))
    clock.jump_to(0.5)  # backwards jump clamps, never rewinds
    assert clock() == pytest.approx(1.5)


def test_latency_percentile_keys_always_present():
    empty = latency_percentiles([], "ttft_s")
    assert set(empty) == {"ttft_s_p50", "ttft_s_p95", "ttft_s_p99"}
    assert all(v is None for v in empty.values())
    filled = latency_percentiles(list(range(1, 101)), "e2e_s")
    assert filled["e2e_s_p50"] == pytest.approx(50.5)
    assert filled["e2e_s_p99"] < 100


# ----------------------------------------------------------------------
# Async front-end: streaming, determinism, bit-exactness.
# ----------------------------------------------------------------------

def test_async_streaming_is_bit_exact_vs_sync_engine(parts):
    """The front-end only reorders *waiting*: the same submissions in
    the same order must generate identical tokens through the async
    path, stream them in generation order, and leave decoded KV
    bit-exact against a single-stream reference."""
    spec, _, _ = parts
    rng = np.random.default_rng(3)
    prompts = [
        rng.integers(0, spec.vocab_size, size=n) for n in (12, 9, 17, 11)
    ]

    sync_engine = make_engine(parts, VirtualClock())
    sync_requests = [
        sync_engine.submit(p, max_new_tokens=6, request_id=f"r{i}")
        for i, p in enumerate(prompts)
    ]
    sync_engine.run()

    clock = VirtualClock()
    engine = make_engine(parts, clock, record_reference=True)
    frontend = AsyncServingEngine(engine)
    streamed: dict[str, list[int]] = {}

    async def client(i, prompt):
        handle = frontend.submit(prompt, max_new_tokens=6, request_id=f"r{i}")
        tokens = []
        async for token in handle:
            tokens.append(token)
        streamed[f"r{i}"] = tokens

    frontend.drive(*(client(i, p) for i, p in enumerate(prompts)))

    requests = {r.request_id: r for r in engine.requests}
    for i, sync_request in enumerate(sync_requests):
        request = requests[f"r{i}"]
        assert request.state is RequestState.FINISHED
        assert streamed[f"r{i}"] == request.generated  # stream == record
        assert request.generated == sync_request.generated
    assert clock() > 0.0  # the pump charged simulated time

    # Decoded KV through the async path == single-stream reference.
    assert engine.audit_kv() == []


def test_frontend_replay_is_deterministic(parts):
    """Two identical replays through the async front-end produce the
    same steps, the same simulated timeline and the same per-request
    latencies — asyncio interleaving must not leak nondeterminism."""
    spec, _, _ = parts
    trace = generate_trace(
        WorkloadConfig(
            duration_s=4.0, rate_rps=2.0, vocab_size=spec.vocab_size,
            max_tokens=16,
        ),
        seed=11,
    )

    def run():
        clock = VirtualClock()
        engine = make_engine(parts, clock)
        totals = replay_trace(engine, trace, clock)
        ttfts = sorted(
            r.metrics.ttft_s
            for r in engine.requests
            if r.metrics.ttft_s is not None
        )
        return totals, ttfts

    first, second = run(), run()
    assert first == second


def test_stream_timeout_abandons_client_but_engine_finishes(parts):
    """An impatient client times out and walks away; the engine is not
    interrupted — the request still runs to completion as wasted work."""
    spec, _, _ = parts
    clock = VirtualClock()
    engine = make_engine(parts, clock)
    frontend = AsyncServingEngine(engine)
    prompt = np.arange(24) % spec.vocab_size

    async def impatient():
        handle = frontend.submit(prompt, max_new_tokens=12)
        with pytest.raises(RequestTimeoutError):
            await handle.result(timeout_s=1e-4)
        return handle

    (handle,) = frontend.drive(impatient())
    assert handle.status == "timeout"
    assert handle.request.state is RequestState.FINISHED  # drained anyway
    assert frontend.report()["timeouts"] == 1


# ----------------------------------------------------------------------
# SLO-aware admission: deadline policy vs FCFS.
# ----------------------------------------------------------------------

def _bursty_slo_trace(spec, slo):
    trace = generate_trace(
        WorkloadConfig(
            duration_s=8.0,
            rate_rps=6.0,
            arrivals="bursty",
            vocab_size=spec.vocab_size,
            max_tokens=24,
        ),
        seed=5,
    )
    for item in trace:
        item.slo = slo
    return trace


def test_deadline_policy_cuts_p95_ttft_on_bursty_trace(parts):
    """The A/B the tentpole exists for: under a bursty overload, EDF
    admission plus shed-when-late must cut the served tail TTFT vs
    FCFS, at the price of explicitly shedding already-late requests
    (which FCFS serves uselessly late instead)."""
    spec, _, _ = parts
    slo = SLO(ttft_s=0.2)
    # A slower roofline than the default: the proxy models are so small
    # that the default charges never queue anything long enough to blow
    # a deadline.
    step_cost = StepCostModel(compute_s_per_token=1e-2)
    reports = {}
    for policy in ("fcfs", "deadline"):
        clock = VirtualClock()
        engine = make_engine(parts, clock, policy=policy)
        trace = _bursty_slo_trace(spec, slo)
        totals = replay_trace(engine, trace, clock, step_cost=step_cost)
        report = engine.report(clock())
        report["_totals"] = totals
        reports[policy] = report

    fcfs, deadline = reports["fcfs"], reports["deadline"]
    assert fcfs["shed_requests"] == 0  # FCFS never sheds
    assert deadline["shed_requests"] > 0  # deadline actually shed load
    # Every submitted request is accounted for: finished or shed.
    assert (
        deadline["finished"] + deadline["shed_requests"]
        == deadline["_totals"]["submitted"]
    )
    assert deadline["ttft_s_p95"] < fcfs["ttft_s_p95"]
    assert deadline["slo_ttft_attainment"] > fcfs["slo_ttft_attainment"]
    assert fcfs["pool"]["budget_overruns"] == 0
    assert deadline["pool"]["budget_overruns"] == 0


# ----------------------------------------------------------------------
# Tenant rate limits and weighted fairness.
# ----------------------------------------------------------------------

def test_aggressive_tenant_cannot_starve_polite_tenant(parts):
    """Both tenants flood at t=0 with equal weights; stride fairness
    must interleave admissions, so the polite tenant's queue wait stays
    comparable to the aggressive one's share — not behind its whole
    backlog."""
    spec, _, _ = parts
    rng = np.random.default_rng(7)
    clock = VirtualClock()
    engine = make_engine(parts, clock, byte_budget=200_000)
    frontend = AsyncServingEngine(engine, max_pending=1)
    frontend.add_tenant("aggressive", weight=1.0)
    frontend.add_tenant("polite", weight=1.0)

    async def flood(tenant, count):
        handles = []
        for _ in range(count):
            handles.append(
                frontend.submit(
                    rng.integers(0, spec.vocab_size, size=10),
                    max_new_tokens=4,
                    tenant=tenant,
                )
            )
        for handle in handles:
            await handle.result()

    frontend.drive(flood("aggressive", 12), flood("polite", 4))
    tenants = frontend.report()["tenants"]
    assert tenants["aggressive"]["accepted"] == 12
    assert tenants["polite"]["accepted"] == 4
    # The polite tenant waits for its fair-share slice, not the whole
    # aggressive backlog: its worst wait must come in clearly under the
    # aggressive tenant's (which queues behind its own flood).
    assert (
        tenants["polite"]["wait_s_max"]
        < 0.67 * tenants["aggressive"]["wait_s_max"]
    )


def test_tenant_token_rate_limit_throttles_only_that_tenant(parts):
    spec, _, _ = parts
    rng = np.random.default_rng(8)
    clock = VirtualClock()
    engine = make_engine(parts, clock, byte_budget=200_000)
    frontend = AsyncServingEngine(engine)
    frontend.add_tenant("limited", rate_tokens_per_s=40.0, burst_tokens=40.0)
    frontend.add_tenant("free")

    async def burst(tenant, count):
        handles = [
            frontend.submit(
                rng.integers(0, spec.vocab_size, size=12),
                max_new_tokens=4,
                tenant=tenant,
            )
            for _ in range(count)
        ]
        for handle in handles:
            await handle.result()

    frontend.drive(burst("limited", 4), burst("free", 4))
    tenants = frontend.report()["tenants"]
    # Each limited request costs 16 tokens against a 40-token bucket at
    # 40 tok/s: the burst must spread out over rate refills.
    assert tenants["limited"]["wait_s_max"] > 0.1
    assert tenants["free"]["wait_s_max"] == 0.0
    assert tenants["limited"]["accepted"] == 4  # throttled, not dropped


# ----------------------------------------------------------------------
# Retry storms.
# ----------------------------------------------------------------------

def test_retry_storm_converges_with_bounded_shed_and_no_overruns(parts):
    """Impatient clients + a queue-limited front door: timed-out and
    shed attempts come back with exponential backoff, and the system
    must converge — every client terminates, shed rate stays bounded,
    and the pool's byte budget is never overrun."""
    spec, _, _ = parts
    trace = generate_trace(
        WorkloadConfig(
            duration_s=6.0,
            rate_rps=8.0,
            arrivals="bursty",
            vocab_size=spec.vocab_size,
            max_tokens=16,
        ),
        seed=13,
    )
    # One arrival the 90 kB pool can never hold (256 B a token): every
    # attempt that gets past the front door is rejected, the 429 path.
    trace.append(
        TraceRequest(3.0, np.zeros(400, dtype=np.int64), max_new_tokens=4)
    )
    # Slowed roofline + a one-deep front door: bursts overflow into
    # sheds and client timeouts, which retry with backoff.
    step_cost = StepCostModel(compute_s_per_token=1e-2)
    retry = RetryPolicy(
        max_attempts=4, timeout_s=0.6, base_backoff_s=0.2, jitter=0.5
    )

    def run():
        clock = VirtualClock()
        engine = make_engine(parts, clock, byte_budget=90_000)
        frontend = AsyncServingEngine(
            engine, step_cost=step_cost, max_queue_depth=1, max_pending=1
        )
        result = replay_open_loop(
            frontend, trace, clock, retry=retry, seed=21
        )
        return result, engine, clock

    result, engine, clock = run()

    # Convergence: every open-loop client reached a terminal outcome
    # and the engine drained within the step bound.
    assert result["completed"] + result["gave_up"] == result["trace_requests"]
    assert result["completed"] > 0
    assert result["retries"] > 0  # the storm actually stormed
    assert result["timeouts"] > 0  # ...with impatient clients timing out
    assert result["shed"] > 0  # ...and the front door turning load away
    assert result["rejected"] == result["frontend"]["rejected_429"] > 0
    assert result["attempts"] <= result["trace_requests"] * retry.max_attempts
    # Bounded shedding: backoff spread the storm out instead of letting
    # it collapse into rejecting everything.
    assert result["frontend"]["shed_rate"] < 0.5
    assert engine.report(clock())["pool"]["budget_overruns"] == 0

    # Determinism: the identical storm replays to identical totals.
    result2, _, _ = run()
    assert result2 == result


# ----------------------------------------------------------------------
# The pump under failure.
# ----------------------------------------------------------------------

def test_pump_crash_fails_every_stream_and_the_frontend_stays_down(parts):
    """``engine.step()`` raising mid-pump surfaces from ``serve`` — and
    every open stream, dispatched or still queued, ends with that error,
    so nobody holding a handle waits forever.  The engine was left
    mid-step, so the front-end refuses to serve again."""
    spec, _, _ = parts
    engine = make_engine(parts, VirtualClock())
    frontend = AsyncServingEngine(engine, max_pending=1)
    plain_step, handles = engine.step, []

    def step_then_boom():
        engine.step = boom
        return plain_step()

    def boom():
        raise RuntimeError("boom in step")

    engine.step = step_then_boom

    async def client(seed):
        prompt = np.random.default_rng(seed).integers(0, spec.vocab_size, 12)
        handles.append(frontend.submit(prompt, max_new_tokens=8))
        return await handles[-1].result()

    async def bounded(awaitable):
        # A hang is a failure of the test, not a timeout of the suite.
        return await asyncio.wait_for(awaitable, timeout=30.0)

    with pytest.raises(RuntimeError, match="boom in step"):
        asyncio.run(bounded(frontend.serve(client(0), client(1), client(2))))
    # max_pending=1 held the last one back in its tenant queue.
    assert [h.request is None for h in handles] == [False, False, True]
    for handle in handles:
        assert handle.status == "failed" and handle.done
        with pytest.raises(RuntimeError, match="boom in step"):
            asyncio.run(bounded(handle.result()))
    assert frontend.queue_depth == 0
    with pytest.raises(RuntimeError, match="crashed earlier"):
        frontend.drive()


# ----------------------------------------------------------------------
# Cluster satellite: tie-breaking.
# ----------------------------------------------------------------------

def test_cluster_tiebreak_lowest_index_wins(parts):
    spec, _, _ = parts
    cluster = ClusterRouter(
        [
            make_engine(parts, VirtualClock(), byte_budget=100_000)
            for _ in range(3)
        ]
    )
    rng = np.random.default_rng(17)
    # Equal-length unique prompts, drained between submissions, so
    # every routing decision is a clean three-way tie.
    for _ in range(8):
        prompt = rng.integers(0, spec.vocab_size, size=10)
        assert cluster.submit(prompt, max_new_tokens=2).replica == 0
        while cluster.has_work:
            cluster.step()
