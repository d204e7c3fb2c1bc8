"""SLO-aware serving through the async front-end: deadline vs FCFS.

The same bursty trace, annotated with a per-request TTFT objective, is
replayed through the event-driven front-end against two identically
provisioned engines that differ only in scheduling policy: FCFS (serve
everything in arrival order, however late) and deadline (EDF admission,
shed requests whose SLO is already blown).  Under burst overload FCFS
drags every queued request past its deadline; the deadline policy
sacrifices the already-lost head of the queue so the survivors' tail
TTFT stays inside the objective — that trade (served-tail latency and
attainment vs explicit shed count) is the headline table.  A third run
sends the same overload through impatient open-loop clients with
timeouts and seeded exponential-backoff retries against a depth-limited
front door: the retry storm must converge with a bounded shed rate and
zero budget overruns.  Scheduling must never change bytes — the
deadline run's decoded KV is audited bit-exact against a single-stream
reference through the async path.

Writes ``results/slo_serving.json``.
"""

import pytest

from _report import check_baseline, write_report
from repro.obs import TraceRecorder, write_chrome_trace
from repro.serve import (
    SLO,
    AsyncServingEngine,
    RequestState,
    RetryPolicy,
    ServingEngine,
    StepCostModel,
    VirtualClock,
    WorkloadConfig,
    generate_trace,
    replay_open_loop,
    replay_trace,
)

BYTE_BUDGET = 150_000
PAGE_TOKENS = 8
MAX_BATCH = 4
TRACE_SEED = 23
TTFT_SLO_S = 0.2
#: Slowed compute lane: the proxy models are small enough that the
#: default roofline never queues long enough to threaten a deadline.
STEP_COST = StepCostModel(compute_s_per_token=1e-2)


def _slo_trace(spec):
    trace = generate_trace(
        WorkloadConfig(
            duration_s=10.0,
            rate_rps=6.0,
            arrivals="bursty",
            vocab_size=spec.vocab_size,
            page_tokens=PAGE_TOKENS,
            max_tokens=24,
        ),
        seed=TRACE_SEED,
    )
    slo = SLO(ttft_s=TTFT_SLO_S)
    for item in trace:
        item.slo = slo
    return trace


def _engine(model, calib, clock, policy, record=False, recorder=None):
    return ServingEngine(
        model,
        calib,
        storage="ecco",
        byte_budget=BYTE_BUDGET,
        page_tokens=PAGE_TOKENS,
        max_batch_size=MAX_BATCH,
        policy=policy,
        # The raw-KV audit needs cold prefills (a warm attach records no
        # raw prompt rows for the reused span); reuse has its own bench.
        prefix_reuse=False,
        record_reference=record,
        clock=clock,
        recorder=recorder,
    )


@pytest.fixture(scope="module")
def slo_runs(proxy_small, calib_small, trace_out):
    model = proxy_small.model
    trace = _slo_trace(proxy_small.spec)
    runs = {"trace": trace}

    for policy in ("fcfs", "deadline"):
        clock = VirtualClock()
        # --trace-out records the deadline run (the headline policy);
        # tracing is read-only over the clock, so the A/B is unchanged.
        recorder = (
            TraceRecorder(clock)
            if policy == "deadline" and trace_out is not None
            else None
        )
        engine = _engine(
            model, calib_small, clock, policy,
            record=policy == "deadline", recorder=recorder,
        )
        totals = replay_trace(engine, trace, clock, step_cost=STEP_COST)
        if recorder is not None:
            write_chrome_trace(recorder, trace_out("slo_serving"))
        runs[policy] = {
            "engine": engine,
            "totals": totals,
            "report": engine.report(clock()),
        }

    # Retry storm: a shorter near-saturation burst through impatient
    # open-loop clients against a depth-limited front door.  (The A/B
    # trace above is deliberately far past capacity — FCFS must drown —
    # so a storm over it could only collapse; the storm models the
    # regime where backing off actually wins.)
    storm_trace = generate_trace(
        WorkloadConfig(
            duration_s=6.0,
            rate_rps=8.0,
            arrivals="bursty",
            vocab_size=proxy_small.spec.vocab_size,
            page_tokens=PAGE_TOKENS,
            max_tokens=24,
        ),
        seed=TRACE_SEED,
    )
    clock = VirtualClock()
    engine = _engine(model, calib_small, clock, "fcfs")
    frontend = AsyncServingEngine(
        engine, step_cost=STEP_COST, max_queue_depth=2, max_pending=2
    )
    storm = replay_open_loop(
        frontend,
        storm_trace,
        clock,
        retry=RetryPolicy(
            max_attempts=4, timeout_s=0.8, base_backoff_s=0.2, jitter=0.5
        ),
        seed=29,
    )
    runs["storm"] = {
        "engine": engine,
        "result": storm,
        "report": engine.report(clock()),
    }
    return runs


def test_deadline_policy_beats_fcfs_on_tail_ttft(slo_runs):
    """Acceptance: under burst overload the deadline policy cuts served
    p95 TTFT and raises SLO attainment vs FCFS, shedding explicitly."""
    trace = slo_runs["trace"]
    fcfs = slo_runs["fcfs"]["report"]
    deadline = slo_runs["deadline"]["report"]
    storm = slo_runs["storm"]["result"]

    assert fcfs["shed_requests"] == 0
    assert deadline["shed_requests"] > 0
    assert (
        deadline["finished"] + deadline["shed_requests"]
        == slo_runs["deadline"]["totals"]["submitted"]
    )
    assert deadline["ttft_s_p95"] < 0.8 * fcfs["ttft_s_p95"]
    assert deadline["slo_ttft_attainment"] > fcfs["slo_ttft_attainment"]

    data = {
        "trace": {
            "requests": len(trace),
            "seed": TRACE_SEED,
            "arrivals": "bursty",
            "ttft_slo_s": TTFT_SLO_S,
            "byte_budget": BYTE_BUDGET,
            "compute_s_per_token": STEP_COST.compute_s_per_token,
        },
        "fcfs": fcfs,
        "deadline": deadline,
        "storm": storm,
        "ttft_p95_cut": 1.0 - deadline["ttft_s_p95"] / fcfs["ttft_s_p95"],
    }
    write_report(
        "slo_serving",
        [
            f"trace: {len(trace)} bursty requests, TTFT SLO "
            f"{TTFT_SLO_S * 1e3:.0f}ms, budget {BYTE_BUDGET / 1024:.0f} KiB",
            f"TTFT p95: fcfs {fcfs['ttft_s_p95']:.3f}s  deadline "
            f"{deadline['ttft_s_p95']:.3f}s "
            f"({data['ttft_p95_cut']:.0%} cut)",
            f"TTFT attainment: fcfs {fcfs['slo_ttft_attainment']:.2f}  "
            f"deadline {deadline['slo_ttft_attainment']:.2f} "
            f"(shed {deadline['shed_requests']}/{len(trace)})",
            f"retry storm: {storm['completed']}/{storm['trace_requests']} "
            f"completed, {storm['retries']} retries, "
            f"{storm['timeouts']} timeouts, shed rate "
            f"{storm['frontend']['shed_rate']:.2f}",
            f"budget overruns: fcfs "
            f"{fcfs['pool']['budget_overruns']}, deadline "
            f"{deadline['pool']['budget_overruns']}, storm "
            f"{slo_runs['storm']['report']['pool']['budget_overruns']}",
        ],
        data,
    )
    # Virtual-clock A/B and a seeded retry storm: fully deterministic.
    check_baseline(
        "slo_serving",
        data,
        [
            ("ttft_p95_cut", "higher"),
            ("deadline.slo_ttft_attainment", "higher"),
            ("deadline.finished", "higher"),
            ("deadline.pool.budget_overruns", "lower"),
            ("storm.completed", "higher"),
            ("storm.frontend.shed_rate", "lower"),
        ],
    )


def test_retry_storm_converges_without_overruns(slo_runs):
    """Acceptance: every retrying client terminates, shedding stays
    bounded, and the byte budget holds through the whole storm."""
    storm = slo_runs["storm"]["result"]
    assert (
        storm["completed"] + storm["gave_up"] == storm["trace_requests"]
    )
    assert storm["completed"] > 0
    assert storm["retries"] > 0
    assert storm["frontend"]["shed_rate"] < 0.5
    for run in ("fcfs", "deadline", "storm"):
        pool = slo_runs[run]["report"]["pool"]
        assert pool["budget_overruns"] == 0
        assert pool["peak_bytes_resident"] <= pool["byte_budget"]


def test_async_decoded_kv_bit_exact_vs_single_stream(slo_runs):
    """Acceptance: SLO scheduling and the async front-end reorder
    *requests*, never bytes — every served request's decoded KV equals
    a fresh single-stream run over its recorded raw K/V."""
    engine = slo_runs["deadline"]["engine"]
    served = [
        r for r in engine.requests if r.state is RequestState.FINISHED
    ]
    assert served
    assert engine.audit_kv() == []
