"""Trace-driven serving: chunked prefill + cluster routing under bursts.

A bursty, shared-prefix workload (short chats + long RAG preambles +
growing agent loops) is replayed on a virtual clock against the same
engine three ways: unchunked (the whole-prompt prefill path), chunked
(page-aligned prefill slices drawn from a per-step token budget), and a
two-replica cluster of chunked engines behind prefix-affinity routing.
The step cost is a compute-vs-bandwidth roofline, so an unchunked long
prompt stalls its step for the full linear prefill cost while a chunk
rides under the decode batch's bandwidth lane — chunked prefill must
cut both max and mean TTFT.  Throughout, the pool byte budget is a hard
invariant (the engine fails loudly on any overrun; the peak-residency
counter proves no step ever exceeded it), and the chunked run's decoded
KV must stay bit-exact against a single-stream reference.

Writes ``results/workload_traces.json``.
"""

import pytest

from _report import check_baseline, write_report
from repro.obs import TraceRecorder, write_chrome_trace
from repro.serve import (
    ClusterRouter,
    ServingEngine,
    StepCostModel,
    VirtualClock,
    WorkloadConfig,
    generate_trace,
    replay_trace,
)

BYTE_BUDGET = 200_000
PAGE_TOKENS = 8
MAX_BATCH = 16
CHUNK_TOKENS = 32
STEP_TOKEN_BUDGET = 64
TRACE_SEED = 11


def _trace_config(spec) -> WorkloadConfig:
    """Bursty arrivals over a shared-prefix scenario mix: 60% short
    chats, 25% long RAG preambles (10 shared pages — the prompts that
    stall an unchunked batch), 15% agent loops."""
    return WorkloadConfig(
        duration_s=10.0,
        rate_rps=3.0,
        arrivals="bursty",
        vocab_size=spec.vocab_size,
        page_tokens=PAGE_TOKENS,
        mix={"chat": 0.6, "rag": 0.25, "agent": 0.15},
        rag_system_pages=10,
        chat_turn_mean=10.0,
        output_mean=12.0,
        max_tokens=40,
    )


def _engine(model, calib, clock, chunked: bool, recorder=None) -> ServingEngine:
    return ServingEngine(
        model,
        calib,
        storage="ecco",
        byte_budget=BYTE_BUDGET,
        page_tokens=PAGE_TOKENS,
        max_batch_size=MAX_BATCH,
        watermark=0.1,
        prefill_chunk_tokens=CHUNK_TOKENS if chunked else None,
        step_token_budget=STEP_TOKEN_BUDGET if chunked else None,
        # This bench isolates chunked prefill (and its raw-KV audit
        # needs cold prefills — the trace's shared RAG preambles would
        # otherwise attach pages recorded by other requests); reuse has
        # its own bench, bench_session_reuse.py.
        prefix_reuse=False,
        record_reference=chunked,
        clock=clock,
        recorder=recorder,
    )


@pytest.fixture(scope="module")
def workload_runs(proxy_small, calib_small, trace_out):
    """The same bursty trace through unchunked, chunked and cluster."""
    model = proxy_small.model
    trace = generate_trace(_trace_config(proxy_small.spec), seed=TRACE_SEED)
    cost = StepCostModel()
    runs = {}

    for mode in ("unchunked", "chunked"):
        clock = VirtualClock()
        # --trace-out records the chunked run (the headline mode);
        # tracing reads the clock without advancing it, so the A/B
        # comparison is unchanged.
        recorder = (
            TraceRecorder(clock)
            if mode == "chunked" and trace_out is not None
            else None
        )
        engine = _engine(
            model, calib_small, clock,
            chunked=mode == "chunked", recorder=recorder,
        )
        replay = replay_trace(engine, trace, clock, cost)
        if recorder is not None:
            write_chrome_trace(recorder, trace_out("workload_traces"))
        runs[mode] = {
            "engine": engine,
            "replay": replay,
            "report": engine.report(clock()),
        }

    clock = VirtualClock()
    engines = [
        _engine(model, calib_small, clock, chunked=True) for _ in range(2)
    ]
    cluster = ClusterRouter(engines)
    replay = replay_trace(cluster, trace, clock, cost)
    runs["cluster"] = {
        "cluster": cluster,
        "replay": replay,
        "report": cluster.report(clock()),
    }
    runs["trace"] = trace
    return runs


def test_chunked_prefill_cuts_ttft_on_a_bursty_trace(workload_runs):
    """Acceptance: chunked prefill reduces max TTFT vs unchunked on the
    bursty shared-prefix trace, at equal correctness and budget."""
    trace = workload_runs["trace"]
    unchunked = workload_runs["unchunked"]["report"]
    chunked = workload_runs["chunked"]["report"]
    cluster = workload_runs["cluster"]["report"]
    for report in (unchunked, chunked, cluster):
        assert report["finished"] == len(trace)

    assert chunked["prefill_chunks"] > 0
    assert chunked["ttft_s_max"] < 0.85 * unchunked["ttft_s_max"]
    assert chunked["ttft_s_mean"] < unchunked["ttft_s_mean"]
    # Two replicas behind the router do even better than one.
    assert cluster["ttft_s_max"] < chunked["ttft_s_max"]
    assert cluster["routing"]["affinity_hits"] > 0
    assert min(cluster["routing"]["routed"]) > 0

    data = {
        "trace": {
            "requests": len(trace),
            "seed": TRACE_SEED,
            "arrivals": "bursty",
            "max_prompt": int(max(len(t.prompt) for t in trace)),
            "byte_budget": BYTE_BUDGET,
            "prefill_chunk_tokens": CHUNK_TOKENS,
            "step_token_budget": STEP_TOKEN_BUDGET,
        },
        "unchunked": unchunked,
        "chunked": chunked,
        "cluster": {
            key: value
            for key, value in cluster.items()
            if key != "per_replica"
        },
        "cluster_per_replica": cluster["per_replica"],
    }
    write_report(
        "workload_traces",
        [
            f"trace: {len(trace)} bursty requests, longest prompt "
            f"{data['trace']['max_prompt']} tokens, budget "
            f"{BYTE_BUDGET / 1024:.0f} KiB/replica",
            f"TTFT max:  unchunked {unchunked['ttft_s_max']:.3f}s  "
            f"chunked {chunked['ttft_s_max']:.3f}s  "
            f"2-replica cluster {cluster['ttft_s_max']:.3f}s",
            f"TTFT mean: unchunked {unchunked['ttft_s_mean']:.3f}s  "
            f"chunked {chunked['ttft_s_mean']:.3f}s  "
            f"cluster {cluster['ttft_s_mean']:.3f}s",
            f"prefill chunks: {chunked['prefill_chunks']} "
            f"({chunked['chunked_prefill_tokens']} tokens), "
            f"stalls {chunked['prefill_stalls']}",
            f"drain time: unchunked {unchunked['elapsed_s']:.2f}s "
            f"chunked {chunked['elapsed_s']:.2f}s "
            f"cluster {cluster['elapsed_s']:.2f}s (simulated)",
            f"budget overruns: unchunked "
            f"{unchunked['pool']['budget_overruns']}  chunked "
            f"{chunked['pool']['budget_overruns']}  cluster "
            f"{cluster['budget_overruns']} (peak resident "
            f"{chunked['pool']['peak_bytes_resident']} / {BYTE_BUDGET} B)",
            f"cluster routing: {cluster['routing']['routed']} requests "
            f"per replica, {cluster['routing']['affinity_hits']} affinity "
            f"hits, {cluster['routing']['affinity_overrides']} overrides",
        ],
        data,
    )
    # Virtual-clock replay of one seeded bursty trace: counters and
    # simulated latencies are deterministic, the default threshold applies.
    check_baseline(
        "workload_traces",
        data,
        [
            ("unchunked.prefill_forwarded_tokens", "lower"),
            ("chunked.finished", "higher"),
            ("chunked.ttft_s_p95", "lower"),
            ("cluster.finished", "higher"),
            ("cluster.ttft_s_p95", "lower"),
            ("cluster.budget_overruns", "lower"),
        ],
    )


def test_no_step_exceeds_the_byte_budget(workload_runs):
    """The budget held at every allocation of every run: the engine
    would have raised mid-replay otherwise, and the pool's peak
    residency / overrun counters agree."""
    reports = [
        workload_runs["unchunked"]["report"],
        workload_runs["chunked"]["report"],
        *workload_runs["cluster"]["report"]["per_replica"],
    ]
    for report in reports:
        pool = report["pool"]
        assert pool["budget_overruns"] == 0
        assert pool["max_overrun_bytes"] == 0
        assert pool["peak_bytes_resident"] <= pool["byte_budget"]


def test_chunked_decoded_kv_bit_exact_vs_single_stream(workload_runs):
    """Acceptance: chunked prefill changes scheduling, not bytes — every
    finished request's decoded KV equals a fresh single-stream run over
    its recorded raw (pre-quantization) K/V."""
    assert workload_runs["chunked"]["engine"].audit_kv() == []
