"""Tier-0 tests for the observability subsystem (``repro.obs``).

Holds tracing to the three promises the serve stack builds on: it is
*deterministic* (two seeded replays export byte-identical logs), it is
*free when off* (the ``NullRecorder`` path allocates no events and
shares one no-op span), and it *never changes behaviour when on* (a
traced replay produces the same summary and bit-identical decoded KV
as an untraced one).  Plus the registry's histogram edge semantics,
counter read-through, the degenerate-run guards in the engine summary,
and the end-to-end acceptance checks: a Chrome export covering every
lifecycle state and engine phase, and a registry snapshot that agrees
exactly with ``EngineMetrics.summary()``.
"""

import json

import numpy as np
import pytest

from repro.llm import ProxyModel, calibrate, get_proxy_spec
from repro.obs import (
    Histogram,
    MetricsRegistry,
    NullRecorder,
    TraceRecorder,
    chrome_trace,
    load_events,
    summarize,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.trace import _NULL_SPAN
from repro.serve import (
    AsyncServingEngine,
    ServingEngine,
    StepCostModel,
    VirtualClock,
    WorkloadConfig,
    generate_trace,
    replay_trace,
)
from repro.serve.metrics import ENGINE_COUNTERS

ENGINE_PHASES = {"admit", "prefill", "preempt", "decode"}

#: The report surface of the ``pressured_run`` fixture (plus a front-end
#: built on its engine): sorted key lists, generated at the commit
#: before the registry went read-through.  A vanished or new key must
#: fail here — extend the lists in the PR that adds the key.
ENGINE_REPORT_KEYS = """
chunked_prefill_tokens decode_steps decode_tokens e2e_s_mean e2e_s_p50
e2e_s_p95 e2e_s_p99 elapsed_s finished hol_blocked_steps hol_bypasses
inter_token_s_mean inter_token_s_p50 inter_token_s_p95 inter_token_s_p99
mean_batch_occupancy modeled_kv_read_bytes modeled_kv_read_fp16_bytes
modeled_sectors peak_concurrency per_token_nbytes pool preemptions
prefill_chunks prefill_forwarded_tokens prefill_stalls prefills
prefix_pages_reused prefix_partial_attaches prefix_tokens_reused requests
shed_requests slo_itl_attainment slo_itl_met slo_itl_missed slo_requests
slo_ttft_attainment slo_ttft_met slo_ttft_missed split_tokens_salvaged
storage tokens_generated tokens_per_s ttft_s_max ttft_s_mean
ttft_s_mean_cold ttft_s_mean_warm ttft_s_p50 ttft_s_p95 ttft_s_p99
warm_prefills
""".split()
POOL_REPORT_KEYS = """
budget_overruns byte_budget bytes_active bytes_evictable bytes_resident
bytes_swapped bytes_written cached_pages evictions_cascade
evictions_pressure evictions_ttl fp16_bytes_resident leaf_cached_pages
matched_prefix_hist max_overrun_bytes page_tokens pages_allocated
pages_evicted pages_freed pages_shared pages_split peak_bytes_resident
peak_fp16_bytes_resident prefix_cache_hits prefix_full_hits prefix_misses
prefix_partial_hits private_bytes private_swapped_bytes resident_pages
shared_bytes_saved shared_fp16_bytes_saved split_tokens_salvaged
swap_in_bytes swap_out_bytes swapped_pages ttl_s
""".split()
FRONTEND_REPORT_KEYS = """
accepted arrivals queue_depth_mean queue_depth_peak rejected_429
shed_queue_full shed_rate shed_slo steps timeouts tokens_processed
""".split()
REGISTRY_COUNTER_KEYS = """
engine.chunked_prefill_tokens engine.decode_steps engine.decode_tokens
engine.hol_blocked_steps engine.hol_bypasses engine.modeled_kv_read_bytes
engine.modeled_kv_read_fp16_bytes engine.modeled_sectors
engine.peak_concurrency engine.preemptions engine.prefill_chunks
engine.prefill_forwarded_tokens engine.prefill_stalls engine.prefills
engine.prefix_pages_reused engine.prefix_partial_attaches
engine.prefix_tokens_reused engine.shed_requests
engine.split_tokens_salvaged engine.warm_prefills frontend.accepted
frontend.arrivals frontend.queue_depth_peak frontend.queue_depth_samples
frontend.queue_depth_sum frontend.rejected_429 frontend.shed_queue_full
frontend.shed_slo frontend.timeouts pool.budget_overruns
pool.bytes_written pool.evictions_cascade pool.evictions_pressure
pool.evictions_ttl pool.evictions{reason=pressure} pool.max_overrun_bytes
pool.pages_allocated pool.pages_evicted pool.pages_freed pool.pages_shared
pool.pages_split pool.peak_bytes_resident pool.peak_fp16_bytes_resident
pool.prefix_cache_hits pool.prefix_full_hits
pool.prefix_lookups{outcome=miss} pool.prefix_misses
pool.prefix_partial_hits pool.shared_bytes_saved
pool.shared_fp16_bytes_saved pool.split_tokens_salvaged pool.swap_in_bytes
pool.swap_out_bytes
""".split()


@pytest.fixture(scope="module")
def parts():
    spec = get_proxy_spec("proxy-small")
    model = ProxyModel(spec, seed=1)
    rng = np.random.default_rng(0)
    calib = calibrate(model, rng.integers(0, spec.vocab_size, size=(8, 33)))
    return spec, model, calib


def _replay(parts, traced: bool):
    """One seeded chunked replay; ``traced`` switches the recorder."""
    spec, model, calib = parts
    clock = VirtualClock()
    recorder = TraceRecorder(clock) if traced else None
    engine = ServingEngine(
        model,
        calib,
        byte_budget=60_000,
        page_tokens=8,
        max_batch_size=4,
        prefill_chunk_tokens=8,
        step_token_budget=24,
        clock=clock,
        recorder=recorder,
    )
    cfg = WorkloadConfig(
        duration_s=6.0, rate_rps=1.5, vocab_size=spec.vocab_size,
        max_tokens=16,
    )
    trace = generate_trace(cfg, seed=12)
    replay_trace(engine, trace, clock, StepCostModel())
    return engine, clock


@pytest.fixture(scope="module")
def pressured_run(parts):
    """A run under byte pressure: preemptions/swaps are guaranteed, so
    the trace exercises the full lifecycle (waiting, prefilling,
    running, swapped, finished)."""
    spec, model, calib = parts
    rng = np.random.default_rng(42)
    clock = VirtualClock()
    recorder = TraceRecorder(clock)
    engine = ServingEngine(
        model,
        calib,
        storage="ecco",
        byte_budget=20_000,
        page_tokens=8,
        max_batch_size=8,
        watermark=0.1,
        prefill_chunk_tokens=8,
        step_token_budget=24,
        clock=clock,
        recorder=recorder,
    )
    for _ in range(5):
        engine.submit(
            rng.integers(0, spec.vocab_size, size=12), max_new_tokens=20
        )
        clock.advance(2e-3)  # staggered arrivals: waiting time is real
    while engine.scheduler.has_work:
        engine.step()
        clock.advance(1e-3)
    return engine, recorder, clock


# ----------------------------------------------------------------------
# Recorder primitives.
# ----------------------------------------------------------------------

def test_null_recorder_allocates_nothing():
    rec = NullRecorder()
    assert rec.enabled is False
    # One shared no-op span serves every call; the event buffer is the
    # shared empty tuple — nothing per-call, nothing per-instance.
    assert rec.span("decode", "engine/decode") is _NULL_SPAN
    assert rec.span("x", "y") is NullRecorder().span("a", "b")
    with rec.span("decode", "engine/decode", batch=4):
        pass
    rec.instant("evict", "pool", reason="ttl")
    rec.counter("depth", 3, "frontend")
    rec.request_state("req-0", "waiting")
    rec.request_state("req-0", "finished")
    assert rec.events == ()
    assert rec.events is NullRecorder.events
    assert len(rec) == 0
    assert rec.open_state_spans() == []


def test_ring_buffer_drops_oldest_and_counts():
    clock = VirtualClock()
    rec = TraceRecorder(clock, max_events=3)
    for i in range(5):
        rec.instant(f"e{i}", "t")
    assert len(rec) == 3
    assert rec.dropped == 2
    assert [e.name for e in rec.events] == ["e2", "e3", "e4"]
    with pytest.raises(ValueError, match="max_events"):
        TraceRecorder(clock, max_events=0)


def test_request_state_ribbon_is_gap_free():
    clock = VirtualClock()
    rec = TraceRecorder(clock)
    rec.request_state("req-0", "waiting")
    clock.advance(0.5)
    rec.request_state("req-0", "running")
    # Mid-run snapshot: the open running span is synthesized, buffer
    # untouched.
    clock.advance(0.25)
    open_spans = rec.open_state_spans()
    assert [(s.name, s.args["open"]) for s in open_spans] == [
        ("running", True)
    ]
    assert open_spans[0].dur == pytest.approx(0.25)
    clock.advance(0.25)
    rec.request_state("req-0", "finished")
    spans = [e for e in rec.events if e.kind == "span"]
    assert [(s.name, s.ts, s.dur) for s in spans] == [
        ("waiting", 0.0, pytest.approx(0.5)),
        ("running", pytest.approx(0.5), pytest.approx(0.5)),
    ]
    # Terminal state: an instant closes the ribbon, nothing stays open.
    (instant,) = [e for e in rec.events if e.kind == "instant"]
    assert instant.name == "finished"
    assert rec.open_state_spans() == []


# ----------------------------------------------------------------------
# Registry.
# ----------------------------------------------------------------------

def test_histogram_bucket_edges_are_le_inclusive():
    hist = Histogram((0.001, 0.01, 0.1))
    hist.observe(0.0005)   # below the first edge
    hist.observe(0.001)    # == edge: le semantics, lands in that bucket
    hist.observe(0.01)
    hist.observe(0.05)
    hist.observe(0.1)
    hist.observe(0.5)      # past the last edge: overflow
    assert hist.counts == [2, 1, 2, 1]
    assert hist.count == 6
    assert hist.sum == pytest.approx(0.6615)
    assert hist.min == 0.0005
    assert hist.max == 0.5
    with pytest.raises(ValueError, match="strictly increase"):
        Histogram((0.1, 0.1))
    with pytest.raises(ValueError, match="at least one"):
        Histogram(())


def test_registry_labels_form_separate_series():
    reg = MetricsRegistry()
    reg.inc("pool.evictions", reason="ttl")
    reg.inc("pool.evictions", reason="ttl")
    reg.inc("pool.evictions", reason="capacity")
    assert reg.value("pool.evictions", reason="ttl") == 2
    assert reg.value("pool.evictions", reason="capacity") == 1
    assert reg.value("pool.evictions") == 0  # unlabeled is its own series
    reg.define_histogram("request.ttft_s", (0.1, 1.0))
    with pytest.raises(ValueError, match="already defined"):
        reg.define_histogram("request.ttft_s", (0.2, 2.0))
    reg.observe("request.ttft_s", 0.05, tenant="a")
    reg.observe("request.ttft_s", 0.05, tenant="b")
    snap = reg.snapshot()
    assert "request.ttft_s{tenant=a}" in snap["histograms"]
    assert snap["histograms"]["request.ttft_s{tenant=a}"]["count"] == 1
    assert snap["counters"]["pool.evictions{reason=ttl}"] == 2


def test_attached_counters_read_through():
    reg = MetricsRegistry()
    stats = {"hits": 1, "routed": [0, 0]}
    reg.attach("pool.", stats)
    reg.inc("pool.hits", 5, tenant="a")  # labelled series, same family
    assert reg.value("pool.hits") == 1
    assert reg.value("pool.routed", default=None) is None  # non-numeric
    # Writes after the attach are visible: the registry holds no copy.
    stats["hits"] += 2
    stats["late"] = 0.5
    stats["routed"][1] += 1
    assert reg.value("pool.hits") == 3
    assert reg.value("pool.hits", tenant="a") == 5
    assert reg.snapshot()["counters"] == {
        "pool.hits": 3, "pool.hits{tenant=a}": 5, "pool.late": 0.5,
    }
    assert stats == {"hits": 3, "late": 0.5, "routed": [0, 1]}
    # A second attach of the prefix replaces the first.
    reg.attach("pool.", {"misses": 7})
    assert reg.value("pool.hits", default=None) is None
    assert reg.value("pool.misses") == 7


# ----------------------------------------------------------------------
# Determinism and zero-interference (acceptance c).
# ----------------------------------------------------------------------

def test_traced_replay_exports_are_byte_identical(parts, tmp_path):
    files = {}
    for label in ("a", "b"):
        engine, clock = _replay(parts, traced=True)
        jsonl = tmp_path / f"{label}.jsonl"
        chrome = tmp_path / f"{label}.json"
        assert write_jsonl(engine.obs, jsonl) == len(engine.obs.events)
        write_chrome_trace(engine.obs, chrome)
        files[label] = (jsonl.read_bytes(), chrome.read_bytes())
    assert files["a"][0] == files["b"][0]
    assert files["a"][1] == files["b"][1]
    # And the summarizer round-trips both formats to the same answer.
    a_jsonl, a_chrome = (
        summarize(load_events(tmp_path / "a.jsonl")),
        summarize(load_events(tmp_path / "a.json")),
    )
    assert a_jsonl["event_counts"] == a_chrome["event_counts"]
    assert a_jsonl["requests_seen"] == a_chrome["requests_seen"] > 0


def test_tracing_changes_no_summary_and_no_bytes(parts):
    traced, traced_clock = _replay(parts, traced=True)
    plain, plain_clock = _replay(parts, traced=False)
    assert len(traced.obs.events) > 0
    assert plain.obs.events == ()
    # Identical summaries: tracing reads the clock, never advances it.
    summary_t = traced.report(traced_clock())
    summary_p = plain.report(plain_clock())
    assert json.dumps(summary_t, sort_keys=True, default=str) == json.dumps(
        summary_p, sort_keys=True, default=str
    )
    # Bit-identical decoded KV, request for request.
    assert len(traced.requests) == len(plain.requests) > 0
    for rt, rp in zip(traced.requests, plain.requests):
        assert rt.request_id == rp.request_id
        assert rt.generated == rp.generated
        for layer in range(traced.backend.num_layers):
            for side in ("keys", "values"):
                assert np.array_equal(
                    rt.kv.read(layer, side), rp.kv.read(layer, side)
                )


# ----------------------------------------------------------------------
# End-to-end acceptance: Chrome export + registry/summary agreement.
# ----------------------------------------------------------------------

def test_chrome_trace_covers_lifecycle_and_phases(pressured_run, tmp_path):
    """Acceptance (a): the export is valid Chrome trace JSON with at
    least one span per lifecycle state the run passed through and per
    engine step phase."""
    engine, recorder, clock = pressured_run
    report = engine.report(clock())
    assert report["preemptions"] > 0  # the run really swapped

    path = tmp_path / "trace.json"
    write_chrome_trace(recorder, path)
    doc = json.loads(path.read_text())
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    for record in doc["traceEvents"]:
        assert {"ph", "ts", "pid", "tid", "name", "cat"} <= set(record)
        if record["ph"] == "X":
            assert record["dur"] >= 0

    spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    phase_names = {e["name"] for e in spans if e["cat"] == "phase"}
    assert phase_names == ENGINE_PHASES
    state_names = {e["name"] for e in spans if e["cat"] == "request"}
    assert {"waiting", "prefilling", "running", "swapped"} <= state_names
    instants = {
        e["name"]
        for e in doc["traceEvents"]
        if e["ph"] == "i" and e["cat"] == "request"
    }
    assert {"finished", "first_token", "preempt", "prefill_chunk"} <= instants
    # One thread per track, named: every tid used has thread_name
    # metadata, so Perfetto renders request ribbons and phase rows.
    named = {
        e["tid"] for e in doc["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert {e["tid"] for e in spans} <= named

    # The text summarizer reads the same file and sees the same run.
    summary = summarize(load_events(path))
    assert set(summary["phase_time"]) == ENGINE_PHASES
    assert summary["state_time_s"]["waiting"] > 0.0
    assert summary["swap_bytes_by_tier"]["host"]["out_bytes"] > 0


def _frontend_replay(parts):
    """A short burst through an explicit front-end with a one-deep door,
    so accepted, shed and queue-depth counts are all non-zero."""
    spec, model, calib = parts
    clock = VirtualClock()
    engine = ServingEngine(
        model, calib, byte_budget=60_000, page_tokens=8, clock=clock
    )
    frontend = AsyncServingEngine(
        engine, step_cost=StepCostModel(), max_queue_depth=1, max_pending=1
    )
    cfg = WorkloadConfig(
        duration_s=0.3, rate_rps=40.0, vocab_size=spec.vocab_size,
        max_tokens=16,
    )
    trace = generate_trace(cfg, seed=12)
    totals = replay_trace(frontend, trace, clock)
    return frontend, engine, trace, totals


def test_registry_snapshot_matches_engine_summary(pressured_run, parts):
    """Acceptance (b): every engine, pool and front-end count in the
    registry agrees exactly — value and int/float type — with the
    report that owns it: same storage, no drift."""
    engine, recorder, clock = pressured_run
    summary = engine.report(clock())
    registry = engine.registry

    for name, zero in ENGINE_COUNTERS.items():
        held = registry.value(f"engine.{name}", default=None)
        assert held == summary[name], name
        assert type(held) is type(zero), name
    assert summary["preemptions"] > 0 and summary["modeled_sectors"] > 0
    ttft = registry.histogram("request.ttft_s")
    assert ttft.count == len(
        [
            r for r in engine.requests
            if r.metrics.first_token_s is not None
        ]
    )
    assert ttft.max == pytest.approx(summary["ttft_s_max"])
    occupancy = registry.histogram("engine.batch_occupancy")
    assert summary["mean_batch_occupancy"] == occupancy.sum / occupancy.count
    pool = summary["pool"]
    for key, value in engine.pool.stats.items():
        assert pool[key] == value == registry.value(f"pool.{key}", None), key
    # The labeled breakdown sums to the same totals.
    total_evictions = sum(
        v for k, v in pool.items() if k.startswith("evictions_")
    )
    snap = registry.snapshot()["counters"]
    assert total_evictions > 0
    assert (
        sum(
            v for k, v in snap.items()
            if k.startswith("pool.evictions{reason=")
        )
        == total_evictions
    )

    frontend, replayed, _, totals = _frontend_replay(parts)
    report = frontend.report()
    assert report["accepted"] > 0 and report["shed_queue_full"] > 0
    # The replay counts what the front door shed; it swallows nothing.
    assert totals["submitted"] == report["accepted"]
    assert totals["rejected"] == report["shed_queue_full"]
    assert replayed.registry.value("client.shed") == totals["rejected"]
    for key in frontend.metrics:
        held = replayed.registry.value(f"frontend.{key}", default=None)
        assert held == frontend.metrics[key] and type(held) is int, key
        if key in report:
            assert report[key] == held, key


def test_second_frontend_leaves_the_first_report_alone(parts):
    """Regression: every ``replay_trace(engine, ...)`` builds a front-end
    on the engine's registry; that used to zero the ``frontend.*``
    series an earlier front-end's ``report()`` read back.  Each
    front-end reports its own counts; the registry shows the latest."""
    first, engine, trace, _ = _frontend_replay(parts)
    before = first.report()
    assert before["arrivals"] == len(trace) and before["accepted"] > 0
    assert engine.registry.value("frontend.arrivals") == len(trace)

    second = AsyncServingEngine(engine)
    assert first.report() == before
    assert second.report()["arrivals"] == 0
    assert engine.registry.value("frontend.arrivals") == 0


def test_report_surface_is_pinned(pressured_run):
    """ROADMAP 5(e), first step: the key sets of the reports are part
    of the contract the benches and their ``results/baseline/`` gate
    rows read."""
    engine, recorder, clock = pressured_run
    frontend = AsyncServingEngine(engine)
    report = engine.report(clock())
    assert sorted(report) == ENGINE_REPORT_KEYS
    assert sorted(report["pool"]) == POOL_REPORT_KEYS
    assert sorted(frontend.report()) == FRONTEND_REPORT_KEYS
    counters = engine.registry.snapshot()["counters"]
    assert sorted(counters) == REGISTRY_COUNTER_KEYS


def test_summary_guards_degenerate_runs(parts):
    """Satellite: a run with no elapsed time and no first tokens reports
    zeros/Nones instead of dividing by zero."""
    spec, model, calib = parts
    engine = ServingEngine(
        model, calib, byte_budget=60_000, page_tokens=8
    )
    rng = np.random.default_rng(5)
    engine.submit(rng.integers(0, spec.vocab_size, size=12), max_new_tokens=4)
    report = engine.report(0.0)  # no steps ran, elapsed_s == 0
    assert report["tokens_per_s"] == 0.0
    assert report["tokens_generated"] == 0
    assert report["ttft_s_mean"] is None
    assert report["ttft_s_p95"] is None
    assert report["e2e_s_mean"] is None
    assert report["finished"] == 0
