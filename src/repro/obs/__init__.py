"""Observability for the serving stack: tracing, metrics, exporters.

Three pieces, all deterministic under the virtual clock and all
zero-overhead when disabled:

* ``repro.obs.trace`` — :class:`TraceRecorder` records request
  lifecycle spans (submit -> queued -> admitted -> prefill chunks ->
  decode -> preempt/swap/shed/finish), engine step-phase spans
  (admit / preempt / prefill / decode / evict) and instant events
  against the shared clock, in a bounded ring buffer.
  :class:`NullRecorder` is the allocation-free default.
* ``repro.obs.registry`` — :class:`MetricsRegistry`: labeled counters,
  gauges and fixed-bucket histograms, snapshot-able mid-run.  The
  serve layer's totals are read through from their owners' plain
  dicts (``attach``), not copied in.
* ``repro.obs.export`` / ``repro.obs.report`` — JSONL event logs,
  Chrome trace-event JSON (load at https://ui.perfetto.dev), and a
  text summarizer: ``python -m repro.obs.report trace.jsonl``.
"""

from .export import chrome_trace, iter_jsonl, write_chrome_trace, write_jsonl
from .registry import DEFAULT_LATENCY_BUCKETS, Histogram, MetricsRegistry
from .timing import WallTimer, wall_clock
from .trace import TERMINAL_STATES, NullRecorder, TraceEvent, TraceRecorder

_REPORT_NAMES = ("format_summary", "load_events", "summarize")


def __getattr__(name):
    # Lazy so ``python -m repro.obs.report`` does not import the module
    # twice (once here, once as __main__) and warn about it.
    if name in _REPORT_NAMES:
        from . import report

        return getattr(report, name)
    raise AttributeError(name)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "NullRecorder",
    "TERMINAL_STATES",
    "TraceEvent",
    "TraceRecorder",
    "WallTimer",
    "chrome_trace",
    "format_summary",
    "iter_jsonl",
    "load_events",
    "summarize",
    "wall_clock",
    "write_chrome_trace",
    "write_jsonl",
]
