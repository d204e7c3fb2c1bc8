"""A labeled metrics registry: counters, gauges, fixed-bucket histograms.

Prometheus-shaped, virtual-clock-friendly: metric families are dotted
names under a subsystem prefix (``engine.prefills``,
``pool.swap_bytes``, ``frontend.accepted``, ``request.ttft_s``) and a
family plus a sorted label set (``tenant=acme``, ``replica=1``,
``reason=ttl``) identifies one series.  Counters and gauges are plain
Python numbers (ints stay ints, so registry snapshots agree bit-for-bit
with the reports); histograms have *fixed* upper
bucket edges declared per family, with the Prometheus ``le`` convention
— a sample equal to an edge lands in that edge's bucket — plus one
overflow bucket and running count/sum/min/max.

The registry is snapshot-able mid-run: :meth:`MetricsRegistry.snapshot`
returns a sorted, JSON-able dict, so replay drivers can emit a
time-series of snapshots instead of one terminal summary.

Key naming scheme (documented in the README's Observability section):

``<subsystem>.<metric>[{label=value,...}]``

where the subsystem is the component that owns the number (``engine``,
``pool``, ``trie``, ``frontend``, ``cluster``, ``request``, ``client``)
and labels carry the dimension a consumer would group by.  Unlabeled
series are totals; labeled series are per-dimension breakdowns and are
recorded *in addition to* the totals the reports read, never instead.

The totals are *pulled*, not pushed: each owner (the pool's ``stats``,
the front-end's ``metrics``, the router's ``stats``, the replay
clients' ``counts``, ``EngineMetrics``) keeps its counts in a plain
dict that it alone writes and hands the registry a reference once
(:meth:`MetricsRegistry.attach`); ``value()`` and ``snapshot()`` read
the owner's numbers at call time, so there is one copy of every count
and the hot path pays one dict write for it.
"""

from __future__ import annotations

from bisect import bisect_left

__all__ = ["DEFAULT_LATENCY_BUCKETS", "Histogram", "MetricsRegistry"]

#: Default histogram edges (seconds), log-ish spaced around the serving
#: stack's simulated latencies: sub-millisecond decode steps up to
#: multi-second queue waits.
DEFAULT_LATENCY_BUCKETS = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


def series_key(name: str, labels: dict) -> str:
    """The canonical series key: ``name`` or ``name{k=v,...}`` with
    labels sorted, so the same label set always forms the same key."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Histogram:
    """A fixed-bucket histogram: ``le``-inclusive upper edges plus one
    overflow bucket, with running count/sum/min/max."""

    __slots__ = ("buckets", "counts", "count", "sum", "min", "max")

    def __init__(self, buckets):
        edges = tuple(float(b) for b in buckets)
        if not edges:
            raise ValueError("a histogram needs at least one bucket edge")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise ValueError(f"bucket edges must strictly increase: {edges}")
        self.buckets = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = None
        self.max = None

    def observe(self, value) -> None:
        v = float(value)
        # bisect_left: the first edge >= v, so v == edge lands in that
        # edge's bucket (Prometheus ``le`` semantics); v past the last
        # edge lands in the overflow bucket.
        self.counts[bisect_left(self.buckets, v)] += 1
        self.count += 1
        self.sum += v
        self.min = v if self.min is None else min(self.min, v)
        self.max = v if self.max is None else max(self.max, v)

    def snapshot(self) -> dict:
        return {
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Counters, gauges and histograms keyed by (family, labels)."""

    def __init__(self):
        self._counters: dict[str, int | float] = {}
        self._attached: dict[str, dict] = {}
        self._gauges: dict[str, int | float] = {}
        self._histograms: dict[str, Histogram] = {}
        self._hist_buckets: dict[str, tuple[float, ...]] = {}

    # ------------------------------------------------------------------
    # Counters.
    # ------------------------------------------------------------------
    def inc(self, name: str, value=1, **labels) -> None:
        key = series_key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def attach(self, prefix: str, counters: dict) -> None:
        """Publish an owner's counter dict as ``<prefix><key>`` series.

        Read-through: the registry keeps the reference, and ``value()``
        / ``snapshot()`` read the numeric entries at call time
        (non-numeric entries stay unpublished).  A second ``attach`` of
        a prefix replaces the first — the registry shows the most
        recently attached owner, which is what the ``client.`` counters
        of consecutive replays and a re-wrapped engine's ``frontend.``
        counters rely on; every owner keeps reporting its own dict.
        """
        self._attached[prefix] = counters

    def _published(self) -> dict:
        """Every counter series as of now: the ones counted here with
        ``inc`` plus the numeric entries of each attached owner."""
        counters = dict(self._counters)
        for prefix, owned in self._attached.items():
            counters.update(
                (prefix + key, held)
                for key, held in owned.items()
                if isinstance(held, (int, float))
            )
        return counters

    def value(self, name: str, default=0, **labels):
        return self._published().get(series_key(name, labels), default)

    # ------------------------------------------------------------------
    # Gauges.
    # ------------------------------------------------------------------
    def gauge_set(self, name: str, value, **labels) -> None:
        self._gauges[series_key(name, labels)] = value

    # ------------------------------------------------------------------
    # Histograms.
    # ------------------------------------------------------------------
    def define_histogram(self, name: str, buckets) -> None:
        """Declare a family's fixed bucket edges.  Redefinition must
        agree (histogram shapes are part of a family's contract)."""
        edges = tuple(float(b) for b in buckets)
        known = self._hist_buckets.get(name)
        if known is not None and known != edges:
            raise ValueError(
                f"histogram {name!r} already defined with edges {known}"
            )
        Histogram(edges)  # validates
        self._hist_buckets[name] = edges

    def observe(self, name: str, value, **labels) -> None:
        key = series_key(name, labels)
        hist = self._histograms.get(key)
        if hist is None:
            hist = Histogram(
                self._hist_buckets.get(name, DEFAULT_LATENCY_BUCKETS)
            )
            self._histograms[key] = hist
        hist.observe(value)

    def histogram(self, name: str, **labels) -> Histogram | None:
        return self._histograms.get(series_key(name, labels))

    # ------------------------------------------------------------------
    # Snapshot.
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Sorted, JSON-able view of every series — safe to take
        mid-run (pure read)."""
        return {
            "counters": dict(sorted(self._published().items())),
            "gauges": dict(sorted(self._gauges.items())),
            "histograms": {
                key: hist.snapshot()
                for key, hist in sorted(self._histograms.items())
            },
        }
