"""Serving metrics: request latencies, occupancy, modeled HBM traffic.

The wall-clock numbers (TTFT, inter-token latency, tokens/s) come from
the engine's software execution; the *bandwidth* numbers come from the
``repro.memsys`` sector-level GEMM model, extended here to a
multi-tenant decode step: every layer's seven projection GEMMs batched
over the running requests, plus the KV-cache read stream whose size is
whatever the pool actually holds — compressed blocks for the Ecco pool,
raw fp16 for the baseline.  That is the accounting that turns the
pool's capacity win into a modeled traffic win.
"""

from __future__ import annotations

import numpy as np

from repro.memsys import A100, GPUParams, gemm_traffic
from repro.obs import DEFAULT_LATENCY_BUCKETS, MetricsRegistry

from .slo import slo_attainment

__all__ = [
    "ENGINE_COUNTERS",
    "EngineMetrics",
    "decode_step_sectors",
    "latency_percentiles",
    "latency_summary",
    "summarize_turns",
]


#: The tail percentiles every latency family reports.  Mean/max hide
#: tail behaviour, and SLO work is all about tails: p99 is where a
#: retry storm or a head-of-line stall actually shows up.
PERCENTILES = (50, 95, 99)


def latency_percentiles(values, prefix: str) -> dict:
    """Flat ``{prefix}_p50/p95/p99`` keys for one latency family.

    ``None`` values when the family is empty, so report consumers (and
    the bench regression gate) can rely on the keys existing.
    """
    out: dict[str, float | None] = {}
    if values:
        arr = np.asarray(values, dtype=np.float64)
        for p in PERCENTILES:
            out[f"{prefix}_p{p}"] = float(np.percentile(arr, p))
    else:
        for p in PERCENTILES:
            out[f"{prefix}_p{p}"] = None
    return out


def _mean(values) -> float | None:
    return float(np.mean(values)) if values else None


def latency_summary(requests) -> dict:
    """The latency block of a serving report, over ``requests``: TTFT
    mean/max and its warm/cold split (warm turns attached a cached
    prefix at admission), mean end-to-end and inter-token latency, the
    three percentile families and SLO attainment.  One definition,
    shared by the engine summary and the cluster report.

    Requests with no recorded first token (still queued, shed,
    preempted mid-prefill) are left out of every family rather than
    poisoning the means; an empty family reports ``None``.
    """
    timed = [
        (r.metrics.ttft_s, r.metrics.cached_tokens > 0)
        for r in requests
        if r.metrics.first_token_s is not None
    ]
    ttfts = [ttft for ttft, _ in timed]
    e2e = [
        r.metrics.e2e_s for r in requests if r.metrics.finish_s is not None
    ]
    inter = [gap for r in requests for gap in r.metrics.inter_token_s]
    return {
        "ttft_s_mean": _mean(ttfts),
        "ttft_s_max": float(np.max(ttfts)) if ttfts else None,
        "ttft_s_mean_warm": _mean([ttft for ttft, warm in timed if warm]),
        "ttft_s_mean_cold": _mean([ttft for ttft, warm in timed if not warm]),
        "e2e_s_mean": _mean(e2e),
        "inter_token_s_mean": _mean(inter),
        **latency_percentiles(ttfts, "ttft_s"),
        **latency_percentiles(inter, "inter_token_s"),
        **latency_percentiles(e2e, "e2e_s"),
        **slo_attainment(requests),
    }


def summarize_turns(turn_reports: list[dict]) -> dict:
    """Aggregate per-turn reuse records (``Session.turn_reports``).

    The cross-turn reuse acceptance numbers in one place: how many turns
    started warm, how many prompt tokens the prefix cache served vs how
    many were re-encoded, and mean TTFT for warm turns vs cold starts.
    """
    turns = list(turn_reports)
    warm = [t for t in turns if t["cached_tokens"] > 0]
    cold = [t for t in turns if t["cached_tokens"] == 0]

    def _mean_ttft(group):
        return _mean([t["ttft_s"] for t in group if t["ttft_s"] is not None])

    prompt_tokens = sum(t["prompt_tokens"] for t in turns)
    reused = sum(t["cached_tokens"] for t in turns)
    return {
        "turns": len(turns),
        "warm_turns": len(warm),
        "cold_turns": len(cold),
        "prompt_tokens": prompt_tokens,
        "prefix_tokens_reused": reused,
        "prompt_tokens_reencoded": prompt_tokens - reused,
        "prefix_pages_hit": sum(t["cached_pages"] for t in turns),
        "split_tokens_salvaged": sum(
            t.get("split_tokens", 0) for t in turns
        ),
        "reuse_fraction": reused / prompt_tokens if prompt_tokens else 0.0,
        "ttft_s_mean_warm": _mean_ttft(warm),
        "ttft_s_mean_cold": _mean_ttft(cold),
    }


def decode_step_sectors(
    num_layers: int,
    d_model: int,
    ffn_dim: int,
    batch: int,
    kv_read_bytes: float,
    weight_bits: float = 16.0,
    act_bits: float = 16.0,
    gpu: GPUParams = A100,
) -> float:
    """Modeled 32-byte sectors one continuous-batching decode step moves.

    Per layer: the four attention projections (d x d) and the three
    SwiGLU projections (two d->ffn, one ffn->d), each an ``(batch, k, n)``
    GEMM through :func:`repro.memsys.gemm_traffic`; plus the KV stream —
    ``kv_read_bytes`` is the sum over running requests of the bytes their
    attention reads back (the pool's storage format decides how many).
    """
    gemms = [
        (batch, d_model, d_model),  # wq
        (batch, d_model, d_model),  # wk
        (batch, d_model, d_model),  # wv
        (batch, d_model, d_model),  # wo
        (batch, d_model, ffn_dim),  # wg
        (batch, d_model, ffn_dim),  # wu
        (batch, ffn_dim, d_model),  # wd
    ]
    sectors = 0.0
    for m, k, n in gemms:
        sectors += gemm_traffic(
            m, k, n, weight_bits, act_bits=act_bits, gpu=gpu
        ).total_sectors
    sectors *= num_layers
    sectors += float(np.ceil(kv_read_bytes / gpu.sector_bytes))
    return float(sectors)


#: The engine counter families — the one list of them: ``EngineMetrics``
#: starts each as a plain attribute at the zero given here (ints stay
#: ints, so report values keep their types), ``summary()`` reports them
#: all, the registry publishes each as ``engine.<name>`` and the cluster
#: report sums them over replicas.
ENGINE_COUNTERS: dict[str, int | float] = {
    "prefills": 0,
    "decode_steps": 0,
    "preemptions": 0,
    # Tokens emitted by decode steps (prefill first-tokens not included).
    "decode_tokens": 0,
    # Chunked-prefill work: chunks processed and prompt tokens ingested
    # through them (whole-prompt prefills are not counted here).
    "prefill_chunks": 0,
    "chunked_prefill_tokens": 0,
    # Steps where a chunk was ready but stalled on pool headroom.
    "prefill_stalls": 0,
    # Cross-turn/cross-request prefix reuse: admissions that attached a
    # cached prefix, and the tokens/pages served straight from the
    # cache instead of being re-encoded.
    "warm_prefills": 0,
    "prefix_tokens_reused": 0,
    "prefix_pages_reused": 0,
    # Warm admissions whose match ended *inside* a cached page and
    # attached a split-off head, and the tokens those splits salvaged
    # (a subset of ``prefix_tokens_reused``) — the chain-walk lookup
    # would have re-encoded every one of them.
    "prefix_partial_attaches": 0,
    "split_tokens_salvaged": 0,
    # Prompt tokens that actually ran through a prefill forward pass
    # (whole-prompt, warm-suffix and chunked alike) — with
    # ``prefix_tokens_reused`` this decomposes every admitted prompt
    # into reused vs re-encoded tokens.
    "prefill_forwarded_tokens": 0,
    # Steps where the swapped queue's head could not re-admit and was
    # blocking fresh admissions (the head-of-line condition), and fresh
    # requests admitted past it under the bounded bypass.
    "hol_blocked_steps": 0,
    "hol_bypasses": 0,
    # Requests refused at admission by the scheduling policy (SLO
    # already blown) — the load-shedding 429 path.  Budget rejections
    # at submit are *not* counted here; they never reach the queue.
    "shed_requests": 0,
    "peak_concurrency": 0,
    "modeled_sectors": 0.0,
    "modeled_kv_read_bytes": 0.0,
    "modeled_kv_read_fp16_bytes": 0.0,
}

#: Decode batch-size histogram edges (requests per step).
BATCH_OCCUPANCY_BUCKETS = (1, 2, 4, 8, 16, 32, 64)


class EngineMetrics:
    """Aggregate counters one engine run accumulates.

    The counters are plain attributes (``metrics.prefills += 1``), one
    per ``ENGINE_COUNTERS`` entry, and this object is their only store:
    :attr:`registry` reads them through as ``engine.<name>`` at
    snapshot time, so a mid-run registry snapshot and the end-of-run
    :meth:`summary` cannot disagree.
    """

    prefills: int
    decode_steps: int
    preemptions: int
    decode_tokens: int
    prefill_chunks: int
    chunked_prefill_tokens: int
    prefill_stalls: int
    warm_prefills: int
    prefix_tokens_reused: int
    prefix_pages_reused: int
    prefix_partial_attaches: int
    split_tokens_salvaged: int
    prefill_forwarded_tokens: int
    hol_blocked_steps: int
    hol_bypasses: int
    shed_requests: int
    peak_concurrency: int
    modeled_sectors: float
    modeled_kv_read_bytes: float
    modeled_kv_read_fp16_bytes: float

    def __init__(self):
        vars(self).update(ENGINE_COUNTERS)
        self.registry = MetricsRegistry()
        # The non-numeric ``registry`` entry stays unpublished.
        self.registry.attach("engine.", vars(self))
        self.registry.define_histogram(
            "engine.batch_occupancy", BATCH_OCCUPANCY_BUCKETS
        )
        self.registry.define_histogram(
            "request.ttft_s", DEFAULT_LATENCY_BUCKETS
        )
        self.registry.define_histogram(
            "request.e2e_s", DEFAULT_LATENCY_BUCKETS
        )

    def record_concurrency(self, running: int) -> None:
        self.peak_concurrency = max(self.peak_concurrency, running)

    def record_decode_step(
        self,
        batch: int,
        kv_read_bytes: float,
        kv_read_fp16_bytes: float,
        sectors: float,
    ) -> None:
        self.decode_steps += 1
        self.registry.observe("engine.batch_occupancy", batch)
        self.decode_tokens += batch
        self.modeled_kv_read_bytes += kv_read_bytes
        self.modeled_kv_read_fp16_bytes += kv_read_fp16_bytes
        self.modeled_sectors += sectors

    def summary(self, requests: list, pool, elapsed_s: float) -> dict:
        """The serving report: latencies, throughput, capacity, traffic.

        Robust to degenerate runs: ``elapsed_s == 0`` reports a zero
        token rate instead of a divide-by-epsilon absurdity, and
        requests with no recorded first token are excluded from every
        latency family (see :func:`latency_summary`).
        """
        finished = sum(r.metrics.finish_s is not None for r in requests)
        generated = sum(len(r.generated) for r in requests)
        occupancy = self.registry.histogram("engine.batch_occupancy")
        return {
            "requests": len(requests),
            "finished": finished,
            "elapsed_s": elapsed_s,
            "tokens_generated": generated,
            "tokens_per_s": generated / elapsed_s if elapsed_s > 0 else 0.0,
            **latency_summary(requests),
            **{name: getattr(self, name) for name in ENGINE_COUNTERS},
            # The histogram holds the same integer samples a list would;
            # its running sum is exact.
            "mean_batch_occupancy": (
                occupancy.sum / occupancy.count if occupancy else 0.0
            ),
            "pool": pool.snapshot(),
        }
