"""Virtual time: the deterministic :class:`VirtualClock` every engine,
front-end and replay reads and advances, and the :class:`StepCostModel`
roofline that prices one engine step in simulated seconds.  Imported by
``engine``, ``frontend``, ``workload`` and ``session``; imports none of
them.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["StepCostModel", "VirtualClock"]


class VirtualClock:
    """A deterministic simulated clock the engine reads as ``clock()``."""

    def __init__(self, start_s: float = 0.0):
        self.now_s = float(start_s)

    def __call__(self) -> float:
        return self.now_s

    def advance(self, dt_s: float) -> None:
        # Inverted comparison so NaN (for which every comparison is
        # False) is rejected too, not silently smeared into the clock.
        if not (dt_s >= 0.0):
            raise ValueError(
                f"time only moves forward (advance by {dt_s!r})"
            )
        self.now_s += dt_s

    def jump_to(self, t_s: float) -> None:
        t_s = float(t_s)
        if not (t_s == t_s):  # NaN guard
            raise ValueError("cannot jump the clock to NaN")
        self.now_s = max(self.now_s, t_s)


@dataclass
class StepCostModel:
    """Simulated wall time one engine step costs — a two-lane roofline.

    A fused continuous-batching step runs compute-bound work (the
    prompt/decode GEMMs, linear in tokens processed) and bandwidth-bound
    work (streaming every decoding request's KV history through memory)
    on different hardware resources, so the step takes the *slower* of
    the two lanes, not their sum:

    ``base_s + max(compute_s_per_token * tokens, bw_s_per_byte * kv_read)``

    This is what makes chunked prefill pay off in simulated time, the
    same way it does on a GPU (Sarathi-Serve): a page-sized prompt chunk
    slips under the decode batch's bandwidth umbrella nearly for free,
    while an unchunked long prompt blows past it and stalls every
    decoding request for the whole linear prefill cost.  It is also the
    Ecco tie-in — compressed KV shrinks ``kv_read``, so the bandwidth
    lane (and with it the whole step) gets faster.  Defaults are scaled
    for the proxy models; they are knobs, not measurements.
    """

    base_s: float = 5e-4
    compute_s_per_token: float = 2e-3
    bw_s_per_byte: float = 1e-6

    def __call__(self, last_step) -> float:
        """Cost of one step composition (a cluster passes a list of
        per-replica compositions: concurrent replicas cost the max).

        A step that did no work costs *nothing*: charging is idempotent
        over zero-token steps, so a driver polling an idle engine cannot
        smear phantom seconds into the clock.  Drivers that need time to
        move through a genuine stall (nothing admitted, nothing decoded,
        but the queue is non-empty) apply ``base_s`` themselves as an
        explicit fallback tick — see the front-end pump.
        """
        if isinstance(last_step, list):
            if not last_step:
                return 0.0
            return max(self(entry) for entry in last_step)
        tokens = last_step["prefill_tokens"] + last_step["decode_tokens"]
        kv_read = float(last_step["kv_read_bytes"])
        if tokens == 0 and kv_read == 0.0:
            return 0.0
        compute = self.compute_s_per_token * float(tokens)
        bandwidth = self.bw_s_per_byte * kv_read
        return self.base_s + max(compute, bandwidth)

    # Component charges for *synchronous* charging: an engine built with
    # ``step_cost=`` advances its virtual clock as work happens, so a
    # request's own prefill cost lands inside its TTFT (what makes a
    # warm, cache-served turn measurably faster than a cold start even
    # on an idle engine).  The fused-step roofline above stays the
    # replay-side model; use one or the other per engine, never both.
    def prefill_s(self, tokens: int) -> float:
        """Simulated cost of forwarding ``tokens`` prompt tokens
        (zero tokens cost zero — charging stays idempotent)."""
        if tokens == 0:
            return 0.0
        return self.base_s + self.compute_s_per_token * float(tokens)

    def decode_s(self, decode_tokens: int, kv_read_bytes: float) -> float:
        """Simulated cost of one batched decode step (two-lane max;
        an empty step costs zero)."""
        if decode_tokens == 0 and kv_read_bytes == 0.0:
            return 0.0
        compute = self.compute_s_per_token * float(decode_tokens)
        bandwidth = self.bw_s_per_byte * float(kv_read_bytes)
        return self.base_s + max(compute, bandwidth)
