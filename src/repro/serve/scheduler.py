"""Continuous-batching scheduling: queues + pluggable policy.

:class:`ContinuousBatchingScheduler` owns the request queues and the
mechanics of moving requests between them; *which* request is admitted
next, *which* active request a preemption displaces, and *whether* a
queued request should be shed instead of served are delegated to a
:class:`SchedulerPolicy`:

* :class:`FCFSPolicy` (the default) is the original behaviour —
  arrival-order admission, youngest-first victim selection, never shed.
* :class:`DeadlinePolicy` is SLO-aware — EDF admission (earliest TTFT
  deadline first), preempt the active request with the *most* slack
  (see :func:`repro.serve.slo.slack_s`), and shed a queued request
  whose TTFT deadline already passed before any prefill work was sunk
  into it (the engine surfaces the shed through the same 429 path a
  budget rejection takes).

Two queues hold admitted requests: ``running`` (prompt fully ingested,
decoding one token per step) and ``prefilling`` (admitted, prompt being
ingested in page-aligned chunks interleaved with decode steps — the
Sarathi-style chunked-prefill path).  Both count against
``max_batch_size``; a request moves from ``prefilling`` to ``running``
the step its final chunk lands and its first token is emitted.
Preempted requests re-admit before new ones (vLLM's recompute-free
ordering — cheap here because victims swap out in compressed form and
keep their decoded caches); the swapped queue stays arrival-ordered
under every policy, because a victim's re-admission cost is swap
traffic, not deadline slack.

One head-of-line refinement over strict queue order: a swapped request
whose re-admission cannot currently fit no longer freezes the whole
fresh queue — the engine may admit a bounded number of fresh requests
past it per step (``ServingEngine.hol_bypass_limit``), counting every
blocked step so the policy cost is visible in the metrics.
"""

from __future__ import annotations

from collections import deque

from repro.obs import NullRecorder

from .pool import PagedKVPool
from .request import Request, RequestState
from .slo import SLO, next_deadline_s, slack_s

__all__ = [
    "ContinuousBatchingScheduler",
    "DeadlinePolicy",
    "FCFSPolicy",
    "SchedulerPolicy",
    "make_policy",
]


class SchedulerPolicy:
    """The decision surface of the continuous-batching scheduler.

    The scheduler (and through it the engine) calls these three hooks;
    everything else — queue mechanics, headroom math, the budget
    invariant — is policy-independent.  Implementations must be pure
    decisions over the requests they are handed: the scheduler commits
    the transitions.
    """

    name = "base"

    def select_next(self, waiting, now: float) -> Request:
        """The waiting request to consider admitting next.

        ``waiting`` is non-empty and in arrival order; ``now`` is the
        engine clock.
        """
        raise NotImplementedError

    def pick_victim(self, candidates, now: float) -> Request:
        """The active request to preempt; ``candidates`` is non-empty.

        The engine displaces mid-prefill requests before decoding ones
        (least sunk work, chunk-boundary resume), so ``candidates`` is
        whichever of those two groups is up for preemption.
        """
        raise NotImplementedError

    def should_shed(self, request: Request, now: float) -> bool:
        """True to refuse ``request`` at admission instead of serving it
        (the engine reports it through the 429 shed path)."""
        return False


class FCFSPolicy(SchedulerPolicy):
    """Arrival-order admission, youngest-first preemption, never shed.

    This is the scheduler's original hard-coded behaviour, now one
    policy among several.
    """

    name = "fcfs"

    def select_next(self, waiting, now: float) -> Request:
        return waiting[0]

    def pick_victim(self, candidates, now: float) -> Request:
        return max(candidates, key=lambda r: r.metrics.arrival_s)


class DeadlinePolicy(SchedulerPolicy):
    """SLO-aware scheduling: EDF admission, most-slack preemption,
    shed-when-already-late.

    ``default_slo`` applies to requests submitted without one (so a
    whole engine can run under a blanket objective); requests without
    any applicable deadline sort last for admission and first for
    preemption — no objective means infinite slack.  A queued request
    is shed the moment its TTFT deadline passes: a token the SLO already
    missed is not worth the prefill it costs under overload.
    """

    name = "deadline"

    def __init__(self, default_slo: SLO | None = None):
        self.default_slo = default_slo

    def _deadline(self, request: Request) -> float:
        if request.slo is None and self.default_slo is not None:
            return (
                request.metrics.arrival_s + self.default_slo.ttft_s
                if self.default_slo.ttft_s is not None
                else float("inf")
            )
        return next_deadline_s(request)

    def select_next(self, waiting, now: float) -> Request:
        return min(
            waiting, key=lambda r: (self._deadline(r), r.metrics.arrival_s)
        )

    def should_shed(self, request: Request, now: float) -> bool:
        deadline = self._deadline(request)
        return deadline != float("inf") and now > deadline

    def pick_victim(self, candidates, now: float) -> Request:
        def _slack(request: Request) -> float:
            if request.slo is None and self.default_slo is not None:
                return self._deadline(request) - now
            return slack_s(request, now)

        # Most slack first; ties fall back to youngest-first (FCFS's
        # choice), so SLO-less traffic keeps the old behaviour.
        return max(
            candidates, key=lambda r: (_slack(r), r.metrics.arrival_s)
        )


_POLICIES = {"fcfs": FCFSPolicy, "deadline": DeadlinePolicy}


def make_policy(policy) -> SchedulerPolicy:
    """Resolve a policy argument: an instance passes through, a name
    (``"fcfs"``/``"deadline"``) constructs the default-configured one."""
    if isinstance(policy, SchedulerPolicy):
        return policy
    if isinstance(policy, str):
        try:
            return _POLICIES[policy]()
        except KeyError:
            raise KeyError(
                f"unknown scheduling policy {policy!r}; "
                f"known: {sorted(_POLICIES)}"
            ) from None
    raise TypeError(
        f"policy must be a SchedulerPolicy or a name, got {type(policy)!r}"
    )


class ContinuousBatchingScheduler:
    """Queues + transition mechanics; the policy picks, the engine
    executes."""

    def __init__(
        self,
        max_batch_size: int = 8,
        watermark: float = 0.05,
        policy: SchedulerPolicy | str | None = None,
        recorder=None,
    ):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if not 0.0 <= watermark < 1.0:
            raise ValueError("watermark must be in [0, 1)")
        self.max_batch_size = int(max_batch_size)
        self.watermark = float(watermark)
        self.policy = make_policy(policy if policy is not None else "fcfs")
        #: Every state transition below records a request lifecycle span
        #: (``repro.obs``) — the scheduler is the single choke point all
        #: queue moves pass through, so instrumenting here covers the
        #: engine's whole submit/admit/preempt/finish surface.
        self.obs = recorder if recorder is not None else NullRecorder()
        self.waiting: deque[Request] = deque()
        self.prefilling: list[Request] = []
        self.running: list[Request] = []
        self.swapped: deque[Request] = deque()

    def _record_state(self, request: Request, **args) -> None:
        self.obs.request_state(
            request.request_id, request.state.value, **args
        )

    @property
    def has_work(self) -> bool:
        return bool(
            self.waiting or self.prefilling or self.running or self.swapped
        )

    @property
    def num_active(self) -> int:
        """Requests holding resident KV (decoding or mid-prefill)."""
        return len(self.running) + len(self.prefilling)

    @property
    def has_batch_room(self) -> bool:
        return self.num_active < self.max_batch_size

    def submit(self, request: Request) -> None:
        request.state = RequestState.WAITING
        self.waiting.append(request)
        self._record_state(request)

    def admission_headroom(self, pool: PagedKVPool) -> int:
        """Bytes a new admission may claim, keeping a watermark of the
        budget free for the running batch's per-step decode growth.
        Prefix-cache pages are reclaimable, so only *active* bytes count
        against the ceiling."""
        ceiling = int(pool.byte_budget * (1.0 - self.watermark))
        return ceiling - pool.bytes_active

    def peek_waiting(self, now: float) -> Request:
        """The policy's next admission candidate (queue unchanged)."""
        return self.policy.select_next(self.waiting, now)

    def shed(self, request: Request) -> None:
        """Drop a waiting request the policy refused to serve: no KV was
        ever allocated, so shedding is pure queue removal."""
        self.waiting.remove(request)
        request.state = RequestState.SHED
        self._record_state(request, reason="slo")

    def activate(self, request: Request, source: str) -> None:
        """Move a request from ``waiting``/``swapped`` into the batch.

        A request whose prompt is not fully ingested yet lands in
        ``prefilling``; one with a complete prompt lands in ``running``.
        """
        queue = self.waiting if source == "waiting" else self.swapped
        queue.remove(request)
        if request.prefill_done:
            request.state = RequestState.RUNNING
            self.running.append(request)
        else:
            request.state = RequestState.PREFILLING
            self.prefilling.append(request)
        self._record_state(request, source=source)

    def promote(self, request: Request) -> None:
        """Move a request whose final prefill chunk landed into decode."""
        self.prefilling.remove(request)
        request.state = RequestState.RUNNING
        self.running.append(request)
        self._record_state(request)

    def preempt(self, request: Request) -> None:
        if request in self.running:
            self.running.remove(request)
        else:
            self.prefilling.remove(request)
        request.state = RequestState.SWAPPED
        request.metrics.preemptions += 1
        # Oldest-first re-admission: keep the swapped queue
        # arrival-ordered regardless of which policy picked the victim.
        index = len(self.swapped)
        while index and (
            self.swapped[index - 1].metrics.arrival_s
            > request.metrics.arrival_s
        ):
            index -= 1
        self.swapped.insert(index, request)
        self._record_state(request)

    def finish(self, request: Request) -> None:
        self.running.remove(request)
        request.state = RequestState.FINISHED
        self._record_state(request)

    def pick_victim(self, now: float = 0.0) -> Request | None:
        """The policy's preemption choice, or ``None``.

        Mid-prefill requests are displaced before decoding ones (they
        have the least sunk work and their re-admission resumes at the
        chunk boundary); the last active request is never a victim —
        the engine must either run it or fail loudly.
        """
        if self.num_active <= 1:
            return None
        pool = self.prefilling or self.running
        return self.policy.pick_victim(pool, now)
