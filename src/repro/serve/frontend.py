"""Async streaming front-end: the event-driven serving core.

:class:`AsyncServingEngine` wraps a synchronous
:class:`~repro.serve.engine.ServingEngine` or
:class:`~repro.serve.cluster.ClusterRouter` and turns it into a server:
clients submit concurrently, receive their tokens as an **async
iterator** while other requests keep decoding, and the engine's
``step()`` is pumped by one background loop.  Between the clients and
the engine sits an admission layer the synchronous stack never had:

* **per-tenant token-rate limits** — each tenant gets a token bucket
  (``rate_tokens_per_s`` refilled in clock time, ``burst_tokens`` cap);
  a submission costs ``prompt + max_new_tokens`` tokens and waits in
  the tenant's front-end queue until the bucket covers it,
* **weighted fairness** — queued tenants are served by stride
  scheduling over their charged tokens (a tenant's share of admissions
  is proportional to its ``weight`` no matter how hard it floods its
  own queue),
* **load shedding** — ``max_queue_depth`` bounds the total front-end
  queue; arrivals past it are refused immediately with
  :class:`RequestShedError`, the same 429 family as the pool's
  :class:`~repro.serve.pool.BudgetExceededError`.  Requests the
  scheduler's policy sheds (SLO blown at admission, see
  ``repro.serve.scheduler.DeadlinePolicy``) surface through their
  stream handle as the same error,
* **backpressure metrics** — queue depth (peak and mean), shed/reject
  counts, and per-tenant wait time, all in :meth:`report`.

Time is the engine's clock.  The front-end requires an *advanceable*
clock (:class:`~repro.serve.clock.VirtualClock`): the pump advances
it by the :class:`~repro.serve.clock.StepCostModel` roofline per
step (or lets a ``step_cost``-charging engine advance it itself), and
jumps it across idle gaps to the next sleeper.  Client timeouts,
backoffs and rate limits all run in the same simulated seconds, so an
entire retry storm replays deterministically — and the engine
underneath is untouched, so decoded KV stays bit-exact against the
single-stream reference no matter how the front-end interleaves
clients.

Typical client::

    frontend = AsyncServingEngine(engine)
    async def client():
        handle = frontend.submit(prompt, max_new_tokens=32, tenant="acme")
        async for token in handle:
            ...                       # streamed as decode steps land
    frontend.drive(client())
"""

from __future__ import annotations

import asyncio
import heapq
import itertools
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.obs import MetricsRegistry, NullRecorder

from .clock import StepCostModel
from .pool import BudgetExceededError
from .request import Request, RequestState

__all__ = [
    "AsyncServingEngine",
    "RequestShedError",
    "RequestTimeoutError",
    "StreamHandle",
]


class RequestShedError(BudgetExceededError):
    """The front-end or the scheduling policy refused this request (the
    429 path): queue full, or its SLO was already blown at admission."""


class RequestTimeoutError(TimeoutError):
    """The client's own deadline for this request expired; the stream
    was abandoned.  The engine may still be generating — a timed-out
    request is wasted work unless the client retries and hits the
    prefix cache."""


@dataclass
class _Submission:
    """One queued request: everything the engine's ``submit`` needs,
    plus the front-end bookkeeping around it."""

    prompt: np.ndarray
    max_new_tokens: int
    request_id: str | None
    eos_token: int | None
    session_id: str | None
    slo: object | None
    tenant: str
    #: When the client handed the request to the front-end (clock s).
    enqueued_s: float
    #: The TTFT anchor: trace arrival for replayed traffic, else the
    #: enqueue time — either way, queue wait counts against TTFT.
    arrival_s: float

    @property
    def cost_tokens(self) -> int:
        return int(self.prompt.size) + int(self.max_new_tokens)


@dataclass
class _TenantState:
    """Rate/fairness/accounting state for one tenant."""

    name: str
    weight: float = 1.0
    rate_tokens_per_s: float | None = None
    burst_tokens: float | None = None
    bucket: float = 0.0
    refilled_s: float = 0.0
    #: Stride-scheduling pass value: charged tokens / weight.  The
    #: tenant with the smallest pass is served next, so long-run
    #: admission shares converge to the weights.
    pass_tokens: float = 0.0
    queue: deque = field(default_factory=deque)
    submitted: int = 0
    accepted: int = 0
    rejected: int = 0
    shed: int = 0
    tokens_charged: int = 0
    wait_s_sum: float = 0.0
    wait_s_max: float = 0.0

    def refill(self, now: float) -> None:
        if self.rate_tokens_per_s is None:
            return
        burst = self.burst_tokens
        self.bucket = min(
            burst, self.bucket + self.rate_tokens_per_s * (now - self.refilled_s)
        )
        self.refilled_s = now

    def covers(self, cost: int) -> bool:
        """Can the bucket pay for this submission now?  A request larger
        than the whole burst still dispatches once the bucket is full —
        the bucket then goes negative, which is exactly the debt that
        throttles the tenant's *next* submissions."""
        if self.rate_tokens_per_s is None:
            return True
        return self.bucket >= min(float(cost), self.burst_tokens)

    def ready_s(self, cost: int) -> float:
        """Clock time at which the bucket will cover ``cost``."""
        need = min(float(cost), self.burst_tokens)
        return self.refilled_s + (need - self.bucket) / self.rate_tokens_per_s

    def charge(self, cost: int) -> None:
        if self.rate_tokens_per_s is not None:
            self.bucket -= float(cost)
        self.tokens_charged += cost


class StreamHandle:
    """A client's view of one submitted request: an async token stream.

    Iterate to receive tokens as the engine generates them; the
    iterator ends when the request finishes, and raises if the request
    was rejected (never fit the budget), shed (queue full or SLO blown
    at admission), timed out against the client's own deadline, or
    failed with the pump (``engine.step()`` raised).
    ``request`` is the engine-side :class:`~repro.serve.request.Request`
    once the front-end has dispatched the submission (``None`` while it
    still waits in a tenant queue).
    """

    def __init__(self, frontend: "AsyncServingEngine", sub: _Submission):
        self._frontend = frontend
        self._sub = sub
        self.request: Request | None = None
        self.status = "queued"
        self.error: Exception | None = None
        self._buffer: deque[int] = deque()
        self._emitted = 0
        self._event = asyncio.Event()

    # -- front-end side -------------------------------------------------
    @property
    def done(self) -> bool:
        return self.status in (
            "finished", "rejected", "shed", "timeout", "failed"
        )

    @property
    def tenant(self) -> str:
        return self._sub.tenant

    def anchor_arrival(self, arrival_s: float) -> None:
        """Re-anchor the TTFT clock (e.g. to a trace arrival time that
        predates the submit call).  Applies retroactively if the
        request was already dispatched."""
        self._sub.arrival_s = float(arrival_s)
        if self.request is not None:
            self.request.metrics.arrival_s = float(arrival_s)

    def _attach(self, request: Request) -> None:
        self.request = request
        self.status = "active"

    def _fail(self, error: Exception, status: str) -> None:
        if self.done:
            return
        self.error = error
        self.status = status
        self._event.set()

    def _publish(self) -> bool:
        """Push newly generated tokens to the consumer; returns True
        once the handle is terminal and needs no further publishing."""
        if self.done:
            return True
        if self.request is None:
            return False
        generated = self.request.generated
        if self._emitted < len(generated):
            self._buffer.extend(generated[self._emitted:])
            self._emitted = len(generated)
            self._event.set()
        if self.request.state is RequestState.SHED:
            self._fail(
                RequestShedError(
                    f"request {self.request.request_id!r} shed at "
                    f"admission: its SLO deadline had already passed"
                ),
                "shed",
            )
            return True
        if self.request.state is RequestState.FINISHED:
            self.status = "finished"
            self._event.set()
            return True
        return False

    # -- client side ----------------------------------------------------
    def __aiter__(self) -> "StreamHandle":
        return self

    async def __anext__(self) -> int:
        while True:
            if self._buffer:
                return self._buffer.popleft()
            if self.done:
                if self.error is not None:
                    raise self.error
                raise StopAsyncIteration
            self._event.clear()
            await self._event.wait()

    async def result(self, timeout_s: float | None = None) -> list[int]:
        """Drain the stream; returns the full generated token list.

        ``timeout_s`` is a *client-side* deadline in clock seconds from
        this call: past it the stream raises :class:`RequestTimeoutError`
        and is abandoned (the engine is not interrupted — an impatient
        client costs the server wasted work, which is precisely what
        retry-storm modeling needs to capture).
        """
        if timeout_s is not None:
            self._frontend._register_timeout(
                self, self._frontend.clock() + float(timeout_s)
            )
        async for _token in self:
            pass
        return list(self.request.generated)


class AsyncServingEngine:
    """Event-driven front-end pumping a synchronous engine or cluster.

    ``target`` is a :class:`~repro.serve.engine.ServingEngine` or
    :class:`~repro.serve.cluster.ClusterRouter` built on a
    :class:`~repro.serve.clock.VirtualClock`.  ``step_cost`` is the
    per-step roofline the pump charges; a target built with its own
    ``step_cost=`` charges synchronously instead, and passing both is
    refused (``ValueError``) rather than double-counted or dropped.
    ``max_pending`` bounds how many dispatched-but-unadmitted requests
    may sit in the engine's own queue before the front-end holds
    further dispatches back (keeping fairness decisions at the
    front-end); ``max_queue_depth`` bounds the *front-end* queue and
    sheds arrivals past it.
    """

    def __init__(
        self,
        target,
        *,
        step_cost: StepCostModel | None = None,
        max_pending: int | None = None,
        max_queue_depth: int | None = None,
        max_steps: int = 500_000,
    ):
        clock = getattr(target, "clock", None)
        if clock is None:
            clock = target.engines[0].clock
        if not hasattr(clock, "advance") or not hasattr(clock, "jump_to"):
            raise ValueError(
                "AsyncServingEngine needs an advanceable clock "
                "(VirtualClock) on its target: the pump charges step "
                "costs and jumps idle gaps in simulated time"
            )
        self.target = target
        self.clock = clock
        #: Engines built with ``step_cost=`` advance the clock as work
        #: happens; the pump must not double-charge them.
        self._self_charging = getattr(target, "step_cost", None) is not None
        if self._self_charging and step_cost is not None:
            raise ValueError(
                "target already charges its own clock (step_cost set on "
                "the engine); a pump-side step_cost would double-count — "
                "drop one of the two"
            )
        self.step_cost = step_cost if step_cost is not None else StepCostModel()
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1")
        if max_queue_depth is not None and max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        self.max_pending = max_pending
        self.max_queue_depth = max_queue_depth
        self.max_steps = int(max_steps)
        self._tenants: dict[str, _TenantState] = {}
        self._live: list[StreamHandle] = []
        self._seq = itertools.count()
        #: Sleepers: (wake_s, seq, event).
        self._timers: list[tuple[float, int, asyncio.Event]] = []
        #: Client-side request deadlines: (deadline_s, seq, handle).
        self._timeouts: list[tuple[float, int, StreamHandle]] = []
        #: Times at which a rate-starved tenant's bucket will cover its
        #: queue head — pump wake-ups with no event attached.
        self._service_times: list[float] = []
        self._wake = asyncio.Event()
        self._stopping = False
        #: What killed the pump, if anything did (see :meth:`_run_pump`).
        self._crashed: Exception | None = None
        self.steps = 0
        self.tokens_processed = 0
        #: Observability: the front-end shares the engine's (or
        #: cluster's) recorder and registry, so one trace/export covers
        #: the whole stack.  ``metrics`` is this front-end's own plain
        #: dict — :meth:`report` reads it — and the registry reads it
        #: through as ``frontend.<key>`` (the latest front-end built on
        #: a target is the one the registry shows).
        self.obs = getattr(target, "obs", None) or NullRecorder()
        registry = getattr(target, "registry", None)
        self.registry = (
            registry if registry is not None else MetricsRegistry()
        )
        self.metrics = {
            "arrivals": 0,
            "accepted": 0,
            "rejected_429": 0,
            "shed_queue_full": 0,
            "shed_slo": 0,
            "timeouts": 0,
            "queue_depth_peak": 0,
            "queue_depth_sum": 0,
            "queue_depth_samples": 0,
        }
        self.registry.attach("frontend.", self.metrics)
        self._last_depth = None

    # ------------------------------------------------------------------
    # Tenants.
    # ------------------------------------------------------------------
    def add_tenant(
        self,
        name: str,
        *,
        weight: float = 1.0,
        rate_tokens_per_s: float | None = None,
        burst_tokens: float | None = None,
    ) -> None:
        """Register a tenant with a fairness weight and an optional
        token-rate limit.  Unknown tenants named at submit time are
        auto-registered with weight 1 and no rate limit."""
        if weight <= 0:
            raise ValueError("weight must be positive")
        if rate_tokens_per_s is not None and rate_tokens_per_s <= 0:
            raise ValueError("rate_tokens_per_s must be positive")
        if name in self._tenants:
            raise ValueError(f"duplicate tenant {name!r}")
        state = _TenantState(
            name=name, weight=float(weight), rate_tokens_per_s=rate_tokens_per_s
        )
        if rate_tokens_per_s is not None:
            state.burst_tokens = float(
                burst_tokens
                if burst_tokens is not None
                else rate_tokens_per_s
            )
            state.bucket = state.burst_tokens  # start full
        state.refilled_s = self.clock()
        # A late joiner starts at the current stride frontier, not at
        # zero — otherwise it would monopolize admissions to "catch up".
        if self._tenants:
            state.pass_tokens = min(
                t.pass_tokens for t in self._tenants.values()
            )
        self._tenants[name] = state

    def _tenant(self, name: str | None) -> _TenantState:
        name = name if name is not None else "default"
        if name not in self._tenants:
            self.add_tenant(name)
        return self._tenants[name]

    @property
    def queue_depth(self) -> int:
        """Requests waiting in front-end tenant queues right now."""
        return sum(len(t.queue) for t in self._tenants.values())

    def _engine_pending(self) -> int:
        """Requests sitting in the engine's own waiting queues."""
        engines = getattr(self.target, "engines", None)
        if engines is None:
            return len(self.target.scheduler.waiting)
        return sum(len(e.scheduler.waiting) for e in engines)

    def _has_capacity(self) -> bool:
        return (
            self.max_pending is None
            or self._engine_pending() < self.max_pending
        )

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    def submit(
        self,
        prompt,
        max_new_tokens: int,
        *,
        request_id: str | None = None,
        eos_token: int | None = None,
        session_id: str | None = None,
        slo=None,
        tenant: str | None = None,
        arrival_s: float | None = None,
    ) -> StreamHandle:
        """Queue one request and return its stream handle.

        Raises :class:`RequestShedError` if the front-end queue is full
        (429 at the front door) and :class:`BudgetExceededError` if the
        request can never fit the pool budget and was dispatched
        eagerly.  A rate-limited or fairness-queued submission is
        dispatched later by the pump; a dispatch-time rejection then
        surfaces through the handle instead.
        """
        now = self.clock()
        state = self._tenant(tenant)
        self.metrics["arrivals"] += 1
        self.registry.inc("frontend.arrivals", tenant=state.name)
        self.obs.instant(
            "arrival", "frontend", cat="frontend", tenant=state.name
        )
        state.submitted += 1
        if (
            self.max_queue_depth is not None
            and self.queue_depth >= self.max_queue_depth
        ):
            state.shed += 1
            self.metrics["shed_queue_full"] += 1
            self.registry.inc(
                "frontend.shed", tenant=state.name, reason="queue_full"
            )
            self.obs.instant(
                "shed",
                "frontend",
                cat="frontend",
                reason="queue_full",
                tenant=state.name,
            )
            raise RequestShedError(
                f"front-end queue full ({self.queue_depth} >= "
                f"{self.max_queue_depth}); request shed"
            )
        sub = _Submission(
            prompt=np.asarray(prompt, dtype=np.int64).reshape(-1),
            max_new_tokens=int(max_new_tokens),
            request_id=request_id,
            eos_token=eos_token,
            session_id=session_id,
            slo=slo,
            tenant=state.name,
            enqueued_s=now,
            arrival_s=float(arrival_s) if arrival_s is not None else now,
        )
        handle = StreamHandle(self, sub)
        # Eager dispatch: nothing queued ahead for this tenant, the
        # bucket covers it, and the engine has admission room — the
        # request goes straight through, and a budget rejection raises
        # here, synchronously, like a direct engine submit would.
        state.refill(now)
        if (
            not state.queue
            and state.covers(sub.cost_tokens)
            and self._has_capacity()
        ):
            self._dispatch_one(state, handle, now)
            if handle.error is not None:
                raise handle.error
            return handle
        state.queue.append(handle)
        self._wake.set()
        return handle

    def _dispatch_one(
        self, state: _TenantState, handle: StreamHandle, now: float
    ) -> None:
        """Hand one submission to the engine; resolve the handle on
        rejection.  The caller has already checked rate and capacity."""
        sub = handle._sub
        try:
            request = self.target.submit(
                sub.prompt,
                sub.max_new_tokens,
                request_id=sub.request_id,
                eos_token=sub.eos_token,
                session_id=sub.session_id,
                slo=sub.slo,
                tenant=sub.tenant,
            )
        except BudgetExceededError as error:
            state.rejected += 1
            self.metrics["rejected_429"] += 1
            self.registry.inc("frontend.rejected", tenant=state.name)
            self.obs.instant(
                "reject", "frontend", cat="frontend", tenant=state.name
            )
            handle._fail(error, "rejected")
            return
        request.metrics.arrival_s = sub.arrival_s
        state.charge(sub.cost_tokens)
        state.pass_tokens += sub.cost_tokens / state.weight
        state.accepted += 1
        self.metrics["accepted"] += 1
        self.registry.inc("frontend.accepted", tenant=state.name)
        wait = now - sub.enqueued_s
        state.wait_s_sum += wait
        state.wait_s_max = max(state.wait_s_max, wait)
        self.registry.observe("frontend.queue_wait_s", wait)
        self.registry.observe(
            "frontend.queue_wait_s", wait, tenant=state.name
        )
        self.obs.instant(
            "dispatch",
            "frontend",
            cat="frontend",
            tenant=state.name,
            request_id=request.request_id,
        )
        handle._attach(request)
        self._live.append(handle)

    def _dispatch(self, now: float) -> None:
        """Drain tenant queues into the engine: stride-fair across
        tenants, each gated by its own token bucket and the engine's
        pending capacity."""
        while self._has_capacity():
            candidates = []
            for name in sorted(self._tenants):
                state = self._tenants[name]
                if not state.queue:
                    continue
                state.refill(now)
                cost = state.queue[0]._sub.cost_tokens
                if not state.covers(cost):
                    # Starved: wake the pump when the bucket refills.
                    heapq.heappush(self._service_times, state.ready_s(cost))
                    continue
                candidates.append(state)
            if not candidates:
                return
            state = min(candidates, key=lambda t: (t.pass_tokens, t.name))
            handle = state.queue.popleft()
            self._dispatch_one(state, handle, now)

    # ------------------------------------------------------------------
    # Virtual-time primitives for clients.
    # ------------------------------------------------------------------
    async def sleep_until(self, wake_s: float) -> None:
        """Suspend the calling client until simulated time reaches
        ``wake_s`` (returns immediately if it already has)."""
        if wake_s <= self.clock():
            await asyncio.sleep(0)
            return
        event = asyncio.Event()
        heapq.heappush(self._timers, (float(wake_s), next(self._seq), event))
        self._wake.set()
        await event.wait()

    async def sleep(self, duration_s: float) -> None:
        """Suspend the calling client for ``duration_s`` simulated
        seconds."""
        await self.sleep_until(self.clock() + float(duration_s))

    def _register_timeout(self, handle: StreamHandle, deadline_s: float) -> None:
        heapq.heappush(
            self._timeouts, (float(deadline_s), next(self._seq), handle)
        )
        self._wake.set()

    # ------------------------------------------------------------------
    # The pump.
    # ------------------------------------------------------------------
    def _fire_due(self, now: float) -> None:
        while self._timers and self._timers[0][0] <= now:
            _, _, event = heapq.heappop(self._timers)
            event.set()
        while self._timeouts and self._timeouts[0][0] <= now:
            _, _, handle = heapq.heappop(self._timeouts)
            if not handle.done:
                self.metrics["timeouts"] += 1
                self.registry.inc("frontend.timeouts", tenant=handle.tenant)
                self.obs.instant(
                    "timeout", "frontend", cat="frontend", tenant=handle.tenant
                )
                handle._fail(
                    RequestTimeoutError(
                        "client deadline expired before the request finished"
                    ),
                    "timeout",
                )
        while self._service_times and self._service_times[0] <= now:
            heapq.heappop(self._service_times)

    def _next_event_s(self) -> float | None:
        times = []
        if self._timers:
            times.append(self._timers[0][0])
        if self._service_times:
            times.append(self._service_times[0])
        while self._timeouts and self._timeouts[0][2].done:
            heapq.heappop(self._timeouts)  # stale: request already over
        if self._timeouts:
            times.append(self._timeouts[0][0])
        return min(times) if times else None

    def _publish(self) -> None:
        still_live = []
        for handle in self._live:
            if handle._publish():
                if handle.status == "shed":
                    self.metrics["shed_slo"] += 1
                    self.registry.inc(
                        "frontend.shed", tenant=handle.tenant, reason="slo"
                    )
                    self._tenants[handle.tenant].shed += 1
            else:
                still_live.append(handle)
        self._live = still_live

    def _sample_queue_depth(self) -> None:
        depth = self.queue_depth
        self.metrics["queue_depth_peak"] = max(
            self.metrics["queue_depth_peak"], depth
        )
        self.metrics["queue_depth_sum"] += depth
        self.metrics["queue_depth_samples"] += 1
        self.registry.gauge_set("frontend.queue_depth", depth)
        if self.obs.enabled and depth != self._last_depth:
            self._last_depth = depth
            self.obs.counter("frontend.queue_depth", depth, "frontend")

    async def _pump(self) -> None:
        """The event loop's engine driver: fire due timers, let clients
        run, dispatch their submissions, advance the engine one step,
        charge the clock, publish tokens — and when there is nothing to
        step, jump simulated time to the next sleeper."""
        while True:
            now = self.clock()
            self._fire_due(now)
            # Let every ready client coroutine run (submit, consume,
            # schedule sleeps) before the engine commits this step.
            for _ in range(3):
                await asyncio.sleep(0)
            now = self.clock()
            self._dispatch(now)
            self._sample_queue_depth()
            if self.target.has_work:
                if self.steps >= self.max_steps:
                    raise RuntimeError(
                        f"front-end did not drain in {self.max_steps} steps"
                    )
                step_tokens = self.target.step()
                self.steps += 1
                self.tokens_processed += step_tokens
                if not self._self_charging:
                    charge = self.step_cost(self.target.last_step)
                    if step_tokens == 0 and charge <= 0.0:
                        # A stalled step (nothing admitted, nothing
                        # decoded) must still move time, or the replay
                        # would spin without ever reaching the arrival
                        # or TTL event that unsticks it.
                        charge = self.step_cost.base_s
                    self.clock.advance(charge)
                self._publish()
                continue
            next_s = self._next_event_s()
            if next_s is not None:
                if next_s > now:
                    self.clock.jump_to(next_s)
                continue
            if self.queue_depth:
                # Queued but undispatchable with an idle engine can only
                # mean a rate-starved tenant; its service time is in the
                # heap, so this is unreachable — guard loudly anyway.
                raise RuntimeError("front-end queue stuck with no wake-up")
            if self._stopping:
                return
            self._wake.clear()
            if not (
                self.target.has_work or self._timers or self._timeouts
            ):
                await self._wake.wait()

    # ------------------------------------------------------------------
    # Drivers.
    # ------------------------------------------------------------------
    async def _run_pump(self) -> None:
        """:meth:`_pump`, and the one duty of a pump that dies: no token
        will ever be published again, so every open stream — dispatched
        or still queued — fails with the pump's exception instead of
        leaving whoever iterates it waiting forever."""
        try:
            await self._pump()
        except Exception as error:
            self._crashed = error
            queued = [h for t in self._tenants.values() for h in t.queue]
            for handle in self._live + queued:
                handle._fail(error, "failed")
            self._live = []
            for tenant in self._tenants.values():
                tenant.queue.clear()
            raise

    async def serve(self, *clients):
        """Run the pump alongside ``clients`` (coroutines); returns
        their results in order.

        The pump runs until every client has returned and the engine has
        no work left, so fire-and-forget submissions still complete.  A
        client exception cancels the run and propagates.  So does an
        exception out of ``target.step()``, after failing every open
        stream with it; the target was left mid-step, so this front-end
        then refuses to serve again.
        """
        if self._crashed is not None:
            raise RuntimeError(
                "front-end pump crashed earlier and left its target "
                "mid-step; build a new engine and front-end"
            ) from self._crashed
        self._stopping = False
        pump = asyncio.ensure_future(self._run_pump())
        work = asyncio.ensure_future(asyncio.gather(*clients))
        await asyncio.wait({pump, work}, return_when=asyncio.FIRST_COMPLETED)
        if pump.done() and not work.done():
            # The pump never returns while clients are pending unless it
            # crashed: surface that error, not a hang.
            work.cancel()
            try:
                await work
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            await pump  # raises
            raise RuntimeError("front-end pump exited while clients waited")
        try:
            results = await work
        except BaseException:
            pump.cancel()
            try:
                await pump
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
            raise
        self._stopping = True
        self._wake.set()
        await pump
        return results

    def drive(self, *clients):
        """Synchronous convenience: ``asyncio.run`` the serve loop."""
        return asyncio.run(self.serve(*clients))

    # ------------------------------------------------------------------
    # Backpressure report.
    # ------------------------------------------------------------------
    def report(self) -> dict:
        """Front-end metrics: admission counts, shed/reject/timeout
        totals, queue depth, and per-tenant rate/fairness accounting.

        Read from this front-end's own ``metrics`` dict, which the
        registry publishes as ``frontend.*``.
        """
        m = self.metrics
        samples = m["queue_depth_samples"]
        arrivals = m["arrivals"]
        shed = m["shed_queue_full"] + m["shed_slo"]
        return {
            "arrivals": arrivals,
            "accepted": m["accepted"],
            "rejected_429": m["rejected_429"],
            "shed_queue_full": m["shed_queue_full"],
            "shed_slo": m["shed_slo"],
            "shed_rate": shed / arrivals if arrivals else 0.0,
            "timeouts": m["timeouts"],
            "steps": self.steps,
            "tokens_processed": self.tokens_processed,
            "queue_depth_peak": m["queue_depth_peak"],
            "queue_depth_mean": (
                m["queue_depth_sum"] / samples if samples else 0.0
            ),
            "tenants": {
                name: {
                    "weight": t.weight,
                    "rate_tokens_per_s": t.rate_tokens_per_s,
                    "submitted": t.submitted,
                    "accepted": t.accepted,
                    "rejected": t.rejected,
                    "shed": t.shed,
                    "tokens_charged": t.tokens_charged,
                    "wait_s_mean": (
                        t.wait_s_sum / t.accepted if t.accepted else 0.0
                    ),
                    "wait_s_max": t.wait_s_max,
                }
                for name, t in sorted(self._tenants.items())
            },
        }
