"""The serving engine: paged compressed KV + continuous batching.

One :class:`ServingEngine` owns a proxy model, a storage backend (Ecco
blocks or fp16), a byte-budgeted :class:`~repro.serve.pool.PagedKVPool`
and a :class:`~repro.serve.scheduler.ContinuousBatchingScheduler`.  Each
``step()`` draws from one token budget: every running request decodes
one token, and whatever remains goes to prompt ingestion — a whole
prompt per admission by default, or page-aligned chunks interleaved with
decode steps when ``prefill_chunk_tokens`` is set (Sarathi-style chunked
prefill), so one long prompt no longer stalls the whole batch.  Either
way the prompt runs through :func:`~repro.llm.decode.prefill_chunk` over
the request's stored KV (a whole prompt is one chunk), so its first
token's logits see exactly the KV later decode steps read.  When the
next step's KV growth would not fit the budget, the youngest
request is preempted — its pages swap out *in compressed form* and its
decoded-segment caches stay, so re-admission costs swap traffic but
zero re-decode.  The pool's byte budget is a hard invariant: the engine
verifies it after every step and fails loudly rather than silently
exceeding it.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from repro.core import read_streams
from repro.llm.decode import decode_step, prefill_chunk
from repro.llm.model import ProxyModel
from repro.obs import MetricsRegistry, NullRecorder, wall_clock

from .clock import StepCostModel
from .metrics import EngineMetrics, decode_step_sectors
from .pool import BudgetExceededError, PagedKVPool
from .request import Request, RequestState
from .scheduler import ContinuousBatchingScheduler, SchedulerPolicy
from .storage import EccoKVBackend, Fp16KVBackend

__all__ = ["ServingEngine"]


class _ServedRequestsKV:
    """Adapter: requests' RequestKVs behind the served forward's KV
    protocol (:class:`~repro.llm.decode.ServedKV`).

    The codec is called per layer, not per request or side: ``read``
    decodes every request's not-yet-decoded segments of both sides with
    one :func:`~repro.core.read_streams` (both storage formats keep a
    ``KVCacheStream`` per layer).  The subclasses store the new rows.
    """

    def __init__(self, requests: list[Request]):
        self.kvs = [request.kv for request in requests]

    def read(self, layer: int):
        return read_streams([kv.streams[layer] for kv in self.kvs])


class _StepKV(_ServedRequestsKV):
    """A decode step's running batch: ``append`` encodes the step's R new
    key and value rows with one ``backend.encode_pair`` (one backend
    serves every request of an engine) and hands each request its
    one-token slices."""

    def append(self, layer: int, keys: np.ndarray, values: np.ndarray) -> None:
        backend = self.kvs[0].backend
        ones = (1,) * len(self.kvs)
        k_seg, v_seg = backend.encode_pair(layer, keys, values)
        k_parts = backend.slice_segment(k_seg, ones)
        v_parts = backend.slice_segment(v_seg, ones)
        for r, kv in enumerate(self.kvs):
            kv.append_token_layer(
                layer, keys[r], values[r], k_parts[r], v_parts[r]
            )


class _PromptKV(_ServedRequestsKV):
    """One request mid-prefill: ``append`` ingests a chunk's rows."""

    def append(self, layer: int, keys: np.ndarray, values: np.ndarray) -> None:
        self.kvs[0].ingest_chunk(layer, keys, values)


class ServingEngine:
    """Multi-request serving over a byte-budgeted paged KV pool."""

    #: Fresh requests admitted per step past a swapped queue head that
    #: cannot currently fit (see :meth:`_admit`).
    hol_bypass_limit = 1

    def __init__(
        self,
        model: ProxyModel,
        calib=None,
        *,
        storage: str = "ecco",
        byte_budget: int,
        page_tokens: int = 8,
        max_batch_size: int = 8,
        watermark: float = 0.05,
        policy: SchedulerPolicy | str = "fcfs",
        prefill_chunk_tokens: int | None = None,
        step_token_budget: int | None = None,
        prefix_reuse: bool = True,
        step_cost: StepCostModel | None = None,
        record_reference: bool = False,
        clock: Callable[[], float] = wall_clock,
        recorder=None,
    ):
        self.model = model
        spec = model.spec
        if storage == "ecco":
            if calib is None:
                raise ValueError("the ecco backend needs calibration data")
            self.backend = EccoKVBackend(spec.num_layers, spec.d_model, calib)
        elif storage == "fp16":
            self.backend = Fp16KVBackend(spec.num_layers, spec.d_model)
        else:
            raise KeyError(f"unknown storage {storage!r}; known: ecco, fp16")
        #: Observability (``repro.obs``): ``recorder`` captures request
        #: lifecycle spans, engine step-phase spans and pool instants —
        #: the allocation-free :class:`NullRecorder` by default; every
        #: engine and pool counter is readable from the metrics' registry
        #: (:attr:`registry`).  Neither touches the clock or any RNG, so
        #: a traced run is bit-identical to an untraced one.
        self.obs = recorder if recorder is not None else NullRecorder()
        self.metrics = EngineMetrics()
        self.pool = PagedKVPool(
            byte_budget,
            page_tokens=page_tokens,
            clock=clock,
            recorder=self.obs,
            registry=self.metrics.registry,
        )
        #: ``policy`` selects the scheduling decisions (admission order,
        #: preemption victim, load shedding): ``"fcfs"`` is the classic
        #: arrival-order behaviour, ``"deadline"`` is SLO-aware EDF (see
        #: ``repro.serve.scheduler``), or pass a SchedulerPolicy.
        self.scheduler = ContinuousBatchingScheduler(
            max_batch_size=max_batch_size,
            watermark=watermark,
            policy=policy,
            recorder=self.obs,
        )
        if prefill_chunk_tokens is not None:
            if prefill_chunk_tokens < 1:
                raise ValueError("prefill_chunk_tokens must be >= 1")
            # Chunk boundaries must sit on page boundaries (that is what
            # keeps chunked pages byte-identical to whole-prompt pages),
            # so round the chunk size up to a whole number of pages.
            prefill_chunk_tokens = max(
                page_tokens,
                -(-prefill_chunk_tokens // page_tokens) * page_tokens,
            )
        if step_token_budget is not None:
            if step_token_budget < 1:
                raise ValueError("step_token_budget must be >= 1")
            if prefill_chunk_tokens is None:
                raise ValueError(
                    "step_token_budget budgets chunked prefill; set "
                    "prefill_chunk_tokens with it"
                )
        self.prefill_chunk_tokens = prefill_chunk_tokens
        self.step_token_budget = step_token_budget
        #: Cross-turn/cross-request prefix reuse: at admission the pool's
        #: hash chain is matched against the prompt and every resident
        #: page (including promoted conversation tails) is attached
        #: instead of re-encoded; only the unmatched suffix is forwarded.
        #: Disable to benchmark cold-start behaviour.  An attached prefix
        #: records no raw K/V; :meth:`audit_kv` accounts for that.
        self.prefix_reuse = bool(prefix_reuse)
        #: Optional synchronous charging: when set (with a virtual
        #: ``clock``), prefill and decode work advances the clock as it
        #: happens, so a request's own prefill cost lands in its TTFT —
        #: warm (reused-prefix) turns come out measurably faster than
        #: cold ones even on an idle engine.  Replay-side charging
        #: (``replay_trace``) remains the fused-step roofline; do not
        #: combine the two on one engine.
        self.step_cost = step_cost
        if step_cost is not None and not hasattr(clock, "advance"):
            raise ValueError(
                "step_cost needs an advanceable clock (VirtualClock); "
                "a wall clock cannot be charged simulated time"
            )
        self.set_obs_track("engine")
        self._last_pool_sample = None
        self.record_reference = record_reference
        self.clock = clock
        self.requests: list[Request] = []
        self._next_request = 0
        self._used_ids: set[str] = set()
        #: Composition of the most recent step, for replay cost models:
        #: prompt tokens ingested, decode tokens generated, and the KV
        #: bytes decode attention read.
        self.last_step = {
            "prefill_tokens": 0,
            "decode_tokens": 0,
            "kv_read_bytes": 0.0,
        }

    # ------------------------------------------------------------------
    # Observability.
    # ------------------------------------------------------------------
    @property
    def registry(self) -> MetricsRegistry:
        """The metrics registry that publishes every engine/pool counter."""
        return self.metrics.registry

    def set_obs_track(self, track: str) -> None:
        """Rename this engine's trace tracks — the cluster router calls
        this to give each replica its own rows (``replica0/decode``,
        ``replica0/pool``, ...) in the Chrome export."""
        self.obs_track = track
        #: Precomputed per-phase track names, so the hot step loop does
        #: no string formatting when tracing is disabled.
        self._phase_tracks = {
            name: f"{track}/{name}"
            for name in ("admit", "prefill", "preempt", "decode")
        }
        self.pool.track = f"{track}/pool"

    def _sample_pool_gauges(self) -> None:
        """Per-step pool occupancy: registry gauges always, Chrome
        counter samples only when tracing and only on change (a steady
        pool adds no events)."""
        pool = self.pool
        registry = self.metrics.registry
        registry.gauge_set("pool.bytes_resident", pool.bytes_resident)
        registry.gauge_set("pool.bytes_active", pool.bytes_active)
        registry.gauge_set("pool.bytes_evictable", pool.bytes_evictable)
        registry.gauge_set("pool.bytes_swapped", pool.bytes_swapped)
        if self.obs.enabled:
            sample = (
                pool.bytes_active,
                pool.bytes_evictable,
                pool.bytes_swapped,
            )
            if sample != self._last_pool_sample:
                self._last_pool_sample = sample
                self.obs.counter(
                    "pool.bytes_active", pool.bytes_active, pool.track
                )
                self.obs.counter(
                    "pool.bytes_evictable", pool.bytes_evictable, pool.track
                )
                self.obs.counter(
                    "pool.bytes_swapped", pool.bytes_swapped, pool.track
                )

    # ------------------------------------------------------------------
    # Submission.
    # ------------------------------------------------------------------
    def submit(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        request_id: str | None = None,
        eos_token: int | None = None,
        session_id: str | None = None,
        slo=None,
    ) -> Request:
        """Queue one request; rejects requests that can never fit.

        Caller-supplied IDs must be unique; auto-generated IDs are
        assigned only after the request passes the budget check, so a
        rejected or invalid request burns neither an ID nor a counter.
        ``session_id`` tags the request as one turn of a multi-turn
        conversation (see ``repro.serve.session``) for report
        attribution and cluster session affinity.  ``slo`` attaches
        latency objectives (``repro.serve.slo.SLO``) the deadline-aware
        policy schedules and sheds on.
        """
        request = Request(
            request_id="",
            prompt=prompt,
            max_new_tokens=max_new_tokens,
            eos_token=eos_token,
            session_id=session_id,
            slo=slo,
        )
        if request_id is not None and request_id in self._used_ids:
            raise ValueError(f"duplicate request_id {request_id!r}")
        full_bytes = (
            request.prompt_len + request.max_new_tokens
        ) * self.backend.per_token_nbytes
        if full_bytes > self.pool.byte_budget:
            raise BudgetExceededError(
                f"request needs {full_bytes} B of KV at full length but the "
                f"pool budget is {self.pool.byte_budget} B"
            )
        if request_id is None:
            while f"req-{self._next_request}" in self._used_ids:
                self._next_request += 1
            request_id = f"req-{self._next_request}"
            self._next_request += 1
        request.request_id = request_id
        self._used_ids.add(request_id)
        request.metrics.arrival_s = self.clock()
        self.requests.append(request)
        self.scheduler.submit(request)
        return request

    # ------------------------------------------------------------------
    # Scheduling helpers.
    # ------------------------------------------------------------------
    def _growth_need(self, request: Request) -> int:
        """Bytes a re-admitted request claims on its next step of work:
        one decode token, or its next prefill chunk while mid-prompt."""
        per_token = self.backend.per_token_nbytes
        if request.prefill_done:
            return per_token
        remaining = request.prompt_len - request.prefill_pos
        chunk = self.prefill_chunk_tokens or remaining
        return min(chunk, remaining) * per_token

    def _admit(self) -> int:
        """Swapped victims first, then fresh prefills; returns the
        prompt tokens ingested by unchunked prefills (one chunk each)."""
        scheduler, pool = self.scheduler, self.pool
        per_token = self.backend.per_token_nbytes
        tokens = 0
        head_stuck = False
        # Preempted requests first: their compressed bytes swap back in.
        while scheduler.swapped and scheduler.has_batch_room:
            request = scheduler.swapped[0]
            need = request.kv.logical_nbytes + self._growth_need(request)
            if need > scheduler.admission_headroom(pool) and scheduler.num_active:
                head_stuck = True
                break
            request.kv.swap_in()
            scheduler.activate(request, "swapped")
        # Then fresh prefills.  A swapped head that cannot currently fit
        # no longer blocks the whole queue: up to ``hol_bypass_limit``
        # fresh requests may be admitted past it per step.  The blocked
        # condition is only real — and only counted — if there actually
        # is fresh work queued behind the stuck head.
        blocked = head_stuck and bool(scheduler.waiting)
        bypassed = 0
        while scheduler.waiting:
            now = self.clock()
            # The policy picks the admission candidate (FCFS: queue
            # head; deadline: earliest TTFT deadline) and may refuse it
            # outright — a request whose SLO is already blown at
            # admission is shed through the 429 path instead of burning
            # prefill work on a token nobody is waiting for.  Shedding
            # proceeds even with a full batch: it only clears backlog.
            request = scheduler.peek_waiting(now)
            if scheduler.policy.should_shed(request, now):
                scheduler.shed(request)
                self.metrics.shed_requests += 1
                continue
            if not scheduler.has_batch_room:
                break
            if head_stuck and bypassed >= self.hol_bypass_limit:
                break
            # Unified headroom formula: the prompt plus one decode token
            # of growth — exactly what the swapped path asks for — so a
            # fresh admission is never immediately preempted for lack of
            # decode headroom.
            need = (request.prompt_len + 1) * per_token
            if need > scheduler.admission_headroom(pool) and scheduler.num_active:
                break
            tokens += self._start(request)
            if head_stuck:
                bypassed += 1
                self.metrics.hol_bypasses += 1
        if blocked:
            self.metrics.hol_blocked_steps += 1
        return tokens

    def _attach_prefix(self, request: Request) -> int:
        """Attach whatever resident prefix the pool holds for this
        prompt; records the per-request and engine-level reuse metrics.
        Returns the attached token count (0 on a cold start)."""
        if not self.prefix_reuse:
            return 0
        attached = request.kv.attach_cached_prefix()
        if attached:
            request.metrics.cached_tokens = attached
            request.metrics.cached_pages = len(request.kv.pages)
            request.metrics.split_tokens = request.kv.split_tokens
            self.metrics.warm_prefills += 1
            self.metrics.prefix_tokens_reused += attached
            self.metrics.prefix_pages_reused += len(request.kv.pages)
            if request.kv.split_tokens:
                self.metrics.prefix_partial_attaches += 1
                self.metrics.split_tokens_salvaged += request.kv.split_tokens
        return attached

    def _start(self, request: Request) -> int:
        """Admit one fresh request: attach whatever prefix the pool holds
        (an attached history is read straight from the cache).  A
        chunked engine queues the rest of the prompt for
        :meth:`_chunk_work`; an unchunked one ingests it now as one chunk
        and emits the first token.  Returns the prompt tokens this cost
        the step."""
        request.kv = self.backend.create_request(
            self.pool, request.prompt, record_raw=self.record_reference
        )
        request.prefill_pos = self._attach_prefix(request)
        if self.prefill_chunk_tokens is not None:
            self.scheduler.activate(request, "waiting")
            return 0
        tokens = request.prompt_len - request.prefill_pos
        last_logits = self._run_chunk(request, request.prompt_len)
        self.scheduler.activate(request, "waiting")
        self._emit_first_token(request, last_logits)
        return tokens

    def _emit_first_token(self, request: Request, last_logits) -> None:
        first = int(np.argmax(last_logits))
        now = self.clock()
        request.generated.append(first)
        request.metrics.first_token_s = now
        request.metrics.token_s.append(now)
        self.metrics.prefills += 1
        self.metrics.registry.observe(
            "request.ttft_s", now - request.metrics.arrival_s
        )
        self.obs.instant(
            "first_token", request.request_id, cat="request", token=first
        )
        if request.finished:
            self._finish(request, now)

    def _chunk_work(self) -> int:
        """Run prefill chunks for PREFILLING requests within the step's
        token budget (chunked engines admit without ingesting, so these
        chunks and the decode batch are all the step spends); returns the
        prompt tokens ingested."""
        scheduler, pool = self.scheduler, self.pool
        per_token = self.backend.per_token_nbytes
        page = self.pool.page_tokens
        tokens = 0
        # Oldest first — by *arrival*, not queue insertion order (swap
        # round-trips reorder the queue).  The stall policy below lets a
        # stalled request displace only younger rivals, so the oldest
        # must get first claim on headroom or two mutually-stalled
        # prefills can deadlock: a younger head stalls, breaks the loop,
        # and the older request that could preempt it never runs.
        for request in sorted(
            scheduler.prefilling, key=lambda r: r.metrics.arrival_s
        ):
            if request.state is not RequestState.PREFILLING:
                continue  # preempted by an older stalled chunk below
            allowance = None
            if self.step_token_budget is not None:
                allowance = (
                    self.step_token_budget - tokens - len(scheduler.running)
                )
                if allowance <= 0:
                    break
            remaining = request.prompt_len - request.prefill_pos
            chunk = min(self.prefill_chunk_tokens, remaining)
            if allowance is not None:
                chunk = min(chunk, allowance)
            if chunk < remaining:
                # Mid-prompt chunks must end on a page boundary — except
                # for warm requests, whose attached prefix may end
                # mid-page (their tail is promoted whole at release).
                align = request.kv.chunk_align
                chunk = (chunk // align) * align
                if chunk == 0:
                    break
            # Byte headroom for the chunk, *plus* this step's decode
            # growth — otherwise a chunk could be ingested only for the
            # capacity pass moments later to swap the same request
            # straight back out.  Decoding requests are never displaced
            # for prefill work — but younger *prefilling* requests are,
            # which is what breaks the mutual-stall case where several
            # long prompts were admitted together and none could
            # otherwise finish ingesting.
            need = (chunk + len(scheduler.running)) * per_token
            stalled = False
            while not pool.can_fit_with_eviction(need):
                # Never displace a *strictly older* rival (it has more
                # sunk work); same-instant arrivals are fair game, which
                # keeps the oldest stalled request able to make room.
                rivals = [
                    r
                    for r in scheduler.prefilling
                    if r is not request
                    and r.metrics.arrival_s >= request.metrics.arrival_s
                ]
                if not rivals:
                    stalled = True
                    break
                victim = max(rivals, key=lambda r: r.metrics.arrival_s)
                victim.kv.swap_out()
                scheduler.preempt(victim)
                self.metrics.preemptions += 1
                self.obs.instant(
                    "preempt",
                    victim.request_id,
                    cat="request",
                    cause="prefill_stall",
                )
            if stalled:
                self.metrics.prefill_stalls += 1
                break
            last_logits = self._run_chunk(request, request.prefill_pos + chunk)
            tokens += chunk
            if request.prefill_done:
                self.scheduler.promote(request)
                self._emit_first_token(request, last_logits)
        return tokens

    def _run_chunk(self, request: Request, end: int) -> np.ndarray:
        """Run the prompt from ``request.prefill_pos`` to ``end`` through
        the model as one chunk over the request's stored KV, store the
        chunk's KV and count it; returns the chunk's last-row logits.

        A chunked engine also records the chunk (a ``prefill_chunk``
        instant and the engine's chunk counters); an unchunked one
        ingests each prompt as a single chunk and records none of that.
        """
        start = request.prefill_pos
        tokens = end - start
        request.kv.begin_chunk(start, end)
        logits = prefill_chunk(
            self.model, request.prompt[start:end], start, _PromptKV([request])
        )
        request.kv.commit_chunk()
        request.prefill_pos = end
        request.metrics.prefill_chunks += 1
        if self.prefill_chunk_tokens is not None:
            self.obs.instant(
                "prefill_chunk",
                request.request_id,
                cat="request",
                start=start,
                end=end,
            )
            self.metrics.prefill_chunks += 1
            self.metrics.chunked_prefill_tokens += tokens
        self.metrics.prefill_forwarded_tokens += tokens
        if self.step_cost is not None:
            self.clock.advance(self.step_cost.prefill_s(tokens))
        return logits[-1]

    def _ensure_decode_capacity(self) -> None:
        """Preempt (youngest first) until this step's KV growth fits.

        Enforced down to the last running request: if even a lone
        request's one-token growth cannot fit after preempting every
        other active request and draining the prefix cache, the engine
        fails loudly instead of letting the pool exceed its budget.
        """
        scheduler, pool = self.scheduler, self.pool
        while True:
            need = len(scheduler.running) * self.backend.per_token_nbytes
            if pool.can_fit_with_eviction(need):
                return
            victim = scheduler.pick_victim(self.clock())
            if victim is None:
                raise RuntimeError(
                    f"KV byte budget cannot absorb this step's {need} B of "
                    f"decode growth even with a single active request "
                    f"({pool.bytes_active} B active of "
                    f"{pool.byte_budget} B); the budget is too small for "
                    f"the admitted request"
                )
            victim.kv.swap_out()
            scheduler.preempt(victim)
            self.metrics.preemptions += 1
            self.obs.instant(
                "preempt",
                victim.request_id,
                cat="request",
                cause="decode_growth",
            )

    def _finish(self, request: Request, now: float) -> None:
        # Releasing a request can only unpin bytes (tail promotion moves
        # private bytes into an evictable page; page releases demote to
        # the prefix cache).  If active bytes *rose*, release leaked a
        # pin somewhere — fail here, attributably, not at some later
        # budget check.
        active_before = self.pool.bytes_active
        request.kv.release()
        if self.pool.bytes_active > active_before:
            raise RuntimeError(
                f"releasing {request.request_id!r} raised active KV bytes "
                f"{active_before} -> {self.pool.bytes_active}"
            )
        self.scheduler.finish(request)
        request.metrics.finish_s = now
        self.metrics.registry.observe(
            "request.e2e_s", now - request.metrics.arrival_s
        )

    # ------------------------------------------------------------------
    # The step loop.
    # ------------------------------------------------------------------
    def step(self) -> int:
        """One scheduler iteration; returns tokens processed this step
        (prompt tokens ingested plus decode tokens generated).

        Each phase runs under its own trace span (``cat="phase"``), so a
        recorded step renders as four rows — admit / prefill / preempt /
        decode — in the Chrome export.  The capacity pass that
        used to open ``_decode`` runs as the explicit ``preempt`` phase,
        so preemption cost is visible separately from decode compute;
        the work order is unchanged.
        """
        obs, tracks = self.obs, self._phase_tracks
        with obs.span("admit", tracks["admit"], cat="phase"):
            prefill_tokens = self._admit()
        with obs.span("prefill", tracks["prefill"], cat="phase"):
            prefill_tokens += self._chunk_work()
        with obs.span("preempt", tracks["preempt"], cat="phase"):
            if self.scheduler.running:
                self._ensure_decode_capacity()
        with obs.span("decode", tracks["decode"], cat="phase"):
            decode_tokens, kv_read = self._decode()
        self.last_step = {
            "prefill_tokens": prefill_tokens,
            "decode_tokens": decode_tokens,
            "kv_read_bytes": kv_read,
        }
        # The budget is a hard invariant; any drift fails here, loudly.
        self.pool.check_budget()
        self._sample_pool_gauges()
        return prefill_tokens + decode_tokens

    def _decode(self) -> tuple[int, float]:
        if not self.scheduler.running:
            return 0, 0.0
        batch = list(self.scheduler.running)
        # Count concurrency after the capacity pass: these requests
        # actually decode together this step.
        self.metrics.record_concurrency(len(batch))

        token_ids = np.array([r.generated[-1] for r in batch], dtype=np.int64)
        positions = np.array([r.kv.num_tokens for r in batch], dtype=np.int64)
        logits = decode_step(self.model, token_ids, positions, _StepKV(batch))
        for request in batch:
            request.kv.commit_token(request.generated[-1])
        # Traffic is accounted after commits (so the fp16-equivalent sum
        # counts this step's token, like the compressed sum does) but
        # before finishes release any KV: attention read every request's
        # full history this step, including the ones about to finish.
        kv_read = float(sum(r.kv.logical_nbytes for r in batch))
        kv_read_fp16 = float(sum(r.kv.logical_fp16_nbytes for r in batch))
        if self.step_cost is not None:
            self.clock.advance(self.step_cost.decode_s(len(batch), kv_read))
        now = self.clock()
        for r, request in enumerate(batch):
            request.generated.append(int(np.argmax(logits[r])))
            request.metrics.token_s.append(now)
            if request.finished:
                self._finish(request, now)

        spec = self.model.spec
        self.metrics.record_decode_step(
            batch=len(batch),
            kv_read_bytes=kv_read,
            kv_read_fp16_bytes=kv_read_fp16,
            sectors=decode_step_sectors(
                spec.num_layers,
                spec.d_model,
                spec.ffn_dim,
                len(batch),
                kv_read,
            ),
        )
        return len(batch), kv_read

    @property
    def has_work(self) -> bool:
        return self.scheduler.has_work

    def run(self, max_steps: int = 100_000) -> dict:
        """Drive ``step()`` until every submitted request finishes.

        The only driver on a wall clock: the async front-end pump needs
        an advanceable ``VirtualClock``, so measuring real tokens/s
        (``bench_serve_throughput``, ``examples/serving_engine.py``)
        goes through this loop.
        """
        start = self.clock()
        steps = 0
        while self.scheduler.has_work:
            if steps >= max_steps:
                raise RuntimeError(f"engine did not drain in {max_steps} steps")
            self.step()
            steps += 1
        return self.report(self.clock() - start)

    def audit_kv(self) -> list[str]:
        """The bit-exact KV contract, checked over every request this
        engine admitted; returns the violations found (empty = holds).

        The rows a request forwarded itself — its recorded raw K/V —
        must read back equal to a single-stream store of those rows
        alone (``backend.roundtrip_rows``), however they were batched
        with other requests, chunked, paged, swapped or coalesced on the
        way.  An attached prefix recorded no raw rows, so each row a
        request attached from the prefix cache must equal a row some
        request of this engine produced that way for the identical token
        prefix — the turn that actually encoded it.  Needs
        ``record_reference=True``.
        """
        if not self.record_reference:
            raise ValueError(
                "audit_kv needs the raw K/V record: build the engine with "
                "record_reference=True"
            )
        problems: list[str] = []
        produced: dict[tuple, set[bytes]] = {}
        borrowed: list[tuple] = []
        for request in self.requests:
            kv = request.kv
            if kv is None or not kv.token_ids:
                continue  # never admitted, or nothing ingested yet
            digest = hashlib.blake2b(digest_size=12)
            prefixes = []
            for token in kv.token_ids:
                digest.update(int(token).to_bytes(8, "little"))
                prefixes.append(digest.digest())
            own_from = kv.attached_tokens
            for layer in range(self.backend.num_layers):
                for side in ("keys", "values"):
                    stored = kv.read(layer, side)
                    parts = [row[None, :] for row in kv.raw_decode[layer][side]]
                    if kv.raw_prompt[layer][side] is not None:
                        parts.insert(0, kv.raw_prompt[layer][side])
                    raw_rows = sum(part.shape[0] for part in parts)
                    if own_from + raw_rows != stored.shape[0]:
                        problems.append(
                            f"{request.request_id}: layer {layer} {side} "
                            f"stores {stored.shape[0]} rows but attached "
                            f"{own_from} and recorded {raw_rows}"
                        )
                        continue
                    if parts and not np.array_equal(
                        self.backend.roundtrip_rows(
                            layer, side, np.concatenate(parts, axis=0)
                        ),
                        stored[own_from:],
                    ):
                        problems.append(
                            f"{request.request_id}: layer {layer} {side} "
                            f"differs from the single-stream reference"
                        )
                    for pos, prefix in enumerate(prefixes):
                        row = stored[pos].tobytes()
                        if pos < own_from:
                            borrowed.append(
                                (request.request_id, layer, side, prefix, row)
                            )
                        else:
                            produced.setdefault(
                                (layer, side, prefix), set()
                            ).add(row)
        orphaned = dict.fromkeys(
            request_id
            for request_id, layer, side, prefix, row in borrowed
            if row not in produced.get((layer, side, prefix), ())
        )
        problems.extend(
            f"{request_id}: an attached row matches no single-stream "
            f"encode of its token prefix"
            for request_id in orphaned
        )
        return problems

    def report(self, elapsed_s: float) -> dict:
        summary = self.metrics.summary(self.requests, self.pool, elapsed_s)
        summary["storage"] = self.backend.name
        summary["per_token_nbytes"] = self.backend.per_token_nbytes
        return summary
