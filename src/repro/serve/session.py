"""Multi-turn sessions: cross-turn compressed-KV reuse over the engine.

A :class:`Session` is one conversation against a
:class:`~repro.serve.engine.ServingEngine`, a
:class:`~repro.serve.cluster.ClusterRouter`, or the async front-end
(:class:`~repro.serve.frontend.AsyncServingEngine`): turn N+1 is
submitted as the full history (every prior prompt and every generated
token) plus the new user text.  Because a finished request's final
partial page is promoted into the pool's hash chain at release, the
next turn's admission attaches the *entire* stored history — full pages
and the promoted tail alike — re-encoding nothing and forwarding only
the new suffix through the model.  The session itself holds no KV:
reuse rides entirely on the pool's prefix cache, so history survives
engine restarts of the session object, competes fairly with other
tenants for budget, and degrades gracefully (a partially evicted
history simply re-encodes the evicted part).

On a cluster, turns carry their ``session_id`` so the router pins the
whole conversation to one replica — the only place its cached history
lives.

:func:`replay_sessions` drives a generated
:class:`~repro.serve.workload.SessionTrace` workload on a virtual
clock, as the second closed-loop client of the async front-end (the
first is :func:`~repro.serve.workload.replay_trace`): each session is
one coroutine that awaits its turn's stream, sleeps through the seeded
think-time gap, and submits the next turn.
"""

from __future__ import annotations

import numpy as np

from .clock import StepCostModel, VirtualClock
from .frontend import AsyncServingEngine, RequestShedError
from .pool import BudgetExceededError
from .request import Request
from .workload import SessionTrace

__all__ = ["Session", "replay_sessions"]


class Session:
    """One multi-turn conversation routed at a serving engine/cluster.

    ``submit_turn`` returns whatever the target's ``submit`` returns —
    an engine-side :class:`~repro.serve.request.Request` for the
    synchronous targets, a stream handle for the async front-end; the
    session tracks either transparently.
    """

    def __init__(
        self,
        target,
        session_id: str,
        eos_token: int | None = None,
        slo=None,
        tenant: str | None = None,
    ):
        self.target = target
        self.session_id = str(session_id)
        self.eos_token = eos_token
        self.slo = slo
        self.tenant = tenant
        #: The conversation so far: every turn's prompt delta + reply.
        self.history = np.zeros(0, dtype=np.int64)
        #: What ``submit`` returned for each turn, in order (Request or
        #: stream handle).
        self._submissions: list = []

    @staticmethod
    def _request_of(item) -> Request | None:
        """The engine-side request behind one submission (``None`` while
        a front-end handle still waits in a tenant queue)."""
        if isinstance(item, Request):
            return item
        return item.request

    @property
    def requests(self) -> list[Request]:
        """Engine-side requests of every dispatched turn, in order."""
        resolved = (self._request_of(item) for item in self._submissions)
        return [request for request in resolved if request is not None]

    @property
    def num_turns(self) -> int:
        return len(self._submissions)

    @property
    def active(self):
        """The in-flight turn (request or queued handle), or ``None``
        between turns.  A shed or timed-out turn is not active — its
        stream will never produce the reply, so the conversation can
        only move on without it."""
        if not self._submissions:
            return None
        item = self._submissions[-1]
        request = self._request_of(item)
        if request is None:
            # Front-end handle not yet dispatched: in flight unless the
            # handle already failed (shed/rejected at the front door).
            return None if item.done else item
        return None if request.terminal else request

    def _fold_last_turn(self) -> None:
        """Absorb the finished last turn into the history.  A turn that
        never finished (rejected, shed, abandoned) contributes nothing —
        its user text was never answered, so the next turn's prompt
        drops it, exactly like a chat client discarding a failed send."""
        last = self._request_of(self._submissions[-1])
        if last is None or last.metrics.finish_s is None:
            return
        self.history = np.concatenate(
            [last.prompt, np.asarray(last.generated, dtype=np.int64)]
        )

    def submit_turn(self, user_tokens: np.ndarray, max_new_tokens: int):
        """Submit the next turn: history + new user text.

        The previous turn must have finished (its reply is part of this
        turn's prompt).  Raises whatever the target's ``submit`` raises —
        notably :class:`~repro.serve.pool.BudgetExceededError` when the
        grown conversation can no longer ever fit the pool budget.
        """
        if self.active is not None:
            last = self._submissions[-1]
            request = self._request_of(last)
            in_flight = request.request_id if request is not None else "queued"
            raise RuntimeError(
                f"session {self.session_id!r}: previous turn "
                f"{in_flight!r} is still in flight"
            )
        if self._submissions:
            self._fold_last_turn()
        user_tokens = np.asarray(user_tokens, dtype=np.int64).reshape(-1)
        prompt = np.concatenate([self.history, user_tokens])
        item = self.target.submit(
            prompt,
            max_new_tokens,
            request_id=f"{self.session_id}/turn-{self.num_turns}",
            eos_token=self.eos_token,
            session_id=self.session_id,
            slo=self.slo,
            tenant=self.tenant,
        )
        self._submissions.append(item)
        return item

    def turn_reports(self) -> list[dict]:
        """Per-turn reuse record: pages hit, tokens re-encoded, TTFT."""
        out = []
        for turn, request in enumerate(self.requests):
            m = request.metrics
            out.append(
                {
                    "turn": turn,
                    "request_id": request.request_id,
                    "session_id": self.session_id,
                    "prompt_tokens": request.prompt_len,
                    "cached_tokens": m.cached_tokens,
                    "cached_pages": m.cached_pages,
                    "split_tokens": m.split_tokens,
                    "reencoded_tokens": request.prompt_len - m.cached_tokens,
                    "generated_tokens": len(request.generated),
                    "ttft_s": m.ttft_s,
                    "e2e_s": m.e2e_s,
                }
            )
        return out


def replay_sessions(
    target,
    traces: list[SessionTrace],
    clock: VirtualClock,
    step_cost: StepCostModel | None = None,
    max_steps: int = 500_000,
) -> dict:
    """Drive ``target`` through multi-turn session traces on a clock.

    Each session runs as one front-end client coroutine: its first turn
    arrives at the trace's ``start_s``; turn k+1 arrives at turn k's
    finish plus the trace's seeded think-time gap, with the stream
    awaited in between.  Time accounting is either *synchronous* (the
    engine was built with ``step_cost=`` and charges its own clock as
    work happens — leave ``step_cost`` unset here) or replay-side (pass
    a ``step_cost``; the front-end pump charges each fused step's
    roofline, which is also how a multi-replica cluster must be
    charged).  Turns the target rejects outright (the grown
    conversation can never fit the budget) or sheds at admission (SLO
    blown under a deadline policy) abort their session and are counted.

    Returns replay totals plus the live :class:`Session` objects under
    ``"sessions"`` — feed their ``turn_reports()`` to
    :func:`repro.serve.metrics.summarize_turns` for the reuse summary.
    """
    if isinstance(target, AsyncServingEngine):
        frontend = target
    else:
        frontend = AsyncServingEngine(
            target, step_cost=step_cost, max_steps=max_steps
        )
    sessions = [Session(frontend, trace.session_id) for trace in traces]
    counts = {"submitted": 0, "rejected": 0}

    async def _drive(trace: SessionTrace, session: Session) -> None:
        ready = trace.start_s
        for turn in trace.turns:
            await frontend.sleep_until(ready)
            try:
                handle = session.submit_turn(
                    turn.user_tokens, turn.max_new_tokens
                )
            except BudgetExceededError:
                counts["rejected"] += 1
                return  # abort: every later turn needs this one's reply
            # TTFT anchors on when the user hit enter, not on the step
            # boundary where the submit landed.
            handle.anchor_arrival(ready)
            counts["submitted"] += 1
            try:
                await handle.result()
            except RequestShedError:
                counts["rejected"] += 1
                return
            finish = handle.request.metrics.finish_s
            next_index = session.num_turns
            if next_index < trace.num_turns:
                ready = finish + trace.turns[next_index].think_s

    frontend.drive(
        *(_drive(trace, s) for trace, s in zip(traces, sessions))
    )
    return {
        "sessions": sessions,
        "num_sessions": len(sessions),
        "turns_total": sum(trace.num_turns for trace in traces),
        "turns_submitted": counts["submitted"],
        "turns_rejected": counts["rejected"],
        "steps": frontend.steps,
        "tokens_processed": frontend.tokens_processed,
        "simulated_s": clock.now_s,
    }
