"""Reproducible trace-driven workloads for the serving engine.

Three layers, all seeded and deterministic:

* **Arrival processes** — request timestamps over a window: homogeneous
  Poisson and bursty (a two-state on/off modulated Poisson, the classic
  MMPP-2 shape of production traffic spikes).
* **Scenario generators** — what each request looks like: ``chat``
  (one short shared system prompt + a unique turn), ``rag`` (one of a
  few *long* shared system prompts — the retrieval corpus preamble —
  plus a unique query; this is what stresses the prefix cache and,
  unchunked, stalls the batch), and ``agent`` (tool-use loops: the same
  conversation resubmitted with its context grown every iteration, so
  consecutive requests share ever-longer page-aligned prefixes).
* **Replay** — :func:`replay_trace` drives an engine (or cluster) on a
  :class:`VirtualClock`: requests are submitted when the simulated time
  reaches their arrival, and each engine step advances the clock by a
  :class:`StepCostModel` charge — a compute-vs-bandwidth roofline over
  the step's token and KV-read composition.  Latency metrics (TTFT,
  e2e) therefore come out in deterministic simulated seconds — a long
  unchunked prefill makes its step *cost more time* than the decode
  batch's bandwidth lane would have, which is exactly the stall the
  chunked-prefill path exists to remove.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .clock import StepCostModel, VirtualClock
from .frontend import (
    AsyncServingEngine,
    RequestShedError,
    RequestTimeoutError,
)
from .pool import BudgetExceededError

__all__ = [
    "RetryPolicy",
    "SessionTrace",
    "SessionTurn",
    "SessionWorkloadConfig",
    "StepCostModel",
    "TraceRequest",
    "VirtualClock",
    "WorkloadConfig",
    "bursty_arrivals",
    "generate_sessions",
    "generate_trace",
    "poisson_arrivals",
    "replay_open_loop",
    "replay_trace",
]


# ----------------------------------------------------------------------
# Arrival processes.
# ----------------------------------------------------------------------

def poisson_arrivals(
    rate_rps: float, duration_s: float, rng: np.random.Generator
) -> np.ndarray:
    """Homogeneous Poisson arrivals: exponential inter-arrival gaps."""
    if rate_rps <= 0 or duration_s <= 0:
        raise ValueError("rate_rps and duration_s must be positive")
    # Draw enough gaps to overshoot the window, then clip.
    expect = max(8, int(rate_rps * duration_s * 2 + 16))
    gaps = rng.exponential(1.0 / rate_rps, size=expect)
    times = np.cumsum(gaps)
    while times.size and times[-1] < duration_s:
        more = np.cumsum(rng.exponential(1.0 / rate_rps, size=expect))
        times = np.concatenate([times, times[-1] + more])
    return times[times < duration_s]


def bursty_arrivals(
    base_rps: float,
    burst_rps: float,
    duration_s: float,
    rng: np.random.Generator,
    mean_on_s: float = 2.0,
    mean_off_s: float = 6.0,
) -> np.ndarray:
    """Two-state modulated Poisson: calm at ``base_rps``, bursts at
    ``burst_rps`` during exponentially-distributed on-periods."""
    if burst_rps < base_rps:
        raise ValueError("burst_rps must be >= base_rps")
    times: list[np.ndarray] = []
    t = 0.0
    on = False
    while t < duration_s:
        hold = rng.exponential(mean_on_s if on else mean_off_s)
        hold = min(hold, duration_s - t)
        rate = burst_rps if on else base_rps
        if hold > 0 and rate > 0:
            seg = poisson_arrivals(rate, hold, rng)
            times.append(t + seg)
        t += hold
        on = not on
    if not times:
        return np.zeros(0)
    return np.sort(np.concatenate(times))


_ARRIVALS = {
    "poisson": lambda cfg, rng: poisson_arrivals(
        cfg.rate_rps, cfg.duration_s, rng
    ),
    "bursty": lambda cfg, rng: bursty_arrivals(
        cfg.rate_rps * 0.25, cfg.rate_rps * 3.0, cfg.duration_s, rng
    ),
}


# ----------------------------------------------------------------------
# Scenarios.
# ----------------------------------------------------------------------

@dataclass
class TraceRequest:
    """One arrival in a workload trace."""

    arrival_s: float
    prompt: np.ndarray
    max_new_tokens: int
    scenario: str = "chat"
    #: Optional latency objectives (``repro.serve.slo.SLO``).  ``None``
    #: means no deadline; the generators leave it unset and benchmarks
    #: decorate the trace afterwards.
    slo: object | None = None


@dataclass
class WorkloadConfig:
    """Knobs for one generated trace.

    Lengths are lognormal (the empirically heavy-tailed shape of chat
    prompts/replies), clipped to ``[min, max]``; shared-prefix lengths
    are rounded to page multiples by the generator so sharing actually
    lands on page boundaries.
    """

    duration_s: float = 30.0
    rate_rps: float = 1.0
    arrivals: str = "poisson"          # poisson | bursty
    mix: dict = field(
        default_factory=lambda: {"chat": 0.6, "rag": 0.25, "agent": 0.15}
    )
    vocab_size: int = 64
    page_tokens: int = 8
    # chat: short shared system prompt + unique turn.
    chat_system_pages: int = 1
    chat_turn_mean: float = 12.0
    chat_turn_sigma: float = 0.5
    # rag: few long shared corpus preambles + unique query.
    rag_corpora: int = 2
    rag_system_pages: int = 6
    rag_query_mean: float = 10.0
    rag_query_sigma: float = 0.4
    # agent: conversations that grow by one tool-loop iteration each
    # resubmission (consecutive iterations share the whole prefix).
    agent_loops: int = 4
    agent_seed_pages: int = 2
    agent_growth_pages: int = 1
    # decode lengths.
    output_mean: float = 8.0
    output_sigma: float = 0.5
    min_tokens: int = 2
    max_tokens: int = 64


def _lognormal_int(
    rng: np.random.Generator, mean: float, sigma: float, lo: int, hi: int
) -> int:
    draw = rng.lognormal(np.log(max(mean, 1.0)), sigma)
    return int(np.clip(round(draw), lo, hi))


def _tokens(rng: np.random.Generator, n: int, vocab: int) -> np.ndarray:
    return rng.integers(0, vocab, size=n, dtype=np.int64)


def generate_trace(
    config: WorkloadConfig | None = None, seed: int = 0, **overrides
) -> list[TraceRequest]:
    """A reproducible request trace: arrivals x scenario mix.

    ``overrides`` patch individual :class:`WorkloadConfig` fields, so
    ``generate_trace(seed=1, arrivals="bursty", rate_rps=4.0)`` works
    without building a config by hand.  The same (config, seed) pair
    always yields the identical trace.
    """
    if config is None:
        config = WorkloadConfig()
    if overrides:
        config = WorkloadConfig(**{**config.__dict__, **overrides})
    if config.arrivals not in _ARRIVALS:
        raise KeyError(
            f"unknown arrival process {config.arrivals!r}; "
            f"known: {sorted(_ARRIVALS)}"
        )
    names = sorted(config.mix)
    weights = np.array([config.mix[k] for k in names], dtype=np.float64)
    if weights.sum() <= 0:
        raise ValueError("scenario mix weights must sum to > 0")
    weights /= weights.sum()

    rng = np.random.default_rng(seed)
    times = _ARRIVALS[config.arrivals](config, rng)
    P = config.page_tokens
    vocab = config.vocab_size

    # Shared material, fixed per trace: prefix sharing only helps if
    # many requests literally repeat these tokens.
    chat_system = _tokens(rng, config.chat_system_pages * P, vocab)
    rag_systems = [
        _tokens(rng, config.rag_system_pages * P, vocab)
        for _ in range(config.rag_corpora)
    ]
    agent_contexts: list[np.ndarray] = []

    def _chat() -> np.ndarray:
        turn = _lognormal_int(
            rng, config.chat_turn_mean, config.chat_turn_sigma,
            config.min_tokens, config.max_tokens,
        )
        return np.concatenate([chat_system, _tokens(rng, turn, vocab)])

    def _rag() -> np.ndarray:
        system = rag_systems[int(rng.integers(len(rag_systems)))]
        query = _lognormal_int(
            rng, config.rag_query_mean, config.rag_query_sigma,
            config.min_tokens, config.max_tokens,
        )
        return np.concatenate([system, _tokens(rng, query, vocab)])

    def _agent() -> np.ndarray:
        # Start a new conversation, or grow an existing one by one
        # page-aligned loop iteration (the prefix-cache stressor).
        grow = agent_contexts and rng.uniform() < (
            1.0 - 1.0 / config.agent_loops
        )
        if grow:
            i = int(rng.integers(len(agent_contexts)))
            grown = np.concatenate([
                agent_contexts[i],
                _tokens(rng, config.agent_growth_pages * P, vocab),
            ])
            agent_contexts[i] = grown
            return grown
        fresh = _tokens(rng, config.agent_seed_pages * P, vocab)
        agent_contexts.append(fresh)
        return fresh

    make = {"chat": _chat, "rag": _rag, "agent": _agent}
    for name in names:
        if name not in make:
            raise KeyError(
                f"unknown scenario {name!r}; known: {sorted(make)}"
            )

    trace = []
    for t in times:
        scenario = names[int(rng.choice(len(names), p=weights))]
        prompt = make[scenario]()
        out = _lognormal_int(
            rng, config.output_mean, config.output_sigma,
            config.min_tokens, config.max_tokens,
        )
        trace.append(
            TraceRequest(
                arrival_s=float(t),
                prompt=prompt,
                max_new_tokens=out,
                scenario=scenario,
            )
        )
    return trace


# ----------------------------------------------------------------------
# Multi-turn chat sessions.
# ----------------------------------------------------------------------

@dataclass
class SessionTurn:
    """One user turn of a chat session."""

    #: Seeded think-time gap between the previous turn's last token and
    #: this turn's arrival (0 for the first turn — the session's
    #: ``start_s`` anchors that one).
    think_s: float
    user_tokens: np.ndarray
    max_new_tokens: int


@dataclass
class SessionTrace:
    """One scripted multi-turn conversation."""

    session_id: str
    start_s: float
    turns: list[SessionTurn]

    @property
    def num_turns(self) -> int:
        return len(self.turns)


@dataclass
class SessionWorkloadConfig:
    """Knobs for a generated multi-turn chat workload.

    Turn N+1's prompt is the full conversation so far plus new user
    text — the dominant production pattern cross-turn KV reuse exists
    for.  All lengths are lognormal-clipped like :class:`WorkloadConfig`;
    think times are lognormal too (humans read, then type).  Every
    session's first turn opens with one shared system prompt, so the
    workload also exercises cross-*session* sharing of the system pages.
    """

    num_sessions: int = 6
    #: Sessions open uniformly across this window.
    start_window_s: float = 4.0
    turns_mean: float = 4.0
    turns_sigma: float = 0.3
    min_turns: int = 2
    max_turns: int = 8
    vocab_size: int = 64
    page_tokens: int = 8
    #: Shared system prompt (pages), identical across sessions.
    system_pages: int = 1
    first_turn_mean: float = 16.0
    turn_mean: float = 12.0
    turn_sigma: float = 0.5
    think_mean_s: float = 0.6
    think_sigma_s: float = 0.6
    output_mean: float = 10.0
    output_sigma: float = 0.4
    min_tokens: int = 2
    max_tokens: int = 48


def generate_sessions(
    config: SessionWorkloadConfig | None = None, seed: int = 0, **overrides
) -> list[SessionTrace]:
    """A reproducible multi-turn chat workload: same (config, seed) pair,
    same sessions, turn for turn and gap for gap."""
    if config is None:
        config = SessionWorkloadConfig()
    if overrides:
        config = SessionWorkloadConfig(**{**config.__dict__, **overrides})
    rng = np.random.default_rng(seed)
    vocab = config.vocab_size
    system = _tokens(rng, config.system_pages * config.page_tokens, vocab)
    starts = np.sort(
        rng.uniform(0.0, config.start_window_s, size=config.num_sessions)
    )
    sessions = []
    for i, start in enumerate(starts):
        num_turns = _lognormal_int(
            rng, config.turns_mean, config.turns_sigma,
            config.min_turns, config.max_turns,
        )
        turns = []
        for turn in range(num_turns):
            mean = config.first_turn_mean if turn == 0 else config.turn_mean
            text = _tokens(
                rng,
                _lognormal_int(
                    rng, mean, config.turn_sigma,
                    config.min_tokens, config.max_tokens,
                ),
                vocab,
            )
            if turn == 0:
                text = np.concatenate([system, text])
                think = 0.0
            else:
                think = float(
                    rng.lognormal(
                        np.log(max(config.think_mean_s, 1e-3)),
                        config.think_sigma_s,
                    )
                )
            turns.append(
                SessionTurn(
                    think_s=think,
                    user_tokens=text,
                    max_new_tokens=_lognormal_int(
                        rng, config.output_mean, config.output_sigma,
                        config.min_tokens, config.max_tokens,
                    ),
                )
            )
        sessions.append(
            SessionTrace(
                session_id=f"session-{i}", start_s=float(start), turns=turns
            )
        )
    return sessions


# ----------------------------------------------------------------------
# Replay: virtual time.
# ----------------------------------------------------------------------

def _frontend_for(target, step_cost, max_steps):
    """``target`` itself if it already is the async front-end, else a
    front-end wrapped around it that charges ``step_cost`` per step.

    Stricter than the front-end's own double-charging refusal: a timed
    trace refuses a self-charging target even with no ``step_cost``
    here, because a step that stalls (nothing admitted, nothing decoded)
    charges a self-charging engine nothing, so the clock would never
    reach the next arrival."""
    if isinstance(target, AsyncServingEngine):
        return target
    if getattr(target, "step_cost", None) is not None:
        raise ValueError(
            "target already charges its own clock (step_cost set on the "
            "engine); the replay's per-step charge would double-count — "
            "drop one of the two"
        )
    return AsyncServingEngine(
        target, step_cost=step_cost, max_steps=max_steps
    )


def replay_trace(
    target,
    trace: list[TraceRequest],
    clock: VirtualClock,
    step_cost: StepCostModel | None = None,
    max_steps: int = 200_000,
) -> dict:
    """Drive ``target`` (engine or cluster) through a timed trace.

    One of the two closed-loop clients of the async front-end
    (:class:`~repro.serve.frontend.AsyncServingEngine` — the other is
    :func:`~repro.serve.session.replay_sessions`): each trace arrival
    becomes a coroutine that sleeps until its arrival time and submits,
    while the front-end pump steps the engine and advances this same
    ``clock`` by the :class:`StepCostModel` roofline per step.
    Requests record the *trace* arrival time, so TTFT includes sub-step
    queueing; requests the pool can never hold are counted as rejected
    (the 429 path), and requests the scheduling policy sheds at
    admission are counted separately.  Returns replay totals; latency
    metrics live in the target's own report.
    """
    frontend = _frontend_for(target, step_cost, max_steps)
    order = sorted(range(len(trace)), key=lambda i: trace[i].arrival_s)
    # Published as ``client.<name>``: a mid-run registry snapshot shows
    # the replay-side totals beside the engine/pool/frontend series.
    counts = {"submitted": 0, "rejected": 0, "shed": 0}
    frontend.registry.attach("client.", counts)

    async def _client(item: TraceRequest) -> None:
        await frontend.sleep_until(item.arrival_s)
        try:
            frontend.submit(
                item.prompt,
                item.max_new_tokens,
                slo=item.slo,
                arrival_s=item.arrival_s,
            )
        except RequestShedError:
            counts["shed"] += 1
        except BudgetExceededError:
            counts["rejected"] += 1
        else:
            counts["submitted"] += 1

    frontend.drive(*(_client(trace[i]) for i in order))
    return {
        "trace_requests": len(trace),
        "submitted": counts["submitted"],
        "rejected": counts["rejected"] + counts["shed"],
        "steps": frontend.steps,
        "tokens_processed": frontend.tokens_processed,
        "simulated_s": clock.now_s,
    }


# ----------------------------------------------------------------------
# Open-loop client: timeouts and retries.
# ----------------------------------------------------------------------

@dataclass
class RetryPolicy:
    """Client-side retry/timeout behaviour for the open-loop replayer.

    ``timeout_s`` is the per-attempt client deadline (``None`` = wait
    forever); a timed-out attempt abandons its stream but the engine
    keeps generating — the wasted work is the point.  Backoff between
    attempts is exponential with seeded uniform jitter:
    ``base_backoff_s * multiplier**k * (1 + jitter * u)``, ``u ~ U[0,1)``.
    """

    max_attempts: int = 3
    timeout_s: float | None = None
    base_backoff_s: float = 0.25
    backoff_multiplier: float = 2.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ValueError("timeout_s must be positive")
        if self.base_backoff_s < 0 or self.jitter < 0:
            raise ValueError("backoff and jitter must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError("backoff_multiplier must be >= 1")

    def backoff_s(self, attempt: int, u: float) -> float:
        """Delay before retry number ``attempt`` (1-based), given a
        pre-drawn uniform jitter sample ``u``."""
        scale = self.base_backoff_s * self.backoff_multiplier ** (attempt - 1)
        return scale * (1.0 + self.jitter * float(u))


def replay_open_loop(
    target,
    trace: list[TraceRequest],
    clock: VirtualClock,
    retry: RetryPolicy | None = None,
    step_cost: StepCostModel | None = None,
    seed: int = 0,
    max_steps: int = 500_000,
) -> dict:
    """Replay a trace through impatient, retrying open-loop clients.

    Unlike :func:`replay_trace` (fire-and-forget), every arrival here is
    a client that *waits for its own tokens*: it submits at its trace
    arrival time, abandons the attempt if the stream misses the
    :class:`RetryPolicy` deadline, backs off (seeded exponential +
    jitter, deterministic per request index) and resubmits — the
    retry-storm mechanic, where shed or timed-out load comes back
    compounded.  Arrivals never wait for earlier requests (open loop),
    so offered load is set by the trace, not by the server.

    Returns outcome totals: per-request ``completed`` / ``gave_up``
    (all attempts failed), attempt-level ``timeouts`` / ``shed`` /
    ``rejected`` counters, ``retries``, and the pump totals.  The
    front-end's own backpressure report rides along under
    ``"frontend"``.
    """
    if retry is None:
        retry = RetryPolicy()
    frontend = _frontend_for(target, step_cost, max_steps)
    # Jitter is pre-drawn per (request, attempt): determinism must not
    # depend on the interleaving order in which clients reach their
    # backoff draws.
    rng = np.random.default_rng(seed)
    jitter_u = rng.uniform(size=(len(trace), max(retry.max_attempts - 1, 1)))
    order = sorted(range(len(trace)), key=lambda i: trace[i].arrival_s)
    # Published as ``client.<name>``; each client also drops instants on
    # its own ``client-<idx>`` trace track, so a retry storm is readable
    # in the Chrome export request by request.
    counts = {
        "completed": 0,
        "gave_up": 0,
        "attempts": 0,
        "retries": 0,
        "timeouts": 0,
        "shed": 0,
        "rejected": 0,
    }
    frontend.registry.attach("client.", counts)
    obs = frontend.obs

    async def _client(idx: int) -> None:
        item = trace[idx]
        track = f"client-{idx}"
        await frontend.sleep_until(item.arrival_s)
        for attempt in range(1, retry.max_attempts + 1):
            counts["attempts"] += 1
            try:
                handle = frontend.submit(
                    item.prompt,
                    item.max_new_tokens,
                    slo=item.slo,
                )
                await handle.result(timeout_s=retry.timeout_s)
                counts["completed"] += 1
                obs.instant(
                    "client_completed", track, cat="client", attempt=attempt
                )
                return
            except RequestTimeoutError:
                counts["timeouts"] += 1
                obs.instant(
                    "client_timeout", track, cat="client", attempt=attempt
                )
            except RequestShedError:
                counts["shed"] += 1
                obs.instant(
                    "client_shed", track, cat="client", attempt=attempt
                )
            except BudgetExceededError:
                counts["rejected"] += 1
                obs.instant(
                    "client_rejected", track, cat="client", attempt=attempt
                )
            if attempt == retry.max_attempts:
                counts["gave_up"] += 1
                obs.instant(
                    "client_gave_up", track, cat="client", attempt=attempt
                )
                return
            counts["retries"] += 1
            obs.instant(
                "client_retry", track, cat="client", attempt=attempt
            )
            await frontend.sleep(
                retry.backoff_s(attempt, jitter_u[idx, attempt - 1])
            )

    frontend.drive(*(_client(i) for i in order))
    return {
        "trace_requests": len(trace),
        **counts,
        "steps": frontend.steps,
        "tokens_processed": frontend.tokens_processed,
        "simulated_s": clock.now_s,
        "frontend": frontend.report(),
    }
