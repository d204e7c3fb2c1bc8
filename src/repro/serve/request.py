"""Request lifecycle: states, per-request latency metrics, the Request."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np


class RequestState(enum.Enum):
    """Where a request sits in the continuous-batching lifecycle."""

    WAITING = "waiting"        # submitted, KV not yet allocated
    PREFILLING = "prefilling"  # admitted; prompt ingested chunk by chunk
    RUNNING = "running"        # in the decode batch, KV resident
    SWAPPED = "swapped"        # preempted; KV swapped out in compressed form
    FINISHED = "finished"      # done; KV released
    SHED = "shed"              # refused at admission (SLO blown); no KV ever held


@dataclass
class RequestMetrics:
    """Wall-clock latency record of one request."""

    arrival_s: float = 0.0
    first_token_s: float | None = None
    finish_s: float | None = None
    #: Timestamp of every generated token (the first is the prefill token).
    token_s: list[float] = field(default_factory=list)
    preemptions: int = 0
    #: Prefill chunks this request's prompt was ingested in (1 = whole
    #: prompt in one pass, the unchunked path).
    prefill_chunks: int = 0
    #: Prompt tokens served straight from the prefix cache at admission
    #: (0 = cold start), and the pages they were attached from; prompt
    #: tokens re-encoded despite the cache = ``prompt_len - cached_tokens``.
    cached_tokens: int = 0
    cached_pages: int = 0
    #: The slice of ``cached_tokens`` salvaged by a partial-page split
    #: (the match ended mid-page and the pool split at the divergence).
    split_tokens: int = 0

    @property
    def ttft_s(self) -> float | None:
        """Time to first token: queueing + prefill."""
        if self.first_token_s is None:
            return None
        return self.first_token_s - self.arrival_s

    @property
    def e2e_s(self) -> float | None:
        """End-to-end latency from arrival to last token."""
        if self.finish_s is None:
            return None
        return self.finish_s - self.arrival_s

    @property
    def inter_token_s(self) -> list[float]:
        """Per-token decode latencies (gaps between token timestamps)."""
        return [b - a for a, b in zip(self.token_s, self.token_s[1:])]


@dataclass(eq=False)
class Request:
    """One generation request moving through the serving engine.

    Identity semantics (``eq=False``): the scheduler moves requests
    between queues by object identity, and field equality would choke on
    the ndarray prompt anyway.
    """

    request_id: str
    prompt: np.ndarray
    max_new_tokens: int
    eos_token: int | None = None
    state: RequestState = RequestState.WAITING
    generated: list[int] = field(default_factory=list)
    metrics: RequestMetrics = field(default_factory=RequestMetrics)
    #: Paged KV state; attached by the engine at admission.
    kv: object | None = None
    #: Prompt tokens ingested so far (chunked prefill); equals
    #: ``prompt_len`` once the prompt is fully in the cache.
    prefill_pos: int = 0
    #: Replica index, set by the cluster router when it places the
    #: request; ``None`` on a single-engine run.
    replica: int | None = None
    #: Conversation this request is one turn of (``repro.serve.session``);
    #: ``None`` for standalone requests.
    session_id: str | None = None
    #: Latency objectives (``repro.serve.slo.SLO``); read by the
    #: deadline-aware scheduling policy, ignored by FCFS.
    slo: object | None = None

    def __post_init__(self) -> None:
        self.prompt = np.asarray(self.prompt, dtype=np.int64).reshape(-1)
        if self.prompt.size == 0:
            raise ValueError("empty prompt")
        if self.max_new_tokens < 1:
            raise ValueError("max_new_tokens must be >= 1")

    @property
    def prompt_len(self) -> int:
        return int(self.prompt.size)

    @property
    def prefill_done(self) -> bool:
        """True once every prompt token has been ingested into the KV."""
        return self.prefill_pos >= self.prompt_len

    @property
    def terminal(self) -> bool:
        """True once the engine will never touch this request again —
        finished normally, or shed at admission by the policy."""
        return self.state in (RequestState.FINISHED, RequestState.SHED)

    @property
    def finished(self) -> bool:
        if len(self.generated) >= self.max_new_tokens:
            return True
        return bool(
            self.eos_token is not None
            and self.generated
            and self.generated[-1] == self.eos_token
        )
