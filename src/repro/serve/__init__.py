"""Serving layer: paged compressed-KV pool + continuous-batching engine.

Turns the codec layers below into a multi-tenant serving system: Ecco's
capacity win becomes admitted-requests-per-byte-budget, and its
bandwidth win becomes modeled KV-read traffic per decode step.  On top
of the single engine sit trace-driven workloads (``repro.serve.workload``
— seeded Poisson/bursty arrivals over chat/RAG/agent scenario
mixes, replayed on a virtual clock), a multi-replica router
(``repro.serve.cluster`` — prefix-affinity + least-active-bytes routing
with aggregated metrics), multi-turn sessions (``repro.serve.session``
— turn N+1 submits the whole conversation and the pool's prefix cache
serves the shared history without re-encoding a token), and the
event-driven front-end (``repro.serve.frontend`` — async token
streaming to concurrent clients, per-tenant rate limits and weighted
fairness, SLO-aware admission via pluggable scheduling policies from
``repro.serve.scheduler``, and client retry/timeout modeling from
``repro.serve.workload``).
"""

from .clock import StepCostModel, VirtualClock
from .cluster import ClusterRouter
from .engine import ServingEngine
from .frontend import (
    AsyncServingEngine,
    RequestShedError,
    RequestTimeoutError,
    StreamHandle,
)
from .metrics import (
    EngineMetrics,
    decode_step_sectors,
    latency_percentiles,
    summarize_turns,
)
from .pool import BudgetExceededError, KVPage, PagedKVPool, chain_hash
from .request import Request, RequestMetrics, RequestState
from .scheduler import (
    ContinuousBatchingScheduler,
    DeadlinePolicy,
    FCFSPolicy,
    SchedulerPolicy,
    make_policy,
)
from .session import Session, replay_sessions
from .slo import SLO, next_deadline_s, slack_s, slo_attainment
from .storage import EccoKVBackend, Fp16KVBackend, RequestKV
from .trie import PrefixMatch, PrefixTrie, common_prefix_len
from .workload import (
    RetryPolicy,
    SessionTrace,
    SessionTurn,
    SessionWorkloadConfig,
    TraceRequest,
    WorkloadConfig,
    bursty_arrivals,
    generate_sessions,
    generate_trace,
    poisson_arrivals,
    replay_open_loop,
    replay_trace,
)

__all__ = [
    "AsyncServingEngine",
    "BudgetExceededError",
    "ClusterRouter",
    "ContinuousBatchingScheduler",
    "DeadlinePolicy",
    "EccoKVBackend",
    "EngineMetrics",
    "FCFSPolicy",
    "Fp16KVBackend",
    "KVPage",
    "PagedKVPool",
    "PrefixMatch",
    "PrefixTrie",
    "Request",
    "RequestKV",
    "RequestMetrics",
    "RequestShedError",
    "RequestState",
    "RequestTimeoutError",
    "RetryPolicy",
    "SLO",
    "SchedulerPolicy",
    "ServingEngine",
    "Session",
    "SessionTrace",
    "SessionTurn",
    "SessionWorkloadConfig",
    "StepCostModel",
    "StreamHandle",
    "TraceRequest",
    "VirtualClock",
    "WorkloadConfig",
    "bursty_arrivals",
    "chain_hash",
    "common_prefix_len",
    "decode_step_sectors",
    "generate_sessions",
    "generate_trace",
    "latency_percentiles",
    "make_policy",
    "next_deadline_s",
    "poisson_arrivals",
    "replay_open_loop",
    "replay_sessions",
    "replay_trace",
    "slack_s",
    "slo_attainment",
    "summarize_turns",
]
