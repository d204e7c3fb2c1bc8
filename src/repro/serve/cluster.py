"""Multi-replica serving: a front-end router over N engines.

:class:`ClusterRouter` owns a set of independent
:class:`~repro.serve.engine.ServingEngine` replicas and places every
incoming request with **prefix-affinity + least-active-bytes** routing:
the first page of the prompt hashes to the replica that last served that
prefix (so its prefix cache — shared system prompts, agent-loop
contexts — actually gets hit), falling back to the replica with the
fewest committed-plus-queued KV bytes, and overriding affinity when the
sticky replica is more than ``imbalance_factor`` times as loaded as the
lightest one (bounded stickiness: a hot prefix cannot melt one replica
while others idle).

``step()`` advances every replica one scheduler iteration and
``report()`` aggregates the per-replica :class:`EngineMetrics`
summaries into cluster totals, so the same acceptance numbers (TTFT,
budget invariants, modeled traffic) exist at cluster scope.
"""

from __future__ import annotations

import numpy as np

from .engine import ServingEngine
from .metrics import ENGINE_COUNTERS, latency_summary
from .pool import ROOT_CHAIN, chain_hash
from .request import Request

__all__ = ["ClusterRouter"]


class ClusterRouter:
    """Prefix-affinity + least-loaded routing over engine replicas."""

    #: Stickiness bound: affinity is overridden once the sticky replica
    #: carries more than this multiple of the lightest replica's load.
    imbalance_factor = 2.0

    def __init__(self, engines: list[ServingEngine]):
        if not engines:
            raise ValueError("a cluster needs at least one engine replica")
        if any(getattr(engine, "step_cost", None) is not None for engine in engines):
            raise ValueError(
                "cluster replicas must not charge their own clock "
                "(step_cost set on an engine would serialize concurrent "
                "replicas); charge replay-side via replay's step_cost"
            )
        page_tokens = {engine.pool.page_tokens for engine in engines}
        if len(page_tokens) != 1:
            raise ValueError(
                f"replicas disagree on page_tokens: {sorted(page_tokens)}"
            )
        self.engines = list(engines)
        self.page_tokens = page_tokens.pop()
        self._affinity: dict[str, int] = {}
        #: session id -> replica.  Session affinity is *hard*: a
        #: conversation's cached KV history exists on exactly one
        #: replica, so rerouting a later turn would silently re-encode
        #: everything — worse than riding out an imbalance.
        self._sessions: dict[str, int] = {}
        self._used_ids: set[str] = set()
        self._next_request = 0
        #: Observability: the cluster adopts replica 0's recorder and
        #: registry as the cluster-wide ones (the async front-end reads
        #: them off ``target``), and renames each replica's trace tracks
        #: ``replica<i>/...`` so their phase rows stay apart in the
        #: Chrome export.  Routing decisions land on the ``cluster``
        #: track; the registry reads the scalar routing stats through
        #: as ``cluster.<name>`` (the per-replica ``routed`` list is
        #: covered by the labeled ``cluster.routed{replica=i}`` series).
        self.obs = self.engines[0].obs
        self.registry = self.engines[0].registry
        if len(self.engines) > 1:
            for i, engine in enumerate(self.engines):
                if getattr(engine, "obs_track", "engine") == "engine":
                    engine.set_obs_track(f"replica{i}")
        self.stats: dict = {
            "routed": [0] * len(self.engines),
            "affinity_hits": 0,
            "affinity_overrides": 0,
            "session_pins": 0,
            "session_hits": 0,
        }
        self.registry.attach("cluster.", self.stats)
        #: Per-replica step compositions from the most recent ``step()``
        #: — replicas run concurrently, so a replay cost model charges
        #: the *slowest* replica, not the sum.
        self.last_step: list[dict] = [dict(e.last_step) for e in self.engines]

    # ------------------------------------------------------------------
    # Routing.
    # ------------------------------------------------------------------
    def _prefix_key(self, prompt: np.ndarray) -> str | None:
        """The chain hash of the prompt's first page — the identity
        prefix sharing keys on — or ``None`` for a sub-page prompt."""
        if len(prompt) < self.page_tokens:
            return None
        return chain_hash(ROOT_CHAIN, prompt[: self.page_tokens])

    def _load(self, index: int) -> int:
        """Committed + queued KV bytes on one replica: what its pool
        holds for active requests now, plus what its waiting and swapped
        queues will claim."""
        engine = self.engines[index]
        per_token = engine.backend.per_token_nbytes
        queued = sum(
            request.prompt_len * per_token
            for request in engine.scheduler.waiting
        )
        swapped = sum(
            request.kv.logical_nbytes
            for request in engine.scheduler.swapped
        )
        return engine.pool.bytes_active + queued + swapped

    def _route(self, prompt: np.ndarray) -> tuple[int, str | None, str]:
        """Pick a replica; pure decision, no state change.

        Returns ``(index, prefix_key, outcome)`` where outcome is one
        of ``"hit"`` (sticky replica used), ``"override"`` (sticky
        replica too loaded, rerouted) or ``"miss"`` — the caller
        commits the affinity map and counters only once the request is
        actually accepted, so rejected traffic cannot skew routing.
        """
        loads = [self._load(i) for i in range(len(self.engines))]
        lightest = loads.index(min(loads))  # ties: the lowest index
        key = self._prefix_key(prompt)
        if key is None:
            return lightest, None, "miss"
        sticky = self._affinity.get(key)
        if sticky is not None:
            # Bounded stickiness: a shared prefix stays on its replica
            # until that replica is disproportionately loaded.
            if loads[sticky] <= self.imbalance_factor * max(
                loads[lightest], 1
            ):
                return sticky, key, "hit"
            return lightest, key, "override"
        return lightest, key, "miss"

    def submit(
        self,
        prompt: np.ndarray,
        max_new_tokens: int,
        request_id: str | None = None,
        eos_token: int | None = None,
        session_id: str | None = None,
        slo=None,
    ) -> Request:
        """Place one request on a replica; returns the engine Request.

        Request IDs are unique cluster-wide: caller-supplied duplicates
        are rejected here (each engine only checks its own namespace,
        and routing would otherwise happily split a duplicate across
        replicas), and auto-generated IDs are minted by the cluster so
        two replicas never both hand out ``req-0``.  The chosen replica
        index is recorded on the request as ``request.replica`` for
        report attribution.

        A ``session_id`` pins the whole conversation: its first
        accepted turn is placed by normal prefix/load routing, every
        later turn goes to the same replica — the only one holding the
        session's cached KV history.
        """
        prompt = np.asarray(prompt, dtype=np.int64).reshape(-1)
        pinned = (
            self._sessions.get(session_id) if session_id is not None else None
        )
        if pinned is not None:
            index, key, outcome = pinned, None, "session"
        else:
            index, key, outcome = self._route(prompt)
        if request_id is not None and request_id in self._used_ids:
            raise ValueError(f"duplicate request_id {request_id!r}")
        auto = request_id is None
        if auto:
            candidate = self._next_request
            while f"req-{candidate}" in self._used_ids:
                candidate += 1
            request_id = f"req-{candidate}"
        request = self.engines[index].submit(
            prompt,
            max_new_tokens,
            request_id=request_id,
            eos_token=eos_token,
            session_id=session_id,
            slo=slo,
        )
        # Only an accepted request updates IDs, routing state and stats.
        if auto:
            self._next_request = candidate + 1
        self._used_ids.add(request.request_id)
        if outcome == "session":
            self.stats["session_hits"] += 1
        elif outcome == "hit":
            self.stats["affinity_hits"] += 1
        else:
            if outcome == "override":
                self.stats["affinity_overrides"] += 1
            if key is not None:
                self._affinity[key] = index
        if session_id is not None and session_id not in self._sessions:
            self._sessions[session_id] = index
            self.stats["session_pins"] += 1
        request.replica = index
        self.stats["routed"][index] += 1
        self.registry.inc("cluster.routed", replica=index)
        self.registry.inc("cluster.routing_outcomes", outcome=outcome)
        self.obs.instant(
            "route",
            "cluster",
            cat="cluster",
            replica=index,
            outcome=outcome,
            request_id=request.request_id,
        )
        return request

    # ------------------------------------------------------------------
    # The cluster step loop.
    # ------------------------------------------------------------------
    @property
    def has_work(self) -> bool:
        return any(engine.has_work for engine in self.engines)

    def step(self) -> int:
        """Advance every replica one iteration; returns tokens processed
        across the cluster."""
        tokens = sum(engine.step() for engine in self.engines)
        self.last_step = [dict(engine.last_step) for engine in self.engines]
        return tokens

    # ------------------------------------------------------------------
    # Aggregated metrics.
    # ------------------------------------------------------------------
    def report(self, elapsed_s: float) -> dict:
        """Cluster totals + the per-replica engine reports."""
        replicas = [
            engine.report(elapsed_s) for engine in self.engines
        ]
        requests = [r for e in self.engines for r in e.requests]
        # Every engine counter sums over replicas except the one
        # high-watermark among them.
        keys = ("requests", "finished", "tokens_generated", *ENGINE_COUNTERS)
        summed = {
            key: sum(rep[key] for rep in replicas)
            for key in keys
            if key != "peak_concurrency"
        }
        return {
            "replicas": len(self.engines),
            "elapsed_s": elapsed_s,
            **summed,
            # Tail percentiles and SLO attainment are recomputed over
            # the combined request population — percentiles of merged
            # samples, not averages of per-replica percentiles.
            **latency_summary(requests),
            "budget_overruns": sum(
                rep["pool"]["budget_overruns"] for rep in replicas
            ),
            "routing": {**self.stats, "routed": list(self.stats["routed"])},
            "per_replica": replicas,
        }
