"""The paged KV pool: bounded byte budget, ref counts, prefix sharing.

Pages are fixed-token-count units whose payload is every layer's K and V
segment for those tokens — Ecco-compressed 64-byte blocks in the
``ecco`` storage mode, raw fp16 arrays in the baseline mode.  The pool
is storage-agnostic: it owns the *accounting* (a hard byte budget, ref
counts, content-hash prefix sharing, swap traffic) while the backends in
``repro.serve.storage`` own the payloads.

Sharing is hash-chained like vLLM's prefix cache: a page's identity is
``H(parent_chain, token_ids)``, so two requests whose prompts agree
token-for-token up to a page boundary resolve to the same chain and
share one resident copy (ref-counted).  Because the Ecco codec is
deterministic and causal attention makes a prefix's KV independent of
what follows, the shared bytes are bit-identical to what each request
would have encoded alone.

Prefix lookup is **token-level**, not page-level: a
:class:`~repro.serve.trie.PrefixTrie` indexes every resident page with
first-token child buckets and vectorized token compares, so a prompt
that shares only *part* of a page still matches — the pool splits the
page at the divergence point (:meth:`PagedKVPool.split_page`, a pure
block-slice both storage formats perform bit-exactly) and the request
attaches the shared head instead of re-encoding it.  The trie is also
the pool's only record of resident-page topology: which page answers a
chain, what hangs off it, and whether it is a leaf are all read from it.

Preemption support distinguishes *resident* references (running
requests) from *swapped* references (preempted requests): a page's bytes
leave the device — and count as swap traffic — only when its last
resident reference does, so preempting one tenant of a shared prompt
moves nothing.

Pages whose last reference disappears are not freed eagerly: they stay
resident as an evictable LRU prefix cache, so a request arriving after
every earlier tenant finished still shares the common prompt's pages.
Cached pages are reclaimed lazily whenever new allocations need the
room, and — when ``ttl_s`` is set — by an age sweep (:meth:`expire_ttl`),
so stale history leaves the budget before any valuable page does.

Eviction is *chain-aware* and *cost-aware*: a cached page is only
useful if every ancestor on its chain is still resident, so reclaiming
prefers suffix-first — a cached page with no resident children (the
pool keeps a dedicated leaf index so finding one is O(1) amortized, not
a scan) — and, when a parent must go anyway, cascades through its
cached descendants rather than stranding them.  Among leaves, the
victim is the page whose eviction forfeits the least re-encode savings:
minimum ``(1 + hits) * nbytes`` (compressed bytes weighted by how often
the page has actually been shared), ties broken least-recently-used.
TTL expiry runs before cost ranking: a page idle past ``ttl_s`` goes
first regardless of how valuable it once was.

The leaf index is ranked by two lazy min-heaps: a cost heap for
pressure eviction and, only when ``ttl_s`` is set, an age heap keyed by
``(last_used, leaf-index order)``.  The TTL sweep pops just the due
leaves — oldest first, ties in leaf-index order — so when nothing is
due it costs one comparison, not a pass over the cache.  Both heaps are
rebuilt from their live entries once they outgrow ``2 * leaves + 64``.
"""

from __future__ import annotations

import hashlib
import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs import MetricsRegistry, NullRecorder, wall_clock

from .trie import PrefixMatch, PrefixTrie

__all__ = ["BudgetExceededError", "KVPage", "PagedKVPool", "chain_hash"]


class BudgetExceededError(ValueError):
    """A request that can never fit the pool's byte budget.

    Raised at ``submit`` (the 429 of this system) — distinct from other
    ``ValueError`` submission failures (duplicate IDs, bad arguments) so
    trace replay can count capacity rejections without swallowing real
    usage errors.
    """

#: The root of every page hash chain.
ROOT_CHAIN = "root"


def chain_hash(parent: str, token_ids) -> str:
    """Position-aware content hash of a page: parent chain + its tokens."""
    h = hashlib.blake2b(digest_size=16)
    h.update(parent.encode())
    h.update(np.asarray(token_ids, dtype=np.int64).tobytes())
    return h.hexdigest()


def _hist_bucket(tokens: int) -> str:
    """Power-of-two histogram bucket label for a matched-prefix length."""
    lo = 1 << (int(tokens).bit_length() - 1)
    return f"{lo}-{2 * lo - 1}"


def _rebuild(heap: list, live: Callable[[tuple], KVPage | None]) -> None:
    """Drop the entries ``live`` rejects from a lazy heap, in place."""
    heap[:] = [entry for entry in heap if live(entry) is not None]
    heapq.heapify(heap)


@dataclass
class KVPage:
    """One page: every layer's K/V segments for ``token_ids``."""

    page_id: int
    chain: str
    token_ids: tuple
    #: Chain of the preceding page (``ROOT_CHAIN`` for a first page).
    #: For pages created on their original boundaries
    #: ``chain == chain_hash(parent, token_ids)``; a page that was
    #: re-parented by a split keeps its chain as an opaque identity.
    parent: str = ROOT_CHAIN
    #: layer -> (key segment, value segment); CompressedTensor pairs in
    #: ecco mode, fp16 ndarray pairs in the baseline mode.
    payload: dict = field(default_factory=dict)
    nbytes: int = 0
    fp16_nbytes: int = 0
    #: References held by running (resident) requests.
    ref_count: int = 0
    #: References held by swapped-out (preempted) requests.
    swapped_refs: int = 0
    #: Times this page was shared beyond its first use (acquire hits,
    #: swap-in substitutions, prefix attaches) — the reuse frequency the
    #: cost-aware eviction policy weighs.
    hits: int = 0
    #: Pool-clock timestamp of the last share/pin/build.
    last_used: float = 0.0
    #: Pool-clock timestamp of the last demotion into the prefix cache.
    cached_at: float = 0.0
    #: The pool's sequence number for this page's current entry in its
    #: leaf index (insertion order; TTL ties evict in this order).
    leaf_seq: int = 0

    def __post_init__(self) -> None:
        #: The token ids as an int64 array, for vectorized trie compares.
        self.token_array = np.asarray(self.token_ids, dtype=np.int64)

    @property
    def num_tokens(self) -> int:
        return len(self.token_ids)

    @property
    def cost_score(self) -> float:
        """Re-encode savings forfeited by evicting this page: its
        compressed bytes weighted by how often it has been shared.
        Lower scores evict first."""
        return float((1 + self.hits) * self.nbytes)


class PagedKVPool:
    """Byte-budgeted page pool with sharing and swap accounting."""

    #: Cost-aware split floor: a partial match salvaging fewer than this
    #: many tokens is not worth a physical page split (the two
    #: block-copied halves plus per-page overhead cost more than
    #: re-encoding the head).  Attach-time policy only — direct
    #: :meth:`split_page` calls are not floored.
    split_min_tokens = 4

    def __init__(
        self,
        byte_budget: int,
        page_tokens: int = 8,
        *,
        ttl_s: float | None = None,
        clock: Callable[[], float] = wall_clock,
        recorder=None,
        registry: MetricsRegistry | None = None,
    ):
        if byte_budget <= 0:
            raise ValueError("byte_budget must be positive")
        if page_tokens < 1:
            raise ValueError("page_tokens must be >= 1")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive (or None to disable)")
        self.byte_budget = int(byte_budget)
        self.page_tokens = int(page_tokens)
        self.ttl_s = ttl_s
        self._clock = clock
        #: Token-level prefix index and the single owner of resident-page
        #: topology: a page is resident exactly while it is a trie node.
        self.trie = PrefixTrie()
        self._swapped: dict[int, KVPage] = {}   # swapped-out pages by id
        #: Ref-0 pages retained as a prefix cache, insertion-ordered.
        self._cached: dict[int, KVPage] = {}
        #: The slice of ``_cached`` with no resident children — the only
        #: pages an eviction pass may take without cascading.  Kept
        #: incrementally on register/unregister/demote so picking a
        #: victim never scans the whole cache.
        self._leaf_cached: dict[int, KVPage] = {}
        #: Lazy min-heap over leaf pages: (cost_score, last_used, seq,
        #: page_id).  Entries go stale when a page leaves the leaf set;
        #: they are skipped at pop time.
        self._victim_heap: list[tuple[float, float, int, int]] = []
        #: Lazy min-heap over leaf pages by age: (last_used, seq,
        #: page_id), pushed only when ``ttl_s`` is set.  An entry is live
        #: while its seq is the page's ``leaf_seq``.
        self._age_heap: list[tuple[float, int, int]] = []
        self._heap_seq = 0
        self._next_id = 0
        #: Actual bytes resident (pages + private tail reservations).
        self.bytes_resident = 0
        #: What the same resident tokens would cost stored as fp16.
        self.fp16_bytes_resident = 0
        #: Resident bytes held only by the evictable prefix cache.
        self.bytes_evictable = 0
        self.bytes_swapped = 0
        self.private_bytes = 0
        #: The slice of ``bytes_swapped`` that is private-tail bytes —
        #: kept separately so the swap-in guard is exact, not aggregate.
        self.private_swapped_bytes = 0
        #: Matched-prefix-length histogram (power-of-two buckets) over
        #: every ``lookup_prefix`` call that matched at least one token.
        self.matched_prefix_hist: dict[str, int] = {}
        #: Observability (``repro.obs``): eviction/swap/split instants
        #: land on ``track`` in the trace (the engine renames it per
        #: replica); ``stats`` is a plain dict this pool alone writes,
        #: and ``registry`` reads it through as ``pool.<name>``.
        self.obs = recorder if recorder is not None else NullRecorder()
        self.registry = registry if registry is not None else MetricsRegistry()
        self.track = "pool"
        self.stats = {
            "pages_allocated": 0,
            "pages_shared": 0,
            "pages_freed": 0,
            "pages_evicted": 0,
            "prefix_cache_hits": 0,
            # Prefix lookup outcomes (one per lookup_prefix call): the
            # prompt matched nothing / matched whole pages only /
            # matched into the middle of a page (split opportunity).
            "prefix_misses": 0,
            "prefix_full_hits": 0,
            "prefix_partial_hits": 0,
            # Partial-page splits performed, and the shared-head tokens
            # they salvaged for reuse.
            "pages_split": 0,
            "split_tokens_salvaged": 0,
            # Eviction-reason breakdown; the three sum to pages_evicted.
            "evictions_pressure": 0,
            "evictions_ttl": 0,
            "evictions_cascade": 0,
            "bytes_written": 0,
            "shared_bytes_saved": 0,
            # The same sharing measured in fp16-equivalent bytes: what the
            # shared tokens would have cost stored uncompressed, so reports
            # can state the capacity dividend in both units.
            "shared_fp16_bytes_saved": 0,
            "swap_out_bytes": 0,
            "swap_in_bytes": 0,
            "peak_bytes_resident": 0,
            "peak_fp16_bytes_resident": 0,
            # Budget-invariant violations: any allocation that left
            # bytes_resident above byte_budget.  The engine enforces the
            # budget before every step, so these must stay zero; a
            # non-zero count in snapshot() is a loud accounting bug.
            "budget_overruns": 0,
            "max_overrun_bytes": 0,
        }
        self.registry.attach("pool.", self.stats)

    # ------------------------------------------------------------------
    # Budget.
    # ------------------------------------------------------------------
    @property
    def bytes_active(self) -> int:
        """Resident bytes pinned by live references (not evictable)."""
        return self.bytes_resident - self.bytes_evictable

    def can_fit(self, nbytes: int) -> bool:
        return self.bytes_resident + nbytes <= self.byte_budget

    def can_fit_with_eviction(self, nbytes: int) -> bool:
        """Would ``nbytes`` fit after reclaiming the whole prefix cache?"""
        return self.bytes_active + nbytes <= self.byte_budget

    # ------------------------------------------------------------------
    # The evictable cache and its leaf index.
    # ------------------------------------------------------------------
    def _leaf_add(self, page: KVPage) -> None:
        if page.page_id in self._leaf_cached:
            return
        self._leaf_cached[page.page_id] = page
        self._heap_seq += 1
        page.leaf_seq = self._heap_seq
        heapq.heappush(
            self._victim_heap,
            (page.cost_score, page.last_used, self._heap_seq, page.page_id),
        )
        if self.ttl_s is not None:
            heapq.heappush(
                self._age_heap, (page.last_used, self._heap_seq, page.page_id)
            )
        self._compact_heaps()

    def _leaf_discard(self, page_id: int) -> None:
        if self._leaf_cached.pop(page_id, None) is not None:
            self._compact_heaps()

    def _victim_live(self, entry: tuple) -> KVPage | None:
        """The leaf a victim-heap entry still ranks, else ``None``."""
        score, used, _seq, page_id = entry
        page = self._leaf_cached.get(page_id)
        if page is None or page.cost_score != score or page.last_used != used:
            return None
        return page

    def _age_live(self, entry: tuple) -> KVPage | None:
        """The leaf an age-heap entry still ranks, else ``None``.
        Judged by seq, not ``last_used``: a leaf that left the index and
        came back with the same age ranks at its re-entry."""
        _used, seq, page_id = entry
        page = self._leaf_cached.get(page_id)
        if page is None or page.leaf_seq != seq:
            return None
        return page

    def _heap_bound(self) -> int:
        return 2 * len(self._leaf_cached) + 64

    def _compact_heaps(self) -> None:
        """Rebuild a lazy heap that outgrew :meth:`_heap_bound`, keeping
        exactly the entries its pop-time check accepts now, in the same
        relative order.  The age heap loses nothing that could rank
        again (a re-entered leaf gets a new seq); a victim entry dropped
        for a page that is out of the index only stops that page, should
        it re-enter with the same cost and age, from ranking ahead of
        its re-entry."""
        bound = self._heap_bound()
        if len(self._victim_heap) > bound:
            _rebuild(self._victim_heap, self._victim_live)
        if len(self._age_heap) > bound:
            _rebuild(self._age_heap, self._age_live)

    def _cache_insert(self, page: KVPage) -> None:
        """Retain a ref-0 page in the evictable prefix cache.  The
        caller must have set ``last_used``/``cached_at`` (demotion
        stamps now; a split inherits the original page's age)."""
        self._cached[page.page_id] = page
        self.bytes_evictable += page.nbytes
        if not self.trie.has_children(page.chain):
            self._leaf_add(page)

    def _cache_remove(self, page: KVPage) -> None:
        """Take a page back out of the evictable cache (re-pin/evict)."""
        self._cached.pop(page.page_id)
        self._leaf_discard(page.page_id)
        self.bytes_evictable -= page.nbytes

    def _pick_eviction_victim(self) -> KVPage:
        """Cheapest-first among cache leaves, O(log n) amortized.

        Leaves (cached pages with no resident children) come from the
        incrementally maintained leaf index, ranked by the lazy victim
        heap: minimum ``(1 + hits) * nbytes`` — the page whose eviction
        forfeits the least re-encode savings — ties broken
        least-recently-used.  Suffixes (stale conversation tails) still
        go before the shared prefixes beneath them because a parent with
        resident children is never a leaf.  If every cached page has
        resident children (some pinned by running requests), fall back
        to plain FIFO — the cascade in ``_evict_page`` keeps the cache
        consistent even then.
        """
        while self._victim_heap:
            page = self._victim_live(heapq.heappop(self._victim_heap))
            if page is not None:
                return page
        return next(iter(self._cached.values()))

    def _evict_page(self, page: KVPage, reason: str = "pressure") -> None:
        """Evict one cached page, cascading through its cached
        descendants first (deepest-first): evicting a parent must never
        leave a cached child that no prefix-match walk can reach.
        Iterative post-order — a long conversation leaves a linear
        cached chain far deeper than the interpreter recursion limit."""
        stack: list[tuple[KVPage, bool]] = [(page, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                self._cache_remove(node)
                self._unregister(node)
                self.stats["pages_evicted"] += 1
                self.stats["pages_freed"] += 1
                key = "cascade" if node is not page else reason
                self.stats[f"evictions_{key}"] += 1
                self.registry.inc("pool.evictions", reason=key)
                self.obs.instant(
                    "evict",
                    self.track,
                    cat="pool",
                    reason=key,
                    page_id=node.page_id,
                    nbytes=node.nbytes,
                    tokens=node.num_tokens,
                )
                continue
            stack.append((node, True))
            for child in self.trie.children(node.chain):
                if child.page_id in self._cached:
                    stack.append((child, False))

    def _evict_for(self, nbytes: int) -> None:
        """Reclaim prefix-cache pages until ``nbytes`` fits (or none are
        left); allocation paths call this before claiming bytes.  Pages
        idle past the TTL go first — they are dead weight whatever their
        cost score says."""
        if not self.can_fit(nbytes):
            self.expire_ttl()
        while not self.can_fit(nbytes) and self._cached:
            self._evict_page(self._pick_eviction_victim())

    def expire_ttl(self) -> int:
        """Evict cache leaves idle past ``ttl_s``; returns pages evicted.

        Allocations that do not fit call it first; call it directly to
        age stale history out under zero pressure.  Only leaves are taken, so a chain
        expires tail-first and no surviving cached page is ever
        orphaned.  Each round pops every due leaf off the age heap and
        evicts them oldest first, ties in leaf-index order; a parent
        whose last child expired becomes a leaf itself and is checked
        in the next round, until nothing due remains.  When nothing is
        due this is one comparison against the heap's top — the leaf
        index is never scanned.
        """
        if self.ttl_s is None or not self._leaf_cached:
            return 0
        now = self._clock()
        heap = self._age_heap
        evicted = 0
        while True:
            due = []
            while heap and now - heap[0][0] > self.ttl_s:
                page = self._age_live(heapq.heappop(heap))
                if page is not None:
                    due.append(page)
            if not due:
                return evicted
            for page in due:
                self._evict_page(page, reason="ttl")
            evicted += len(due)

    def _bump(self, nbytes: int, fp16_nbytes: int) -> None:
        self.bytes_resident += nbytes
        self.fp16_bytes_resident += fp16_nbytes
        self.stats["peak_bytes_resident"] = max(
            self.stats["peak_bytes_resident"], self.bytes_resident
        )
        self.stats["peak_fp16_bytes_resident"] = max(
            self.stats["peak_fp16_bytes_resident"], self.fp16_bytes_resident
        )
        overrun = self.bytes_resident - self.byte_budget
        if overrun > 0:
            self.stats["budget_overruns"] += 1
            self.stats["max_overrun_bytes"] = max(
                self.stats["max_overrun_bytes"], overrun
            )

    def check_budget(self) -> None:
        """Raise if resident bytes exceed the budget (defense in depth).

        The scheduler's admission and capacity passes are supposed to
        make this impossible; calling it after every engine step turns
        any accounting drift into an immediate, attributable failure
        instead of silently growing memory.
        """
        if self.bytes_resident > self.byte_budget:
            raise RuntimeError(
                f"KV pool over budget: {self.bytes_resident} B resident "
                f"vs a {self.byte_budget} B budget "
                f"({self.stats['budget_overruns']} overrun allocations, "
                f"worst {self.stats['max_overrun_bytes']} B)"
            )
        # Drift in the *other* direction is just as much of a bug: a
        # negative counter means some free/swap path was paid twice and
        # the budget invariant has silently been relaxed.
        negatives = {
            name: value
            for name, value in (
                ("bytes_resident", self.bytes_resident),
                ("fp16_bytes_resident", self.fp16_bytes_resident),
                ("bytes_evictable", self.bytes_evictable),
                ("bytes_swapped", self.bytes_swapped),
                ("private_bytes", self.private_bytes),
                ("private_swapped_bytes", self.private_swapped_bytes),
            )
            if value < 0
        }
        if negatives:
            raise RuntimeError(
                f"negative KV pool byte counters (double free?): {negatives}"
            )

    # ------------------------------------------------------------------
    # Prefix lookup.
    # ------------------------------------------------------------------
    def peek(self, chain: str) -> KVPage | None:
        """The resident page for ``chain``, if any (no ref taken)."""
        return self.trie.get(chain)

    def match_prefix(self, token_ids) -> list[KVPage]:
        """Resident pages fully covering the longest prefix of
        ``token_ids`` (no partial node, no references taken, no
        counters recorded)."""
        return self.trie.match(token_ids, ROOT_CHAIN).pages

    def lookup_prefix(self, token_ids) -> PrefixMatch:
        """The attach-path lookup: longest prefix match *with* the
        partial-node report, recording hit/miss observability counters
        and the matched-length histogram."""
        match = self.trie.match(token_ids, ROOT_CHAIN)
        matched = match.matched_tokens
        if matched == 0:
            self.stats["prefix_misses"] += 1
            outcome = "miss"
        elif match.partial is not None:
            self.stats["prefix_partial_hits"] += 1
            outcome = "partial"
        else:
            self.stats["prefix_full_hits"] += 1
            outcome = "full"
        self.registry.inc("pool.prefix_lookups", outcome=outcome)
        if matched:
            bucket = _hist_bucket(matched)
            self.matched_prefix_hist[bucket] = (
                self.matched_prefix_hist.get(bucket, 0) + 1
            )
        return match

    # ------------------------------------------------------------------
    # Partial-page splitting.
    # ------------------------------------------------------------------
    def split_page(
        self, page: KVPage, head_tokens: int, split_payload
    ) -> tuple[KVPage, KVPage] | None:
        """Split a *cached* page at a token boundary into two bit-exact
        pages; returns ``(head, tail)`` or ``None`` when the page cannot
        be split safely.

        ``split_payload(payload, head_tokens)`` is the storage backend's
        splitter and must return ``(head_payload, head_nbytes,
        head_fp16_nbytes, tail_payload, tail_nbytes, tail_fp16_nbytes)``
        with byte totals exactly equal to the original page's — the
        split moves no bytes, encodes nothing, and leaves the budget
        untouched.  Only ref-0, unswapped cached pages are split: a
        pinned page's tenants hold the page object itself, and rewriting
        it under them would corrupt their paging state.  The old page's
        children (resident and swapped) are re-parented under the tail,
        so every existing chain stays reachable and the no-orphans
        invariant holds across the rewrite.
        """
        if page.ref_count > 0 or page.swapped_refs > 0:
            return None
        if page.page_id not in self._cached:
            return None
        if not 0 < head_tokens < page.num_tokens:
            raise ValueError(
                f"split point {head_tokens} must lie strictly inside the "
                f"page's {page.num_tokens} tokens"
            )
        head_ids = page.token_ids[:head_tokens]
        tail_ids = page.token_ids[head_tokens:]
        head_chain = chain_hash(page.parent, head_ids)
        tail_chain = chain_hash(head_chain, tail_ids)
        if (
            self.peek(head_chain) is not None
            or self.peek(tail_chain) is not None
        ):
            # A bit-identical head already exists (the descent would
            # normally have full-matched it); don't shadow it.
            return None
        (
            head_payload,
            head_nbytes,
            head_fp16,
            tail_payload,
            tail_nbytes,
            tail_fp16,
        ) = split_payload(page.payload, head_tokens)
        if head_nbytes + tail_nbytes != page.nbytes:
            raise RuntimeError(
                f"split bytes drifted: {head_nbytes} + {tail_nbytes} != "
                f"{page.nbytes}"
            )
        if head_fp16 + tail_fp16 != page.fp16_nbytes:
            raise RuntimeError(
                f"split fp16 bytes drifted: {head_fp16} + {tail_fp16} != "
                f"{page.fp16_nbytes}"
            )
        self._cache_remove(page)
        self._unregister(page)
        head = KVPage(
            page_id=self._next_id,
            chain=head_chain,
            parent=page.parent,
            token_ids=head_ids,
            payload=head_payload,
            nbytes=int(head_nbytes),
            fp16_nbytes=int(head_fp16),
            hits=page.hits,
            last_used=page.last_used,
            cached_at=page.cached_at,
        )
        tail = KVPage(
            page_id=self._next_id + 1,
            chain=tail_chain,
            parent=head_chain,
            token_ids=tail_ids,
            payload=tail_payload,
            nbytes=int(tail_nbytes),
            fp16_nbytes=int(tail_fp16),
            hits=page.hits,
            last_used=page.last_used,
            cached_at=page.cached_at,
        )
        self._next_id += 2
        self._register(head)
        self._register(tail)
        self._bump(page.nbytes, page.fp16_nbytes)
        # Re-parent the old page's children under the tail (their chain
        # identities are untouched — only the edge moves; trie edges are
        # keyed by parent chain, so they outlived the old page's node).
        for child in self.trie.children(page.chain):
            self.trie.reparent(child, tail_chain)
        for child in self._swapped.values():
            if child.parent == page.chain:
                child.parent = tail_chain
        # Both halves go back into the cache with the original page's
        # age and hit history (a split is bookkeeping, not a use).
        self._cache_insert(tail)
        self._cache_insert(head)
        self.stats["pages_split"] += 1
        self.stats["split_tokens_salvaged"] += head_tokens
        self.obs.instant(
            "split",
            self.track,
            cat="pool",
            page_id=page.page_id,
            head_tokens=head_tokens,
            tokens=page.num_tokens,
        )
        return head, tail

    # ------------------------------------------------------------------
    # Pages: acquire / release / swap.
    # ------------------------------------------------------------------
    def acquire(
        self,
        chain: str,
        token_ids,
        build_payload,
        count_write: bool = True,
        parent: str = ROOT_CHAIN,
    ) -> tuple[KVPage, bool]:
        """A resident page for ``chain``: shared (ref++) or newly built.

        ``build_payload`` is called only on a miss and must return
        ``(payload, nbytes, fp16_nbytes)``.  Returns ``(page, shared)``.
        Pass ``count_write=False`` when the payload bytes were already
        accounted as written (promoting a private tail into a page moves
        no payload bytes).  ``parent`` is the preceding page's chain —
        the edge prefix matching walks and chain-aware eviction cascades
        along.
        """
        existing = self.peek(chain)
        if existing is not None:
            return self._share(existing), True
        payload, nbytes, fp16_nbytes = build_payload()
        self._evict_for(nbytes)
        page = KVPage(
            page_id=self._next_id,
            chain=chain,
            parent=parent,
            token_ids=tuple(np.asarray(token_ids, dtype=np.int64).tolist()),
            payload=payload,
            nbytes=int(nbytes),
            fp16_nbytes=int(fp16_nbytes),
            ref_count=1,
            last_used=self._clock(),
        )
        self._next_id += 1
        self._register(page)
        self._bump(page.nbytes, page.fp16_nbytes)
        self.stats["pages_allocated"] += 1
        if count_write:
            self.stats["bytes_written"] += page.nbytes
        return page, False

    def _share(self, page: KVPage) -> KVPage:
        """Pin one more resident reference on an already-resident page
        (re-pinning it out of the prefix cache if it was sitting there)
        and book the sharing dividend."""
        if page.ref_count == 0 and page.page_id in self._cached:
            self._cache_remove(page)  # prefix-cache hit: re-pin
            self.stats["prefix_cache_hits"] += 1
        page.ref_count += 1
        page.hits += 1
        page.last_used = self._clock()
        self.stats["pages_shared"] += 1
        self.stats["shared_bytes_saved"] += page.nbytes
        self.stats["shared_fp16_bytes_saved"] += page.fp16_nbytes
        return page

    def _register(self, page: KVPage) -> None:
        self.trie.insert(page)
        # The parent gained a resident child: it is no longer a leaf.
        parent = self.peek(page.parent)
        if parent is not None:
            self._leaf_discard(parent.page_id)

    def _unregister(self, page: KVPage) -> None:
        self.trie.remove(page)
        self._bump(-page.nbytes, -page.fp16_nbytes)
        # The parent may just have lost its last resident child: if it
        # is sitting in the cache, it becomes an eviction leaf.
        if not self.trie.has_children(page.parent):
            parent = self.peek(page.parent)
            if parent is not None and parent.page_id in self._cached:
                self._leaf_add(parent)

    def _maybe_demote(self, page: KVPage) -> None:
        """A page whose last resident ref just left: swap it out if a
        preempted request still needs it, otherwise retain it resident in
        the evictable prefix cache — unless its parent is no longer
        resident (no lookup could ever hit it again), in which case it is
        freed outright instead of wasting budget as dead weight."""
        if page.ref_count > 0:
            return
        if self.peek(page.chain) is page:
            if page.swapped_refs > 0:
                # The page leaves residency: cached descendants become
                # unreachable until it swaps back in — reclaim them now
                # rather than letting them squat in the budget.
                self._evict_cached_children(page)
                self._unregister(page)
                self._swapped[page.page_id] = page
                self.bytes_swapped += page.nbytes
                self.stats["swap_out_bytes"] += page.nbytes
                self.obs.instant(
                    "swap_out",
                    self.track,
                    cat="pool",
                    tier="host",
                    nbytes=page.nbytes,
                    page_id=page.page_id,
                )
                return
            if page.parent != ROOT_CHAIN and self.peek(page.parent) is None:
                # Freed for good: its cached descendants go with it.
                self._evict_cached_children(page)
                self._unregister(page)
                self.stats["pages_freed"] += 1
                return
            now = self._clock()
            page.last_used = now
            page.cached_at = now
            self._cache_insert(page)
        elif page.swapped_refs == 0 and page.page_id in self._swapped:
            del self._swapped[page.page_id]
            self.bytes_swapped -= page.nbytes
            self.stats["pages_freed"] += 1

    def _evict_cached_children(self, page: KVPage) -> None:
        for child in self.trie.children(page.chain):
            if child.page_id in self._cached:
                self._evict_page(child, reason="cascade")

    def release(self, page: KVPage) -> None:
        """Drop a resident reference (request finished)."""
        if page.ref_count <= 0:
            raise ValueError(f"page {page.page_id} has no resident refs")
        page.ref_count -= 1
        self._maybe_demote(page)

    def swap_out(self, page: KVPage) -> None:
        """Turn a resident reference into a swapped one (preemption).

        Bytes move — and count as swap-out traffic — only if this was the
        page's last resident reference; a page still referenced by other
        running requests stays put.
        """
        if page.ref_count <= 0:
            raise ValueError(f"page {page.page_id} has no resident refs")
        page.ref_count -= 1
        page.swapped_refs += 1
        self._maybe_demote(page)

    def swap_in(self, page: KVPage) -> KVPage:
        """Turn a swapped reference back into a resident one.

        Returns the resident page now serving the reference: normally
        ``page`` itself, but if a bit-identical page for the same chain
        was rebuilt resident while this one was out (another tenant
        prefilled the same prefix), that copy is re-pinned instead and
        the swapped duplicate is dropped — no bytes move, and the budget
        never carries the same content twice.
        """
        if page.swapped_refs <= 0:
            raise ValueError(f"page {page.page_id} has no swapped refs")
        page.swapped_refs -= 1
        substitute = self.peek(page.chain)
        if substitute is page:
            page.ref_count += 1  # stayed resident via another request
            return page
        if substitute is not None:
            # Other preempted requests may still reference the swapped
            # copy; it is freed only when the last of them leaves.
            if page.swapped_refs == 0:
                del self._swapped[page.page_id]
                self.bytes_swapped -= page.nbytes
                self.stats["pages_freed"] += 1
            return self._share(substitute)
        del self._swapped[page.page_id]
        self._evict_for(page.nbytes)
        self._register(page)
        self.bytes_swapped -= page.nbytes
        page.ref_count += 1
        page.last_used = self._clock()
        self._bump(page.nbytes, page.fp16_nbytes)
        self.stats["swap_in_bytes"] += page.nbytes
        self.obs.instant(
            "swap_in",
            self.track,
            cat="pool",
            tier="host",
            nbytes=page.nbytes,
            page_id=page.page_id,
        )
        return page

    # ------------------------------------------------------------------
    # Private (unpaged tail) reservations.
    # ------------------------------------------------------------------
    def reserve_private(self, nbytes: int, fp16_nbytes: int) -> None:
        """Account bytes for a request's not-yet-paged tail segments."""
        self._evict_for(nbytes)
        self.private_bytes += nbytes
        self._bump(nbytes, fp16_nbytes)
        self.stats["bytes_written"] += nbytes

    def _check_private_release(self, nbytes: int, fp16_nbytes: int) -> None:
        """Refuse to free more private bytes than are reserved.

        Like :meth:`release` on a ref-0 page, a double free here is a
        loud error: silently driving ``private_bytes`` negative would
        *relax* the byte budget by exactly the over-freed amount.
        """
        if nbytes < 0 or fp16_nbytes < 0:
            raise ValueError("private byte counts must be non-negative")
        if nbytes > self.private_bytes:
            raise ValueError(
                f"freeing {nbytes} B of private KV but only "
                f"{self.private_bytes} B are reserved (double free?)"
            )
        if fp16_nbytes > self.fp16_bytes_resident:
            raise ValueError(
                f"freeing {fp16_nbytes} fp16-equivalent B but only "
                f"{self.fp16_bytes_resident} B are resident (double free?)"
            )

    def free_private(self, nbytes: int, fp16_nbytes: int) -> None:
        self._check_private_release(nbytes, fp16_nbytes)
        self.private_bytes -= nbytes
        self._bump(-nbytes, -fp16_nbytes)

    def swap_private_out(self, nbytes: int, fp16_nbytes: int) -> None:
        self.free_private(nbytes, fp16_nbytes)
        self.bytes_swapped += nbytes
        self.private_swapped_bytes += nbytes
        self.stats["swap_out_bytes"] += nbytes
        self.obs.instant(
            "swap_out",
            self.track,
            cat="pool",
            tier="host",
            nbytes=nbytes,
            private=True,
        )

    def swap_private_in(self, nbytes: int, fp16_nbytes: int) -> None:
        if nbytes < 0 or fp16_nbytes < 0:
            raise ValueError("private byte counts must be non-negative")
        if nbytes > self.private_swapped_bytes:
            raise ValueError(
                f"swapping in {nbytes} private B but only "
                f"{self.private_swapped_bytes} private B are swapped out "
                f"(double swap-in?)"
            )
        self._evict_for(nbytes)
        self.bytes_swapped -= nbytes
        self.private_swapped_bytes -= nbytes
        self.private_bytes += nbytes
        self._bump(nbytes, fp16_nbytes)
        self.stats["swap_in_bytes"] += nbytes
        self.obs.instant(
            "swap_in",
            self.track,
            cat="pool",
            tier="host",
            nbytes=nbytes,
            private=True,
        )

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------
    @property
    def num_resident_pages(self) -> int:
        return len(self.trie)

    @property
    def num_swapped_pages(self) -> int:
        return len(self._swapped)

    @property
    def num_cached_pages(self) -> int:
        return len(self._cached)

    def unreachable_cached_pages(self) -> list[KVPage]:
        """Cached pages no prefix-match walk from ``ROOT_CHAIN`` reaches.

        These are pure waste — lookup can never hit them — so the
        chain-aware eviction, demotion and split paths must keep this
        empty; a non-empty return is an invariant violation tests fail
        on.
        """
        reachable = {ROOT_CHAIN}
        frontier = [ROOT_CHAIN]
        while frontier:
            for child in self.trie.children(frontier.pop()):
                if child.chain not in reachable:
                    reachable.add(child.chain)
                    frontier.append(child.chain)
        return [
            page
            for page in self._cached.values()
            if page.chain not in reachable
        ]

    def leaf_index_violations(self) -> list[str]:
        """Disagreements between the incremental leaf index and a ground
        truth recomputation, indexed leaves missing from a heap that
        ranks them, and heaps past the compaction bound — must be empty
        (tests assert it)."""
        truth = {
            page.page_id
            for page in self._cached.values()
            if not self.trie.has_children(page.chain)
        }
        indexed = set(self._leaf_cached)
        out = []
        for pid in sorted(truth - indexed):
            out.append(f"page {pid} is a cache leaf but not indexed")
        for pid in sorted(indexed - truth):
            out.append(f"page {pid} is indexed as a leaf but is not one")
        out += self._heap_violations(
            "victim", self._victim_heap, self._victim_live
        )
        if self.ttl_s is not None:
            out += self._heap_violations("age", self._age_heap, self._age_live)
        return out

    def _heap_violations(
        self, name: str, heap: list, live: Callable[[tuple], KVPage | None]
    ) -> list[str]:
        ranked = {page.page_id for page in map(live, heap) if page is not None}
        out = [
            f"leaf {pid} has no live {name}-heap entry"
            for pid in sorted(set(self._leaf_cached) - ranked)
        ]
        if len(heap) > self._heap_bound():
            out.append(
                f"{name} heap holds {len(heap)} entries for "
                f"{len(self._leaf_cached)} leaves"
            )
        return out

    def snapshot(self) -> dict:
        """Current occupancy + lifetime counters (for reports)."""
        return {
            "byte_budget": self.byte_budget,
            "page_tokens": self.page_tokens,
            "ttl_s": self.ttl_s,
            "bytes_resident": self.bytes_resident,
            "bytes_active": self.bytes_active,
            "bytes_evictable": self.bytes_evictable,
            "fp16_bytes_resident": self.fp16_bytes_resident,
            "bytes_swapped": self.bytes_swapped,
            "private_bytes": self.private_bytes,
            "private_swapped_bytes": self.private_swapped_bytes,
            "resident_pages": self.num_resident_pages,
            "swapped_pages": self.num_swapped_pages,
            "cached_pages": self.num_cached_pages,
            "leaf_cached_pages": len(self._leaf_cached),
            "matched_prefix_hist": dict(
                sorted(
                    self.matched_prefix_hist.items(),
                    key=lambda kv: int(kv[0].split("-")[0]),
                )
            ),
            **self.stats,
        }
