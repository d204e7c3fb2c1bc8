"""Token-level radix-trie prefix index over the paged KV pool.

The pool's hash chain is page-granular: two prompts that agree on 120 of
a 128-token page hash to different chains and share nothing.  The trie
replaces that lookup with token-level longest-prefix descent: every
resident page is a trie node hanging off its parent's chain, children
are bucketed by their first token (so descent touches one bucket per
node instead of scanning every sibling), and token comparison inside a
node is one vectorized ``numpy`` equality over the node's token array.

A query descends from ``ROOT_CHAIN``; each step either *fully* matches a
child (consume its tokens, descend into it) or stops — possibly with a
*partial* match, a child whose first ``k`` tokens continue the prompt
before diverging.  The pool turns a partial match into a page split at
the divergence point (see ``PagedKVPool.split_page``), so the next
lookup full-matches the shared head; the trie itself only reports where
the split should land.

The trie stores no payloads and takes no references, but it is the
pool's only record of which pages are resident and how they chain: the
pool's register/unregister hooks write it, every node is a resident
``KVPage``, and eviction, demotion and the invariant checks read
topology back through ``get``/``children``/``has_children``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PrefixMatch", "PrefixTrie"]


def common_prefix_len(a: np.ndarray, b: np.ndarray) -> int:
    """Length of the longest common prefix of two 1-D int arrays."""
    n = min(a.shape[0], b.shape[0])
    if n == 0:
        return 0
    neq = a[:n] != b[:n]
    return int(np.argmax(neq)) if neq.any() else n


@dataclass
class PrefixMatch:
    """What a longest-prefix descent found for one prompt.

    ``pages`` are the fully matched nodes, root to leaf; ``partial`` is
    the node the descent diverged inside (``None`` when the descent
    ended cleanly at a node boundary) and ``partial_tokens`` how many of
    its tokens continue the prompt past the full matches.
    """

    pages: list = field(default_factory=list)
    partial: object | None = None
    partial_tokens: int = 0

    @property
    def full_tokens(self) -> int:
        return sum(page.num_tokens for page in self.pages)

    @property
    def matched_tokens(self) -> int:
        """Prompt tokens covered, counting the partial node's head."""
        return self.full_tokens + self.partial_tokens


class PrefixTrie:
    """First-token-bucketed radix index of resident pages.

    Nodes are ``KVPage`` objects keyed by their ``chain`` identity;
    edges mirror the pool's parent->child chain structure.  Unlike a
    classical radix trie, siblings are *allowed* to share a first token
    (page-granular hashing creates them); the bucket keeps them under
    one key and the vectorized compare picks the best, so descent stays
    O(prompt length) with a small constant instead of O(children) per
    node.
    """

    def __init__(self):
        #: chain -> page, every resident page indexed.
        self._nodes: dict[str, object] = {}
        #: parent chain -> first token -> {chain: page}.  Empty buckets
        #: are deleted eagerly, so a chain is a key here exactly when it
        #: has resident children.
        self._edges: dict[str, dict[int, dict[str, object]]] = {}

    def __len__(self) -> int:
        return len(self._nodes)

    def get(self, chain: str):
        """The resident page whose identity is ``chain``, or ``None``."""
        return self._nodes.get(chain)

    def children(self, chain: str) -> list:
        """The resident pages chained directly off ``chain``."""
        return [
            page
            for bucket in self._edges.get(chain, {}).values()
            for page in bucket.values()
        ]

    def has_children(self, chain: str) -> bool:
        return chain in self._edges

    def insert(self, page) -> None:
        """Index one resident page under its parent chain."""
        if page.chain in self._nodes:
            # A second page for one chain would be counted in the byte
            # budget yet unreachable by any lookup; every pool path
            # checks :meth:`get` first, so this is an accounting bug.
            raise RuntimeError(
                f"chain {page.chain!r} is already resident; refusing to "
                f"register page {page.page_id} under the same identity"
            )
        self._nodes[page.chain] = page
        first = int(page.token_array[0])
        bucket = self._edges.setdefault(page.parent, {}).setdefault(first, {})
        bucket[page.chain] = page

    def remove(self, page) -> None:
        """Drop one resident page from the index (it left residency)."""
        del self._nodes[page.chain]
        buckets = self._edges[page.parent]
        first = int(page.token_array[0])
        del buckets[first][page.chain]
        if not buckets[first]:
            del buckets[first]
        if not buckets:
            del self._edges[page.parent]

    def reparent(self, page, new_parent: str) -> None:
        """Move a page under a new parent chain (page splits use this)."""
        self.remove(page)
        page.parent = new_parent
        self.insert(page)

    def match(self, ids: np.ndarray, root: str) -> PrefixMatch:
        """Longest-prefix descent of ``ids`` from the ``root`` chain.

        Greedy: at each node the candidate matching the most immediate
        tokens wins — a full child match descends, a longer partial
        match ends the descent there (after a split the diverging token
        can never match deeper, so stopping is exact, not a heuristic).
        """
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        out = PrefixMatch()
        chain, pos = root, 0
        while pos < ids.shape[0]:
            bucket = self._edges.get(chain, {}).get(int(ids[pos]))
            if not bucket:
                break
            best_full = None
            best_partial, best_partial_tokens = None, 0
            suffix = ids[pos:]
            for page in bucket.values():
                tokens = page.token_array
                n = tokens.shape[0]
                if n <= suffix.shape[0] and np.array_equal(
                    tokens, suffix[:n]
                ):
                    if best_full is None or n > best_full.num_tokens:
                        best_full = page
                    continue
                cp = common_prefix_len(tokens, suffix)
                if 0 < cp < n and cp > best_partial_tokens:
                    best_partial, best_partial_tokens = page, cp
            if best_full is not None and (
                best_full.num_tokens >= best_partial_tokens
            ):
                out.pages.append(best_full)
                pos += best_full.num_tokens
                chain = best_full.chain
                continue
            if best_partial is not None:
                out.partial = best_partial
                out.partial_tokens = best_partial_tokens
            break
        return out
