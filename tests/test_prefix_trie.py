"""Tier-0 tests for the token-level prefix trie, partial-page splitting
and the cost-aware TTL eviction policy.

The invariants pinned here: (1) a lookup matches exactly as many tokens
as a brute-force scan of the inserted sequences, and its full pages
spell a prefix of the query; (2) splitting a page then
re-descending matches at least as much as before, byte-for-byte the
same prefix; (3) split pages are bit-exact vs fresh encodes on both
storage backends and conserve byte totals exactly; (4) TTL expiry never
orphans a cached chain; (5) eviction takes the cheapest leaf first —
minimum ``(1 + hits) * nbytes``, ties least-recently-used; (6) the
incremental leaf index never disagrees with a ground-truth recompute;
(7) the engine's warm partial attach generates exactly the tokens a
cold run would; (8) probes record nothing; (9) the trie refuses a second
page for a resident chain; (10) the TTL age heap evicts exactly what a
full rescan of the leaf index would, in the same order, and never scans
the index when nothing is due; (11) both lazy heaps stay within
``2 * leaves + 64`` entries; (12) a page freed because its parent is
gone takes its cached descendants with it.
"""

import functools

import numpy as np
import pytest

from repro.llm import ProxyModel, calibrate, get_proxy_spec
from repro.obs import TraceRecorder
from repro.serve import (
    KVPage,
    PagedKVPool,
    PrefixTrie,
    ServingEngine,
    chain_hash,
    common_prefix_len,
)
from repro.serve.pool import ROOT_CHAIN
from repro.serve.storage import EccoKVBackend, Fp16KVBackend


@pytest.fixture(scope="module")
def parts():
    spec = get_proxy_spec("proxy-small")
    model = ProxyModel(spec, seed=1)
    rng = np.random.default_rng(0)
    calib = calibrate(model, rng.integers(0, spec.vocab_size, size=(8, 33)))
    return spec, model, calib


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


PER_TOKEN = 8  # fake payload bytes per token per side
PER_TOKEN_FP16 = 4 * PER_TOKEN


def _token_builder(ids):
    """Fake payload with one (tokens, PER_TOKEN) uint8 array per side,
    so a split is a plain row slice with exact byte conservation."""
    T = len(ids)
    payload = {
        0: (
            np.zeros((T, PER_TOKEN), np.uint8),
            np.zeros((T, PER_TOKEN), np.uint8),
        )
    }
    nbytes = 2 * T * PER_TOKEN
    return lambda: (payload, nbytes, T * PER_TOKEN_FP16)


def _fake_split(payload, head_tokens):
    head_p, tail_p = {}, {}
    head_n = tail_n = 0
    tail_tokens = 0
    for layer, (k, v) in payload.items():
        head_p[layer] = (k[:head_tokens].copy(), v[:head_tokens].copy())
        tail_p[layer] = (k[head_tokens:].copy(), v[head_tokens:].copy())
        head_n += head_p[layer][0].nbytes + head_p[layer][1].nbytes
        tail_n += tail_p[layer][0].nbytes + tail_p[layer][1].nbytes
        tail_tokens = k.shape[0] - head_tokens
    return (
        head_p,
        head_n,
        head_tokens * PER_TOKEN_FP16,
        tail_p,
        tail_n,
        tail_tokens * PER_TOKEN_FP16,
    )


def _grow_chain(pool, token_seq, page_tokens):
    """Acquire whole pages covering ``token_seq``; returns the pages."""
    pages = []
    parent = ROOT_CHAIN
    for j in range(len(token_seq) // page_tokens):
        ids = tuple(token_seq[j * page_tokens : (j + 1) * page_tokens])
        chain = chain_hash(parent, ids)
        page, _ = pool.acquire(chain, ids, _token_builder(ids), parent=parent)
        pages.append(page)
        parent = chain
    return pages


def _check_invariants(pool):
    assert pool.unreachable_cached_pages() == []
    assert pool.leaf_index_violations() == []
    pool.check_budget()


def _random_pool(rng, n_seqs=6, pages_per_seq=3, page_tokens=4):
    """A pool caching the pages of a few random sequences."""
    pool = PagedKVPool(10**9, page_tokens=page_tokens)
    seqs = []
    for _ in range(n_seqs):
        # Small alphabet: plenty of shared prefixes and branch points.
        seqs.append(rng.integers(0, 3, size=pages_per_seq * page_tokens))
    for seq in seqs:
        for page in _grow_chain(pool, seq, page_tokens):
            pool.release(page)
    return pool, seqs


def test_lookup_matches_brute_force_oracle():
    rng = np.random.default_rng(11)
    for round_ in range(10):
        pool, seqs = _random_pool(rng)
        for _ in range(20):
            query = rng.integers(0, 3, size=int(rng.integers(1, 16)))
            match = pool.lookup_prefix(query)
            # Token-level: the descent finds the longest prefix any
            # inserted sequence shares with the query, partial page
            # included.
            assert match.matched_tokens == max(
                common_prefix_len(query, seq) for seq in seqs
            )
            covered = [t for page in match.pages for t in page.token_ids]
            assert covered == list(query[: match.full_tokens])
        _check_invariants(pool)


def test_split_then_descend_extends_the_match():
    rng = np.random.default_rng(23)
    for round_ in range(20):
        pool, seqs = _random_pool(rng)
        query = rng.integers(0, 3, size=int(rng.integers(2, 16)))
        before = pool.lookup_prefix(query)
        covered = [
            t for page in before.pages for t in page.token_ids
        ]
        assert covered == list(query[: before.full_tokens])
        if before.partial is None:
            continue
        split = pool.split_page(
            before.partial, before.partial_tokens, _fake_split
        )
        assert split is not None
        head, tail = split
        assert head.num_tokens == before.partial_tokens
        assert head.num_tokens + tail.num_tokens == (
            before.partial.num_tokens
        )
        after = pool.lookup_prefix(query)
        # The shared head now full-matches: coverage can only grow, and
        # it still covers exactly a prefix of the query.
        assert after.full_tokens >= before.matched_tokens
        covered = [t for page in after.pages for t in page.token_ids]
        assert covered == list(query[: after.full_tokens])
        _check_invariants(pool)


def test_split_conserves_bytes_and_reparents_children():
    pool = PagedKVPool(10**9, page_tokens=4)
    seq = np.array([0, 1, 2, 3, 4, 5, 6, 7])
    pages = _grow_chain(pool, seq, 4)
    for page in pages:
        pool.release(page)
    resident_before = pool.bytes_resident
    evictable_before = pool.bytes_evictable
    head, tail = pool.split_page(pages[0], 3, _fake_split)
    assert pool.bytes_resident == resident_before
    assert pool.bytes_evictable == evictable_before
    assert head.token_ids == (0, 1, 2)
    assert tail.token_ids == (3,)
    # The old second page hangs off the tail now — still reachable.
    child = pool.peek(pages[1].chain)
    assert child is not None and child.parent == tail.chain
    match = pool.match_prefix(seq)
    assert [p.token_ids for p in match] == [(0, 1, 2), (3,), (4, 5, 6, 7)]
    _check_invariants(pool)


def test_split_refuses_pinned_and_swapped_pages():
    pool = PagedKVPool(10**9, page_tokens=4)
    (page,) = _grow_chain(pool, np.arange(4), 4)
    # Pinned: a live tenant holds the page object itself.
    assert pool.split_page(page, 2, _fake_split) is None
    pool.release(page)
    assert pool.split_page(page, 2, _fake_split) is not None
    _check_invariants(pool)


@pytest.mark.parametrize("backend_cls", [EccoKVBackend, Fp16KVBackend])
def test_split_pages_bit_exact_vs_fresh_encode(parts, backend_cls):
    spec, model, calib = parts
    backend = backend_cls(spec.num_layers, spec.d_model, calib)
    rng = np.random.default_rng(3)
    rows = {
        (layer, side): rng.normal(size=(10, spec.d_model)).astype(np.float32)
        for layer in range(spec.num_layers)
        for side in ("keys", "values")
    }
    if backend.name == "ecco":
        def encode(layer, side, x):
            k_codec, v_codec = backend.codecs[layer]
            codec = k_codec if side == "keys" else v_codec
            return codec.encode_tokens(x)

        def same(a, b):
            return np.array_equal(a.blocks, b.blocks)
    else:
        def encode(layer, side, x):
            return x.astype(np.float16)

        def same(a, b):
            return np.array_equal(a, b)

    payload = {
        layer: (
            encode(layer, "keys", rows[(layer, "keys")]),
            encode(layer, "values", rows[(layer, "values")]),
        )
        for layer in range(spec.num_layers)
    }
    total = sum(
        backend.segment_nbytes(seg)
        for pair in payload.values()
        for seg in pair
    )
    for cut in (1, 4, 9):
        head_p, head_n, head_f, tail_p, tail_n, tail_f = (
            backend.split_page_payload(payload, cut)
        )
        assert head_n + tail_n == total
        assert head_f == cut * backend.per_token_fp16_nbytes
        assert tail_f == (10 - cut) * backend.per_token_fp16_nbytes
        for layer in range(spec.num_layers):
            for pair_i, side in ((0, "keys"), (1, "values")):
                fresh_head = encode(layer, side, rows[(layer, side)][:cut])
                fresh_tail = encode(layer, side, rows[(layer, side)][cut:])
                assert same(head_p[layer][pair_i], fresh_head)
                assert same(tail_p[layer][pair_i], fresh_tail)


def test_ttl_expiry_never_orphans_a_chain():
    clock = FakeClock()
    pool = PagedKVPool(
        10**9, page_tokens=4, ttl_s=10.0, clock=clock
    )
    rng = np.random.default_rng(5)
    live = []
    for i in range(4):
        seq = rng.integers(0, 3, size=12)
        pages = _grow_chain(pool, seq, 4)
        clock.advance(1.0)
        if i % 2:
            live.extend(pages)  # stays pinned: TTL must not touch it
        else:
            for page in pages:
                pool.release(page)
    clock.advance(20.0)
    evicted = pool.expire_ttl()
    assert evicted == pool.stats["evictions_ttl"]
    # Everything unpinned and stale is gone; nothing pinned was touched.
    assert pool.num_cached_pages == 0
    assert all(pool.peek(page.chain) is page for page in live)
    _check_invariants(pool)
    # A fresh release re-caches with a fresh timestamp: no instant expiry.
    for page in live:
        pool.release(page)
    assert pool.expire_ttl() == 0
    assert pool.num_cached_pages == len(live)
    clock.advance(11.0)
    pool.expire_ttl()
    assert pool.num_cached_pages == 0
    _check_invariants(pool)


def test_cost_weighted_victim_ordering():
    clock = FakeClock()
    pool = PagedKVPool(10**9, page_tokens=4, clock=clock)

    def root_page(ids, extra_hits=0):
        chain = chain_hash(ROOT_CHAIN, ids)
        page, _ = pool.acquire(chain, ids, _token_builder(ids))
        for _ in range(extra_hits):
            again, shared = pool.acquire(chain, ids, _token_builder(ids))
            assert shared
            pool.release(again)
        clock.advance(1.0)
        pool.release(page)
        return page

    # Scores: (1 + hits) * nbytes.  One token = 16 B payload here.
    cheap = root_page((1, 2))            # 32 B, 0 hits -> score 32
    hot = root_page((3, 4))              # 32 B, 2 hits -> score 96
    big = root_page((5, 6, 7, 8, 9, 10, 11, 12))  # 128 B, 0 hits -> 128
    # Re-pin `hot` twice to raise its hit count (score 3 * 64 = 192).
    for _ in range(2):
        again, shared = pool.acquire(
            hot.chain, hot.token_ids, _token_builder(hot.token_ids)
        )
        assert shared
        clock.advance(1.0)
        pool.release(again)
    # A tie on score with `cheap`: same bytes, same hits, later release.
    tied = root_page((13, 14))
    order = []
    while pool.num_cached_pages:
        victim = pool._pick_eviction_victim()
        pool._evict_page(victim)
        order.append(victim.page_id)
        _check_invariants(pool)
    # cheap before tied (same score, younger), then hot, then big.
    assert order == [cheap.page_id, tied.page_id, hot.page_id, big.page_id]
    assert pool.stats["evictions_pressure"] == 4


def test_leaf_index_tracks_random_operations():
    rng = np.random.default_rng(17)
    clock = FakeClock()
    pool = PagedKVPool(
        60_000, page_tokens=4, ttl_s=50.0, clock=clock
    )
    held = []
    for _ in range(200):
        op = rng.integers(0, 4)
        clock.advance(1.0)
        if op == 0:
            seq = rng.integers(0, 3, size=int(rng.integers(1, 4)) * 4)
            held.extend(_grow_chain(pool, seq, 4))
        elif op == 1 and held:
            pool.release(held.pop(int(rng.integers(len(held)))))
        elif op == 2:
            query = rng.integers(0, 3, size=int(rng.integers(2, 12)))
            found = pool.lookup_prefix(query)
            if found.partial is not None:
                pool.split_page(
                    found.partial, found.partial_tokens, _fake_split
                )
        else:
            pool.expire_ttl()
        _check_invariants(pool)
    for page in held:
        pool.release(page)
    _check_invariants(pool)


def _rescan_expire_ttl(pool):
    """The TTL sweep before the age heap, kept as the reference order:
    each round rescans every cache leaf and evicts the due ones sorted by
    ``last_used`` — a stable sort, so ties go in leaf-index order."""
    if pool.ttl_s is None or not pool._leaf_cached:
        return 0
    now = pool._clock()
    evicted = 0
    while True:
        expired = [
            page
            for page in pool._leaf_cached.values()
            if now - page.last_used > pool.ttl_s
        ]
        if not expired:
            return evicted
        for page in sorted(expired, key=lambda p: p.last_used):
            pool._evict_page(page, reason="ttl")
            evicted += 1


def _ttl_schedule(pool, clock, seed):
    """Drive ``pool`` through seeded acquire / release / split / swap /
    expire ops under a TTL that bites and a budget that evicts."""
    # Opening: A (with child C) and B are cached at one instant, a
    # ``last_used`` tie; then A gains a resident child and loses it, so
    # it re-enters the leaf index after B with its age unchanged.
    a, c = _grow_chain(pool, (0, 0, 0, 0, 1, 1, 1, 1), 4)
    (b,) = _grow_chain(pool, (2, 2, 2, 2), 4)
    pool.swap_out(c)
    pool.release(a)
    pool.release(b)
    pool.swap_in(c)
    pool.swap_out(c)
    clock.advance(pool.ttl_s + 1.0)
    assert pool.expire_ttl() == 2
    rng = np.random.default_rng(seed)
    # One list of pages per request, root first; a request releases or
    # swaps out its whole chain leaf-first and swaps it in root-first.
    held, swapped = [], []
    chain_bytes = 3 * 2 * 4 * PER_TOKEN  # the longest chain a request holds
    for _ in range(600):
        clock.advance(float(rng.choice([0.0, 0.0, 1.0])))
        op = rng.choice(6, p=(0.3, 0.25, 0.1, 0.1, 0.15, 0.1))
        if op == 0 and pool.can_fit_with_eviction(chain_bytes):
            seq = rng.integers(0, 3, size=int(rng.integers(1, 4)) * 4)
            held.append(_grow_chain(pool, seq, 4))
        elif op <= 1 and held:
            pages = held.pop(int(rng.integers(len(held))))
            for page in reversed(pages):
                pool.release(page)
        elif op == 2 and held:
            pages = held.pop(int(rng.integers(len(held))))
            for page in reversed(pages):
                pool.swap_out(page)
            swapped.append(pages)
        elif op == 3 and swapped and pool.can_fit_with_eviction(chain_bytes):
            pages = swapped.pop(int(rng.integers(len(swapped))))
            held.append([pool.swap_in(page) for page in pages])
        elif op == 4:
            query = rng.integers(0, 3, size=int(rng.integers(2, 12)))
            found = pool.lookup_prefix(query)
            if found.partial is not None:
                pool.split_page(
                    found.partial, found.partial_tokens, _fake_split
                )
        else:
            pool.expire_ttl()
        _check_invariants(pool)
    return a, b


def test_ttl_heap_evicts_in_the_rescan_order():
    """The age heap evicts the same pages for the same reasons in the
    same order as a full rescan of the leaf index, through ties, leaf
    re-entry, splits, swaps and pressure evictions."""
    logs = []
    for rescan in (False, True):
        clock = FakeClock()
        recorder = TraceRecorder(clock)
        pool = PagedKVPool(
            1_600, page_tokens=4, ttl_s=10.0, clock=clock, recorder=recorder
        )
        if rescan:
            pool.expire_ttl = functools.partial(_rescan_expire_ttl, pool)
        a, b = _ttl_schedule(pool, clock, seed=23)
        logs.append([
            (event.args["page_id"], event.args["reason"])
            for event in recorder.events
            if event.name == "evict"
        ])
    heap_log, rescan_log = logs
    # The tie goes in leaf-index order: B first, then the re-entered A.
    assert heap_log[:2] == [(b.page_id, "ttl"), (a.page_id, "ttl")]
    reasons = [reason for _, reason in heap_log]
    assert reasons.count("ttl") >= 20 and reasons.count("pressure") >= 20
    assert heap_log == rescan_log


class _NoScanDict(dict):
    """A leaf index that fails any pass over its pages."""

    def __iter__(self):
        raise AssertionError("the leaf index was scanned")

    values = items = keys = __iter__


def test_expire_ttl_with_nothing_due_does_not_scan_the_leaf_index():
    clock = FakeClock()
    pool = PagedKVPool(10**9, page_tokens=4, ttl_s=100.0, clock=clock)
    for token in range(5_000):
        (page,) = _grow_chain(pool, (token,) * 4, 4)
        pool.release(page)
        clock.advance(0.01)
    assert len(pool._leaf_cached) == 5_000
    clock.advance(50.0)
    pool._leaf_cached = _NoScanDict(pool._leaf_cached)
    assert pool.expire_ttl() == 0
    assert pool.num_cached_pages == 5_000


def test_lazy_heaps_stay_bounded_under_repinning():
    """Re-pinning one cached page leaves a stale entry in each heap per
    cycle; compaction holds both heaps to ``2 * leaves + 64``."""
    pool = PagedKVPool(10**9, page_tokens=4, ttl_s=1e9, clock=FakeClock())
    (page,) = _grow_chain(pool, (1, 2, 3, 4), 4)
    pool.release(page)
    for _ in range(1_000):
        again, shared = pool.acquire(
            page.chain, page.token_ids, lambda: pytest.fail("rebuilt")
        )
        assert shared and again is page
        pool.release(again)
    assert len(pool._leaf_cached) == 1
    assert len(pool._victim_heap) <= 2 + 64
    assert len(pool._age_heap) <= 2 + 64
    _check_invariants(pool)


def test_freeing_an_orphaned_page_evicts_its_cached_descendants():
    """A pinned page whose parent was evicted is freed on release; its
    cached descendants must go with it, not stay cached unreachable."""
    pool = PagedKVPool(4 * 64, page_tokens=4)
    a, b, c, d = _grow_chain(pool, tuple(range(16)), 4)
    pool.release(a)
    pool.release(c)
    # No cache leaf (A and C each have a pinned child): the allocation
    # falls back to FIFO and evicts A from under the pinned B.
    _grow_chain(pool, (99,) * 4, 4)
    assert pool.peek(a.chain) is None
    pool.release(d)
    pool.release(b)
    assert pool.peek(c.chain) is None and pool.peek(d.chain) is None
    assert pool.stats["evictions_cascade"] == 2
    _check_invariants(pool)


def test_engine_partial_attach_matches_cold_generation(parts):
    spec, model, calib = parts
    rng = np.random.default_rng(29)
    shared = rng.integers(0, spec.vocab_size, size=28)
    prompts = [
        np.concatenate(
            [shared, rng.integers(0, spec.vocab_size, size=12)]
        )
        for _ in range(2)
    ]

    def run(prefix_reuse):
        engine = ServingEngine(
            model,
            calib,
            byte_budget=2_000_000,
            page_tokens=32,
            prefix_reuse=prefix_reuse,
        )
        outs = []
        for prompt in prompts:
            request = engine.submit(prompt, 4)
            while engine.has_work:
                engine.step()
            outs.append(list(request.generated))
        return engine, outs

    trie_engine, trie_outs = run(True)
    cold_engine, cold_outs = run(False)
    # Bit-exact storage means the warm request decodes exactly what the
    # cold run decodes — identical logits, identical tokens.
    assert trie_outs == cold_outs
    report = trie_engine.report(1.0)
    assert report["prefix_tokens_reused"] == 28
    assert report["prefix_partial_attaches"] == 1
    assert report["split_tokens_salvaged"] == 28
    assert report["pool"]["pages_split"] == 1
    assert report["pool"]["prefix_partial_hits"] == 1
    assert report["pool"]["matched_prefix_hist"] == {"16-31": 1}
    assert cold_engine.report(1.0)["prefix_tokens_reused"] == 0
    second = trie_engine.requests[1]
    assert second.metrics.split_tokens == 28
    assert second.metrics.cached_tokens == 28
    _check_invariants(trie_engine.pool)


def test_probes_record_nothing():
    rng = np.random.default_rng(41)
    pool, seqs = _random_pool(rng)
    before = pool.snapshot()
    for seq in seqs:
        # A whole chain, a mid-page stop, and an unrelated query.
        for query in (seq, seq[:6], seq[::-1]):
            pool.match_prefix(query)
    assert pool.snapshot() == before


def test_trie_refuses_a_second_page_for_a_resident_chain():
    trie = PrefixTrie()
    first = KVPage(page_id=0, chain="c", token_ids=(1, 2))
    trie.insert(first)
    with pytest.raises(RuntimeError, match="already resident"):
        trie.insert(KVPage(page_id=1, chain="c", token_ids=(1, 2)))
    assert trie.get("c") is first and len(trie) == 1

