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
page for a resident chain; (10) the engine's ``cache_ttl_s`` ages an idle
cached chain out in the evict phase.
"""

import numpy as np
import pytest

from repro.llm import ProxyModel, calibrate, get_proxy_spec
from repro.serve import (
    KVPage,
    PagedKVPool,
    PrefixTrie,
    ServingEngine,
    StepCostModel,
    VirtualClock,
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


def test_engine_cache_ttl_ages_out_an_idle_chain(parts):
    spec, model, calib = parts
    clock = VirtualClock()
    engine = ServingEngine(
        model,
        calib,
        byte_budget=2_000_000,
        page_tokens=8,
        cache_ttl_s=5.0,
        step_cost=StepCostModel(),
        clock=clock,
    )
    rng = np.random.default_rng(43)
    engine.submit(rng.integers(0, spec.vocab_size, size=24), 2)
    engine.run()
    pool = engine.pool
    assert pool.num_cached_pages >= 3   # the finished prompt's chain
    clock.advance(10.0)                 # idle past the TTL
    engine.step()                       # the evict phase sweeps it
    assert pool.num_cached_pages == 0
    assert pool.stats["evictions_ttl"] >= 3
    assert pool.stats["evictions_pressure"] == 0
    _check_invariants(pool)
