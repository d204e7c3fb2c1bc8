"""Tier-0 tests for the serving layer and its core/kv satellites.

Covers: partial decoded-cache invalidation (counters prove only the
invalidated tokens are re-decoded), page-granular segment coalescing
(bit-exact, bounded re-decode), K/V append validation, pool page
ref-counting under shared prefixes, prefix-cache retention + eviction,
swap accounting, and an end-to-end engine run whose preempted request
re-admits without re-decoding history.
"""

import numpy as np
import pytest

from repro.core import (
    KVCacheCodec,
    KVCacheStream,
    calibrate_kv_meta,
    merge_token_segments,
    slice_token_segment,
    split_token_segment,
)
from repro.llm import ProxyModel, calibrate, get_proxy_spec
from repro.serve import PagedKVPool, RequestState, ServingEngine, chain_hash
from repro.serve.pool import ROOT_CHAIN

DIM = 128


@pytest.fixture(scope="module")
def kv_codec():
    rng = np.random.default_rng(21)
    scales = np.exp(rng.normal(0.0, 1.2, size=DIM))
    meta = calibrate_kv_meta(rng.standard_normal((256, DIM)) * scales * 0.3)
    return KVCacheCodec(meta)


def _stream_with(kv_codec, chunks):
    """A stream holding one segment per (tokens, DIM) chunk."""
    stream = KVCacheStream(key_codec=kv_codec, value_codec=kv_codec)
    for chunk in chunks:
        stream.append_tokens(chunk, chunk)
    return stream


# ----------------------------------------------------------------------
# KVCacheStream: partial invalidation and coalescing.
# ----------------------------------------------------------------------

def test_invalidate_from_token_redecodes_only_the_tail(kv_codec):
    """invalidate_decoded(from_token) must cost exactly the dropped part."""
    rng = np.random.default_rng(1)
    prefix = rng.standard_normal((8, DIM)).astype(np.float32)
    singles = [rng.standard_normal(DIM).astype(np.float32) for _ in range(4)]
    stream = _stream_with(kv_codec, [prefix] + [s[None, :] for s in singles])
    full = stream.read_keys().copy()
    stream.read_values()
    assert stream.decoded_tokens == {"keys": 12, "values": 12}

    # Page-granular eviction at the segment boundary: only 4 tokens redo.
    stream.invalidate_decoded(from_token=8)
    assert np.array_equal(stream.read_keys(), full)
    assert stream.decoded_tokens["keys"] == 12 + 4
    stream.read_values()
    assert stream.decoded_tokens["values"] == 12 + 4

    # The blunt full invalidation still re-decodes everything.
    stream.invalidate_decoded()
    assert np.array_equal(stream.read_keys(), full)
    assert stream.decoded_tokens["keys"] == 16 + 12


def test_invalidate_rounds_down_to_a_segment_boundary(kv_codec):
    """A mid-segment from_token drops that whole segment, nothing more."""
    rng = np.random.default_rng(2)
    a = rng.standard_normal((8, DIM)).astype(np.float32)
    b = rng.standard_normal((4, DIM)).astype(np.float32)
    stream = _stream_with(kv_codec, [a, b])
    stream.read_keys()
    assert stream.decoded_tokens["keys"] == 12

    stream.invalidate_decoded(from_token=10)  # inside the second segment
    stream.read_keys()
    assert stream.decoded_tokens["keys"] == 12 + 4

    stream.invalidate_decoded(from_token=3)  # inside the first segment
    stream.read_keys()
    assert stream.decoded_tokens["keys"] == 16 + 12


def test_coalesce_is_bit_exact_and_preserves_covering_cache(kv_codec):
    """Merging tail segments rewrites bookkeeping, not bytes: reads are
    identical and a decoded cache that covered the range survives."""
    rng = np.random.default_rng(3)
    prefix = rng.standard_normal((8, DIM)).astype(np.float32)
    singles = [rng.standard_normal(DIM).astype(np.float32) for _ in range(4)]
    stream = _stream_with(kv_codec, [prefix] + [s[None, :] for s in singles])
    before_k = stream.read_keys().copy()
    before_v = stream.read_values().copy()
    assert stream.num_segments == 5

    merged_k, merged_v = stream.coalesce(8)
    assert stream.num_segments == 2
    assert merged_k.token_shape == (4, DIM)
    # The cache covered the whole stream, so nothing re-decodes.
    assert np.array_equal(stream.read_keys(), before_k)
    assert np.array_equal(stream.read_values(), before_v)
    assert stream.decoded_tokens == {"keys": 12, "values": 12}
    # The merged segment is the literal concatenation of its parts.
    assert merged_k.nbytes == sum(
        kv_codec.encode_token(s).nbytes for s in singles
    )


def test_coalesce_with_partial_cache_drops_back_to_the_boundary(kv_codec):
    """A cache boundary strictly inside the merged range rolls back to
    from_token — the one re-decode a page rewrite may cost."""
    rng = np.random.default_rng(4)
    prefix = rng.standard_normal((8, DIM)).astype(np.float32)
    stream = _stream_with(kv_codec, [prefix])
    for _ in range(4):
        vec = rng.standard_normal(DIM).astype(np.float32)
        stream.append(vec, vec)
    stream.read_keys()
    assert stream.decoded_tokens["keys"] == 12
    # Two more appends the cache has not seen.
    for _ in range(2):
        vec = rng.standard_normal(DIM).astype(np.float32)
        stream.append(vec, vec)

    reference = stream.read_values().copy()  # values side: decode all 14
    stream.coalesce(8)  # merges [8, 14); keys cache sat at 12, inside it
    keys = stream.read_keys()
    assert keys.shape == (14, DIM)
    # Keys re-decoded [8, 14) = 6 tokens on top of the 12 already done.
    assert stream.decoded_tokens["keys"] == 12 + 6
    # Values cache covered all 14 tokens, so it survived the rewrite.
    assert stream.decoded_tokens["values"] == 14
    assert np.array_equal(stream.read_values(), reference)

    with pytest.raises(ValueError, match="segment boundary"):
        stream.coalesce(3)


def test_arrays_handed_out_by_reads_never_change(kv_codec):
    """The aliasing contract of the growable decoded buffer: every array a
    read ever returned stays read-only, keeps its bytes, and equals the
    matching prefix of a fresh single-call decode — through 300 appends
    interleaved with partial invalidations and page coalescing."""
    rng = np.random.default_rng(13)
    stream = KVCacheStream(key_codec=kv_codec, value_codec=kv_codec)
    kept = []  # (the array a read returned, a private copy taken then)
    page_start = 0
    for step in range(300):
        vec = rng.standard_normal(DIM).astype(np.float32)
        stream.append(vec, vec * 0.5)
        if step % 3 != 2:  # some steps skip the read, so reads batch tokens
            keys = stream.read_keys()
            kept.append((keys, keys.copy()))
        if step % 37 == 36:
            stream.invalidate_decoded(from_token=int(rng.integers(0, len(stream))))
        if step % 16 == 15:
            stream.coalesce(page_start)
            page_start = len(stream)
        if step % 101 == 100:
            stream.invalidate_decoded()
    reference = kv_codec.decode_all(stream._segments["keys"])
    assert np.array_equal(stream.read_keys(), reference)
    assert len(kept) == 200
    for keys, copy in kept:
        assert not keys.flags.writeable
        assert np.array_equal(keys, copy)
        assert np.array_equal(keys, reference[: keys.shape[0]])
    with pytest.raises(ValueError, match="read-only"):
        kept[-1][0][0, 0] = 0.0

    # A rewriting pass that changes what a segment decodes to (say, a
    # re-quantizing eviction) announces it through invalidate_decoded: the
    # next read shows the new rows, the arrays handed out before do not.
    tokens = stream._segments["keys"][1].token_shape[0]
    stream._segments["keys"][1] = kv_codec.encode_tokens(
        np.ones((tokens, DIM), dtype=np.float32)
    )
    stream.invalidate_decoded(from_token=16)
    rewritten = kv_codec.decode_all(stream._segments["keys"])
    assert not np.array_equal(rewritten, reference)
    assert np.array_equal(stream.read_keys(), rewritten)
    for keys, copy in kept:
        assert np.array_equal(keys, copy)


def test_reads_reuse_the_decoded_buffer_between_growth_steps(kv_codec):
    """O(new tokens) per read with no clock in the test: over 512
    append+read steps each read aliases the previous one — no copy of the
    rows decoded earlier — except on the at most ceil(log2 512) + 1 steps
    where the buffer grows, and every token is block-decoded once."""
    rng = np.random.default_rng(14)
    stream = KVCacheStream(key_codec=kv_codec, value_codec=kv_codec)
    steps = 512
    previous = {"keys": None, "values": None}
    fresh_buffers = {"keys": 0, "values": 0}
    for step in range(steps):
        vec = rng.standard_normal(DIM).astype(np.float32)
        stream.append(vec, vec)
        for side, read in (("keys", stream.read_keys), ("values", stream.read_values)):
            current = read()
            assert current.shape == (step + 1, DIM)
            if previous[side] is not None and not np.shares_memory(
                previous[side], current
            ):
                fresh_buffers[side] += 1
            previous[side] = current
    limit = int(np.ceil(np.log2(steps))) + 1
    assert 0 < fresh_buffers["keys"] <= limit
    assert 0 < fresh_buffers["values"] <= limit
    assert stream.decoded_tokens == {"keys": steps, "values": steps}


def test_append_token_count_mismatch_is_a_clear_error(kv_codec):
    rng = np.random.default_rng(5)
    stream = KVCacheStream(key_codec=kv_codec, value_codec=kv_codec)
    with pytest.raises(ValueError, match="3 key tokens but 2 value tokens"):
        stream.append_tokens(
            rng.standard_normal((3, DIM)), rng.standard_normal((2, DIM))
        )
    ck = kv_codec.encode_tokens(rng.standard_normal((2, DIM)))
    cv = kv_codec.encode_tokens(rng.standard_normal((3, DIM)))
    with pytest.raises(ValueError, match="2 key tokens but 3 value tokens"):
        stream.append_compressed(ck, cv)
    assert len(stream) == 0


def test_merge_token_segments_matches_batch_encode(kv_codec):
    """Merged per-chunk segments decode exactly like one batched encode."""
    rng = np.random.default_rng(6)
    tokens = rng.standard_normal((12, DIM)).astype(np.float32)
    parts = [
        kv_codec.encode_tokens(tokens[:5]),
        kv_codec.encode_tokens(tokens[5:6]),
        kv_codec.encode_tokens(tokens[6:]),
    ]
    merged = merge_token_segments(parts)
    whole = kv_codec.encode_tokens(tokens)
    assert np.array_equal(merged.blocks, whole.blocks)
    assert merged.token_shape == (12, DIM)
    assert np.array_equal(
        kv_codec.decode_tokens(merged), kv_codec.decode_tokens(whole)
    )


def test_slice_token_segment_inverts_merge_and_rejects_bad_tilings(kv_codec):
    """Slicing one batched encode at token boundaries yields the blocks
    per-part encodes emit; split_token_segment is its two-part case."""
    rng = np.random.default_rng(16)
    tokens = rng.standard_normal((12, DIM)).astype(np.float32)
    whole = kv_codec.encode_tokens(tokens)
    bounds = [0, 5, 6, 12]
    parts = slice_token_segment(whole, (5, 1, 6))
    for part, lo, hi in zip(parts, bounds, bounds[1:]):
        assert part.token_shape == (hi - lo, DIM)
        assert np.array_equal(
            part.blocks, kv_codec.encode_tokens(tokens[lo:hi]).blocks
        )
    head, tail = split_token_segment(whole, 5)
    assert np.array_equal(head.blocks, parts[0].blocks)
    assert np.array_equal(merge_token_segments(parts[1:]).blocks, tail.blocks)
    for bad in ((5, 6), (12, 0), (5, 8), ()):
        with pytest.raises(ValueError, match="do not tile"):
            slice_token_segment(whole, bad)
    for point in (0, 12, -1):
        with pytest.raises(ValueError, match="do not tile"):
            split_token_segment(whole, point)


# ----------------------------------------------------------------------
# PagedKVPool: ref counting, sharing, retention, swap.
# ----------------------------------------------------------------------

def _dummy_builder(nbytes=512):
    payload = {0: (np.zeros(nbytes // 4, np.uint8), np.zeros(nbytes // 4, np.uint8))}
    return lambda: (payload, nbytes, nbytes * 4)


def test_pool_ref_counting_under_shared_prefixes():
    pool = PagedKVPool(byte_budget=10_000, page_tokens=4)
    ids = (1, 2, 3, 4)
    chain = chain_hash(ROOT_CHAIN, ids)

    page, shared = pool.acquire(chain, ids, _dummy_builder())
    assert not shared and page.ref_count == 1
    assert pool.bytes_resident == 512

    def must_not_build():
        raise AssertionError("shared hit must not rebuild the payload")

    page2, shared2 = pool.acquire(chain, ids, must_not_build)
    assert shared2 and page2 is page and page.ref_count == 2
    # One resident copy serves both holders.
    assert pool.bytes_resident == 512
    assert pool.stats["pages_shared"] == 1
    assert pool.stats["shared_bytes_saved"] == 512

    # A different suffix after the same parent is a different page.
    other = chain_hash(chain, (9, 9, 9, 9))
    page3, shared3 = pool.acquire(other, (9, 9, 9, 9), _dummy_builder())
    assert not shared3 and page3 is not page
    assert pool.bytes_resident == 1024

    # Releases: the page stays pinned until its last holder leaves, then
    # is retained as evictable prefix cache rather than freed.
    pool.release(page)
    assert page.ref_count == 1 and pool.bytes_resident == 1024
    pool.release(page2)
    assert page.ref_count == 0
    assert pool.bytes_resident == 1024 and pool.bytes_evictable == 512
    assert pool.bytes_active == 512

    # Re-acquiring resurrects the cached page (a prefix-cache hit).
    page4, shared4 = pool.acquire(chain, ids, must_not_build)
    assert shared4 and page4 is page and page.ref_count == 1
    assert pool.stats["prefix_cache_hits"] == 1
    assert pool.bytes_evictable == 0


def test_pool_evicts_cached_pages_under_pressure():
    pool = PagedKVPool(byte_budget=2_000, page_tokens=4)
    page, _ = pool.acquire(chain_hash(ROOT_CHAIN, (1,)), (1,), _dummy_builder(800))
    pool.release(page)  # now cached, evictable
    assert pool.bytes_evictable == 800
    pool.reserve_private(1_600, 6_400)  # does not fit alongside the cache
    assert pool.bytes_evictable == 0
    assert pool.stats["pages_evicted"] == 1
    assert pool.bytes_resident == 1_600
    assert pool.peek(page.chain) is None  # gone from the index too


def test_pool_swap_accounting_with_shared_pages():
    pool = PagedKVPool(byte_budget=10_000, page_tokens=4)
    chain = chain_hash(ROOT_CHAIN, (7, 7))
    page, _ = pool.acquire(chain, (7, 7), _dummy_builder(600))
    pool.acquire(chain, (7, 7), _dummy_builder(600))  # second holder

    # Preempting one tenant of a shared page moves nothing.
    pool.swap_out(page)
    assert pool.stats["swap_out_bytes"] == 0
    assert pool.bytes_resident == 600 and pool.bytes_swapped == 0

    # Preempting the last one does.
    pool.swap_out(page)
    assert pool.stats["swap_out_bytes"] == 600
    assert pool.bytes_resident == 0 and pool.bytes_swapped == 600

    # First victim returns: bytes move back once...
    pool.swap_in(page)
    assert pool.stats["swap_in_bytes"] == 600
    assert pool.bytes_resident == 600 and pool.bytes_swapped == 0
    # ...and the second re-pins the already-resident copy for free.
    pool.swap_in(page)
    assert pool.stats["swap_in_bytes"] == 600
    assert page.ref_count == 2


def test_swap_in_repins_identical_page_rebuilt_meanwhile():
    """If a victim's prefix page was rebuilt resident by another tenant
    while it was swapped out, re-admission re-pins that copy instead of
    parking a duplicate of the same content in the budget."""
    pool = PagedKVPool(byte_budget=10_000, page_tokens=4)
    chain = chain_hash(ROOT_CHAIN, (5, 6))
    page, _ = pool.acquire(chain, (5, 6), _dummy_builder(400))
    pool.swap_out(page)  # sole holder: bytes leave
    assert pool.bytes_swapped == 400

    rebuilt, shared = pool.acquire(chain, (5, 6), _dummy_builder(400))
    assert not shared and rebuilt is not page

    serving = pool.swap_in(page)
    assert serving is rebuilt and rebuilt.ref_count == 2
    assert pool.bytes_resident == 400  # one copy, not two
    assert pool.bytes_swapped == 0
    assert pool.stats["swap_in_bytes"] == 0  # nothing moved back


def test_swap_in_substitution_with_multiple_swapped_holders():
    """The swapped copy survives until its *last* preempted holder
    re-admits; every holder lands on the rebuilt resident page."""
    pool = PagedKVPool(byte_budget=10_000, page_tokens=4)
    chain = chain_hash(ROOT_CHAIN, (5, 6))
    page, _ = pool.acquire(chain, (5, 6), _dummy_builder(400))
    pool.acquire(chain, (5, 6), _dummy_builder(400))  # second holder
    pool.swap_out(page)
    pool.swap_out(page)  # last resident ref: bytes leave, swapped_refs=2
    assert pool.bytes_swapped == 400

    rebuilt, _ = pool.acquire(chain, (5, 6), _dummy_builder(400))
    first = pool.swap_in(page)
    assert first is rebuilt
    assert pool.bytes_swapped == 400  # still held for the other victim
    second = pool.swap_in(page)
    assert second is rebuilt and rebuilt.ref_count == 3
    assert pool.bytes_swapped == 0 and pool.num_swapped_pages == 0
    assert pool.bytes_resident == 400


def test_duplicate_caller_supplied_ids_are_rejected(tiny_engine_parts):
    """Request IDs are identities: a second submit with the same ID is a
    loud error, not a silently ambiguous pair of requests."""
    spec, model, calib = tiny_engine_parts
    engine = ServingEngine(
        model, calib, storage="ecco", byte_budget=50_000, page_tokens=8
    )
    prompt = np.arange(10) % spec.vocab_size
    engine.submit(prompt, max_new_tokens=2, request_id="dup")
    with pytest.raises(ValueError, match="duplicate request_id"):
        engine.submit(prompt, max_new_tokens=2, request_id="dup")
    report = engine.run()
    assert report["finished"] == 1


# ----------------------------------------------------------------------
# Engine: preemption in compressed form reuses the decoded cache.
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_engine_parts():
    spec = get_proxy_spec("proxy-small")
    model = ProxyModel(spec, seed=1)
    rng = np.random.default_rng(0)
    calib = calibrate(model, rng.integers(0, spec.vocab_size, size=(8, 33)))
    return spec, model, calib


def test_engine_preempts_in_compressed_form_and_reuses_decoded_cache(
    tiny_engine_parts,
):
    spec, model, calib = tiny_engine_parts
    rng = np.random.default_rng(42)
    engine = ServingEngine(
        model,
        calib,
        storage="ecco",
        byte_budget=20_000,
        page_tokens=8,
        max_batch_size=8,
        watermark=0.1,
        record_reference=True,
    )
    requests = [
        engine.submit(
            rng.integers(0, spec.vocab_size, size=12), max_new_tokens=20
        )
        for _ in range(5)
    ]

    victim = None
    counters_at_swap = tokens_at_swap = None
    steps = 0
    while engine.scheduler.has_work:
        engine.step()
        steps += 1
        assert steps < 2_000
        if victim is None:
            for request in requests:
                if request.state == RequestState.SWAPPED:
                    victim = request
                    counters_at_swap = dict(victim.kv.decoded_token_counters)
                    tokens_at_swap = victim.kv.num_tokens
                    break
    report = engine.report(0.0)

    assert report["finished"] == 5
    assert report["preemptions"] > 0
    assert report["pool"]["swap_out_bytes"] > 0
    assert report["pool"]["swap_out_bytes"] == report["pool"]["swap_in_bytes"]
    assert victim is not None and victim.state == RequestState.FINISHED

    # Re-admission reused the decoded-segment cache: post-swap decode work
    # is bounded by the new tokens plus at most one page re-decode per
    # pageify rewrite — nowhere near a re-decode of the swapped history.
    new_tokens = victim.kv.num_tokens - tokens_at_swap
    page = engine.pool.page_tokens
    bound = (new_tokens + page * (new_tokens // page + 1)) * spec.num_layers
    redecode = (
        victim.kv.decoded_token_counters["keys"] - counters_at_swap["keys"]
    )
    assert redecode <= bound

    # And the multi-tenant decoded KV is bit-exact vs a single-stream run.
    assert engine.audit_kv() == []


def test_engine_rejects_requests_that_can_never_fit(tiny_engine_parts):
    spec, model, calib = tiny_engine_parts
    engine = ServingEngine(
        model, calib, storage="ecco", byte_budget=4_096, page_tokens=8
    )
    with pytest.raises(ValueError, match="pool budget"):
        engine.submit(np.arange(10) % spec.vocab_size, max_new_tokens=50)


# ----------------------------------------------------------------------
# audit_kv: the bit-exact oracle must bite.
# ----------------------------------------------------------------------

@pytest.mark.parametrize("storage", ["ecco", "fp16"])
def test_audit_kv_names_the_request_that_broke_the_contract(
    tiny_engine_parts, storage
):
    spec, model, calib = tiny_engine_parts
    parts = (model, calib if storage == "ecco" else None)
    with pytest.raises(ValueError, match="record_reference=True"):
        ServingEngine(*parts, storage=storage, byte_budget=200_000).audit_kv()
    engine = ServingEngine(
        *parts, storage=storage, byte_budget=200_000, record_reference=True
    )
    rng = np.random.default_rng(5)
    head = rng.integers(0, spec.vocab_size, size=16)
    for name in ("leader", "follower"):
        tail = rng.integers(0, spec.vocab_size, size=5)
        engine.submit(np.concatenate([head, tail]), 4, request_id=name)
        engine.run()
    leader, follower = engine.requests
    assert follower.kv.attached_tokens == 16
    assert engine.audit_kv() == []

    # Overwrite one row the follower encoded itself with its neighbour.
    if storage == "ecco":
        rows = follower.kv.streams[1]._buffer["keys"]
    else:
        rows = follower.kv._read_cache[1]["keys"].copy()
        follower.kv._read_cache[1]["keys"] = rows
    kept = rows[18].copy()
    rows[18] = rows[19]
    assert engine.audit_kv() == [
        "follower: layer 1 keys differs from the single-stream reference"
    ]
    rows[18] = kept
    # An attached prefix nobody (that the engine knows of) produced.
    engine.requests.remove(leader)
    assert engine.audit_kv() == [
        "follower: an attached row matches no single-stream encode of its "
        "token prefix"
    ]
