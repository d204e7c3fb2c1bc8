"""Tier-0 tests for the batched, cached decode pipeline.

Covers the PR-2 guarantees: the vectorized word-level block packing is
byte-identical to the scalar reference, the rate control always emits a
packable block (force-shortest-codes fallback), the bit path agrees with
the fast path on padded (non-multiple-of-128) tensors for every config
preset, the batched token path emits the same blocks as the one-token
loop, and KV stream reads decode each token exactly once.
"""

import hashlib

import numpy as np
import pytest

from repro.core import (
    ACT_CONFIG,
    KV_CONFIG,
    WEIGHT_CONFIG,
    EccoTensorCodec,
    KVCacheCodec,
    KVCacheStream,
    SCALE_SYMBOL,
    TensorMeta,
    calibrate_kv_meta,
    fit_tensor_meta,
    plan_encoding,
    simulate_roundtrip,
)
from repro.core.blocks import (
    decode_tables,
    pack_block,
    pack_blocks,
    unpack_block,
    unpack_blocks,
)
from repro.core.codec import reconstruct
from repro.hardware import ParallelHuffmanDecoder


@pytest.fixture(scope="module")
def weight_setup():
    rng = np.random.default_rng(31)
    tensor = (rng.standard_t(df=5, size=(48, 512)) * 0.02).astype(np.float32)
    meta = fit_tensor_meta(tensor, max_calibration_groups=128)
    return meta, tensor


def test_pack_blocks_matches_scalar_reference(weight_setup):
    """The vectorized pack must be byte-identical to pack_block."""
    meta, tensor = weight_setup
    plan = plan_encoding(meta, tensor)
    blocks = pack_blocks(
        meta.config, plan.scales, plan.scale_pos, plan.pattern_ids,
        plan.codebook_ids, plan.symbols, plan.corrections,
        meta.codebook_lengths, meta.codebook_codes,
    )
    for g in range(plan.num_groups):
        out_pos = np.flatnonzero(plan.corrections[g])
        reference = pack_block(
            meta.config, plan.scales[g], int(plan.scale_pos[g]),
            int(plan.pattern_ids[g]), int(plan.codebook_ids[g]),
            plan.symbols[g],
            meta.codebook_lengths[plan.codebook_ids[g]],
            meta.codebook_codes[plan.codebook_ids[g]],
            out_pos, plan.corrections[g, out_pos],
        )
        assert bytes(blocks[g]) == reference


def test_unpack_blocks_matches_scalar_reference(weight_setup):
    """Both unpack paths (small-stack scalar and vectorized) must agree
    with unpack_block field for field, scale slot marked SCALE_SYMBOL."""
    meta, tensor = weight_setup
    codec = EccoTensorCodec(meta)
    compressed = codec.encode(tensor)
    tables = decode_tables(meta.codebook_lengths)
    for count in (3, compressed.num_groups):  # scalar path, vectorized path
        fields = unpack_blocks(
            meta.config, compressed.blocks[:count], meta.codebook_lengths
        )
        scales, scale_pos, pattern_ids, codebook_ids, symbols, corrections = fields
        for g in range(count):
            scale, pos, pid, cid, syms, out_pos, out_q = unpack_block(
                meta.config, compressed.blocks[g].tobytes(),
                meta.codebook_lengths, tables=tables,
            )
            assert scales[g] == scale
            assert scale_pos[g] == pos == np.flatnonzero(syms == SCALE_SYMBOL)[0]
            assert pattern_ids[g] == pid
            assert codebook_ids[g] == cid
            assert np.array_equal(symbols[g], syms)
            dense = np.zeros(meta.config.group_size, dtype=np.int64)
            dense[out_pos] = out_q
            assert np.array_equal(corrections[g], dense)


def test_decode_tables_cached_per_codec(weight_setup):
    meta, _tensor = weight_setup
    codec = EccoTensorCodec(meta)
    assert codec.window_tables is codec.window_tables


def test_force_fit_adversarial_group():
    """A group whose chosen codebook has nothing shorter to remap to used
    to overflow the 64-byte writer; the force-shortest-codes fallback must
    switch it to the escape codebook and stay bit-exact with the fast
    path."""
    config = KV_CONFIG
    patterns = np.linspace(-1.0, 1.0, 15, dtype=np.float32)[None, :]
    # Codebook 0: flat 4-bit codes -> 127 * 4 + 40 header > 512 bits, and
    # the greedy loop can shed nothing (no strictly shorter code exists).
    # Codebook 1: a 1-bit escape symbol the fallback can reach.
    lengths = np.array([[4] * 15, [1] + [8] * 14], dtype=np.uint8)
    meta = TensorMeta(
        patterns=patterns, codebook_lengths=lengths, tensor_exp=0, config=config
    )
    rng = np.random.default_rng(0)
    group = rng.uniform(-1.0, 1.0, size=128).astype(np.float32)
    group[0] = 1.0  # scale slot
    codec = EccoTensorCodec(meta)
    compressed = codec.encode(group)  # OverflowError before the fallback
    assert compressed.blocks.shape == (1, config.block_bytes)
    decoded = codec.decode(compressed)
    assert np.array_equal(decoded, simulate_roundtrip(meta, group).values)


#: blake2b-128 of the K then V blocks below, computed at the commit before
#: the per-call cost of the codec was cut (PR 13's parent).
GOLDEN_KV_BLOCKS = "e70c5b53336cd3181f7d61bc2c98d1a3"


def test_encode_tokens_bytes_are_pinned_at_every_granularity():
    """The encoder's output bytes are a contract: a seeded K and V tensor
    encoded whole, in 8-token pages and one token at a time gives the same
    blocks, and those blocks hash to the digest recorded before the planner,
    selector and packer were rewritten — on data where both the rate-control
    clip and the outlier slots fire."""
    rng = np.random.default_rng(3)
    digests = {n: hashlib.blake2b(digest_size=16) for n in ("whole", "pages", "tokens")}
    clipped = padded = 0
    for _side in ("keys", "values"):
        scales = 2.0 ** rng.integers(-3, 4, size=(1, 128))
        tensor = rng.standard_t(df=5, size=(64, 128)) * scales * 0.5
        # A few flat-spectrum tokens: their long-code streams overrun the
        # payload budget, so the rate-control loop has to clip.
        tensor[::16] = rng.uniform(-4.0, 4.0, size=(4, 128))
        tensor = tensor.astype(np.float32)
        codec = KVCacheCodec(calibrate_kv_meta(tensor, seed=0))
        plan = plan_encoding(codec.meta, tensor)
        clipped += int(plan.clipped_symbols.sum())
        padded += int(plan.padded_outliers.sum())
        digests["whole"].update(codec.encode_tokens(tensor).blocks.tobytes())
        for i in range(0, 64, 8):
            page = codec.encode_tokens(tensor[i : i + 8])
            digests["pages"].update(page.blocks.tobytes())
        for i in range(64):
            token = codec.encode_tokens(tensor[i : i + 1])
            digests["tokens"].update(token.blocks.tobytes())
    assert clipped > 0 and padded > 0
    assert {d.hexdigest() for d in digests.values()} == {GOLDEN_KV_BLOCKS}


def test_corrupt_blocks_raise_value_error_on_every_path(kv_codec):
    """Seeded damage to the last of 40 blocks — bit flips anywhere, random
    payload bytes under an intact header, a wholly random block — either
    decodes (the same fields from the vectorized path, the scalar small
    path and the hardware decoder) or raises ValueError("corrupt block"),
    never IndexError and never a silent read of a neighbouring block."""
    meta = kv_codec.meta
    config = meta.config
    rng = np.random.default_rng(40)
    tokens = (rng.standard_t(df=4, size=(40, 128)) * 0.5).astype(np.float32)
    good = kv_codec.encode_tokens(tokens).blocks
    hardware = ParallelHuffmanDecoder(meta)
    header_bytes = -(-config.header_bits // 8)

    def attempt(decode):
        try:
            return decode()
        except ValueError as error:
            assert "corrupt block" in str(error)
            return None

    outcomes = {"decoded": 0, "rejected": 0}
    for trial in range(240):
        blocks = good.copy()
        last = blocks[-1]
        if trial % 3 == 0:
            for bit in rng.integers(0, config.block_bits, size=rng.integers(1, 6)):
                last[bit >> 3] ^= 0x80 >> (bit & 7)
        elif trial % 3 == 1:
            last[header_bytes:] = rng.integers(
                0, 256, size=config.block_bytes - header_bytes, dtype=np.uint8
            )
        else:
            last[:] = rng.integers(0, 256, size=config.block_bytes, dtype=np.uint8)

        def plan_of(stack):
            return kv_codec.plan_from_blocks(stack, (stack.shape[0], 128), 0)

        wide = attempt(lambda: plan_of(blocks))  # vectorized lockstep path
        small = attempt(lambda: plan_of(blocks[-1:]))  # scalar small path
        chip = attempt(lambda: hardware.decode(last.tobytes()))
        assert (wide is None) == (small is None) == (chip is None), trial
        if wide is None:
            outcomes["rejected"] += 1
            continue
        outcomes["decoded"] += 1
        again = plan_of(blocks)
        for name in ("scales", "scale_pos", "pattern_ids", "codebook_ids",
                     "symbols", "corrections"):
            field = getattr(wide, name)
            assert np.array_equal(field, getattr(again, name))
            assert np.array_equal(field[-1:], getattr(small, name))
        assert np.array_equal(chip.values, reconstruct(meta, small)[0])
    # The seed exercises both outcomes, or the test guards nothing.
    assert outcomes["decoded"] > 20 and outcomes["rejected"] > 20


@pytest.mark.parametrize(
    "config", [WEIGHT_CONFIG, KV_CONFIG, ACT_CONFIG],
    ids=["weight", "kv", "act"],
)
@pytest.mark.parametrize("size", [100, 333, 1111])
def test_bit_path_agrees_with_fast_path_on_padded_tensors(config, size):
    """Property: decode(encode(x)) == simulate_roundtrip(x) bit for bit on
    tensors whose length is not a multiple of the group size, for every
    config preset (the pad path)."""
    assert size % config.group_size != 0
    rng = np.random.default_rng(size)
    tensor = (rng.standard_normal(size) * np.exp(rng.normal(0, 1, size))).astype(
        np.float32
    )
    meta = fit_tensor_meta(tensor, config=config, max_calibration_groups=64)
    codec = EccoTensorCodec(meta)
    decoded = codec.decode(codec.encode(tensor))
    sim = simulate_roundtrip(meta, tensor)
    assert decoded.shape == tensor.shape
    assert np.array_equal(decoded, sim.values)


@pytest.fixture(scope="module")
def kv_codec():
    rng = np.random.default_rng(7)
    scales = np.exp(rng.normal(0.0, 1.2, size=128))
    meta = calibrate_kv_meta(rng.standard_normal((256, 128)) * scales * 0.3)
    return KVCacheCodec(meta)


def test_encode_tokens_matches_per_token_blocks(kv_codec):
    """One batched planning pass must emit the same bytes as the loop."""
    rng = np.random.default_rng(8)
    for dim in (128, 200):  # whole groups, and the per-token pad path
        tokens = rng.standard_normal((6, dim)).astype(np.float32)
        batch = kv_codec.encode_tokens(tokens)
        groups_per_token = batch.num_groups // tokens.shape[0]
        for t in range(tokens.shape[0]):
            single = kv_codec.encode_token(tokens[t])
            assert np.array_equal(
                single.blocks,
                batch.blocks[t * groups_per_token : (t + 1) * groups_per_token],
            )
        decoded = kv_codec.decode_tokens(batch)
        assert decoded.shape == tokens.shape
        assert np.array_equal(
            decoded, kv_codec.decode_all([batch])
        )


def test_stream_reads_are_2d_and_decode_only_new_tokens(kv_codec):
    """Attention reads return (T, head_dim) and block-decode each token
    exactly once across the whole generation (the O(new tokens) counter)."""
    rng = np.random.default_rng(9)
    stream = KVCacheStream(key_codec=kv_codec, value_codec=kv_codec)
    prefill = rng.standard_normal((8, 128)).astype(np.float32)
    stream.append_tokens(prefill, prefill)
    keys = stream.read_keys()
    assert keys.shape == (8, 128)
    assert stream.decoded_tokens == {"keys": 8, "values": 0}

    # Repeat reads decode nothing new.
    assert stream.read_keys().shape == (8, 128)
    assert stream.decoded_tokens["keys"] == 8

    # Appends decode only the appended token on the next read.
    for step in range(4):
        vec = rng.standard_normal(128).astype(np.float32)
        stream.append(vec, vec)
        keys = stream.read_keys()
        values = stream.read_values()
        assert keys.shape == values.shape == (9 + step, 128)
    assert len(stream) == 12
    assert stream.decoded_tokens == {"keys": 12, "values": 12}

    # Reads must match a from-scratch decode of every segment.
    fresh = kv_codec.decode_all(stream._segments["keys"])
    assert np.array_equal(stream.read_keys(), fresh)

    # The eviction hook drops decoded state; the next read rebuilds it.
    stream.invalidate_decoded()
    assert np.array_equal(stream.read_keys(), fresh)
    assert stream.decoded_tokens["keys"] == 24


def test_stream_kv_quant_hook_reports_stats():
    """The eval wiring: an ecco-stream kv_quant hook runs the real block
    codec inside the model forward and surfaces its counters."""
    from repro.llm import CalibrationData, EccoStreamKVQuant, ProxySpec, ProxyModel
    from repro.llm.eval import perplexity

    spec = ProxySpec(
        name="t", num_layers=1, d_model=32, n_heads=2, ffn_dim=64,
        vocab_size=17, seq_len=8,
    )
    model = ProxyModel(spec, seed=0)
    hook = EccoStreamKVQuant(CalibrationData())
    rng = np.random.default_rng(0)
    stream_tokens = rng.integers(0, 17, size=9 * 4)
    kv_stats: dict = {}
    ppl = perplexity(
        model, stream_tokens, seq_len=8, kv_quant=hook, kv_stats=kv_stats
    )
    assert np.isfinite(ppl)
    assert kv_stats["tokens"] > 0
    assert kv_stats["compression_ratio"] == pytest.approx(
        kv_stats["original_nbytes"] / kv_stats["compressed_nbytes"]
    )
