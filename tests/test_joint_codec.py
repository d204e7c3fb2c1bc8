"""Tier-0 tests for K and V in one codec call.

``KVCacheCodec.pair_with`` stacks a layer's key and value libraries into
one two-library codec: one plan and one pack for both sides' rows, one
unpack and one reconstruction for both sides' blocks, every group coded
against its own side's patterns, codebooks and tensor exponent.  These
tests hold it to the one-side codecs byte for byte and row for row, and
hold its corrupt-block check per library: a key block whose codebook id
is past the key library's codebooks must not decode against the value
library's.
"""

import numpy as np
import pytest

from repro.core import (
    KVCacheCodec,
    KVCacheStream,
    MetaStack,
    calibrate_kv_meta,
    read_streams,
)
from repro.core.blocks import _SMALL_DECODE_BLOCKS


@pytest.fixture(scope="module", params=[64, 128, 200], ids=lambda d: f"d{d}")
def pair(request):
    """Key and value codecs calibrated on differently shaped data (so
    their libraries differ), at a dim that fills a group exactly, one
    group and a half (padded) or half a group (padded)."""
    dim = request.param
    rng = np.random.default_rng(dim)
    key_scales = np.exp(rng.normal(0.0, 1.2, size=dim))
    keys = rng.standard_t(df=4, size=(256, dim)) * key_scales * 0.5
    values = rng.standard_normal((256, dim)) * 0.05
    key_codec = KVCacheCodec(calibrate_kv_meta(keys, seed=1))
    value_codec = KVCacheCodec(calibrate_kv_meta(values, seed=2))
    return dim, key_codec, value_codec


def _rows(rng, tokens, dim, scale=1.0):
    return (rng.standard_t(df=5, size=(tokens, dim)) * scale).astype(np.float32)


@pytest.mark.parametrize("tokens", [1, 3, 8])
def test_joint_encode_halves_match_per_side_encodes(pair, tokens):
    dim, key_codec, value_codec = pair
    rng = np.random.default_rng(tokens)
    keys, values = _rows(rng, tokens, dim), _rows(rng, tokens, dim, 0.05)
    joint = key_codec.pair_with(value_codec)
    assert key_codec.pair_with(value_codec) is joint  # built once

    k_seg, v_seg = joint.encode_sides((keys, values))
    for got, want in (
        (k_seg, key_codec.encode_tokens(keys)),
        (v_seg, value_codec.encode_tokens(values)),
    ):
        assert np.array_equal(got.blocks, want.blocks)
        assert got.shape == want.shape and got.token_shape == want.token_shape
        assert got.clipping_ratio == want.clipping_ratio
        assert got.padding_ratio == want.padding_ratio


def test_a_non_finite_row_on_one_side_leaves_the_other_sides_bytes_unchanged(pair):
    dim, key_codec, value_codec = pair
    rng = np.random.default_rng(11)
    keys, values = _rows(rng, 4, dim), _rows(rng, 4, dim, 0.05)
    keys[1, 3] = np.nan
    keys[2, :5] = np.inf
    keys[3, 0] = np.finfo(np.float16).max
    with np.errstate(all="ignore"):
        k_seg, v_seg = key_codec.pair_with(value_codec).encode_sides((keys, values))
        assert np.array_equal(k_seg.blocks, key_codec.encode_tokens(keys).blocks)
    assert np.array_equal(v_seg.blocks, value_codec.encode_tokens(values).blocks)


def test_joint_read_equals_the_two_per_side_reads(pair):
    dim, key_codec, value_codec = pair
    joint = key_codec.pair_with(value_codec)
    rng = np.random.default_rng(12)
    # Ragged on purpose: the sides need not hold the same token counts.
    k_segments = [key_codec.encode_tokens(_rows(rng, n, dim)) for n in (3, 1, 2)]
    v_segments = [
        value_codec.encode_tokens(_rows(rng, n, dim, 0.05)) for n in (1, 4)
    ]
    keys, values = joint.decode_sides((k_segments, v_segments))
    assert np.array_equal(keys, key_codec.decode_all(k_segments))
    assert np.array_equal(values, value_codec.decode_all(v_segments))
    assert keys.shape == (6, dim) and values.shape == (5, dim)
    empty, values_only = joint.decode_sides(([], v_segments))
    assert empty.shape == (0, 0)
    assert np.array_equal(values_only, values)

    # Through the streams: one read_streams call over two streams returns
    # each stream's per-side decode.
    streams = [KVCacheStream(key_codec, value_codec) for _ in range(2)]
    for stream, tokens in zip(streams, (2, 5)):
        stream.append_tokens(_rows(rng, tokens, dim), _rows(rng, tokens, dim, 0.05))
        stream.append(_rows(rng, 1, dim)[0], _rows(rng, 1, dim, 0.05)[0])
    read_keys, read_values = read_streams(streams)
    for stream, got_k, got_v in zip(streams, read_keys, read_values):
        assert np.array_equal(got_k, key_codec.decode_all(stream._segments["keys"]))
        assert np.array_equal(
            got_v, value_codec.decode_all(stream._segments["values"])
        )
        assert stream.decoded_tokens == {"keys": len(stream), "values": len(stream)}


def _with_codebook_id(block: np.ndarray, config, codebook_id: int) -> np.ndarray:
    """``block`` with its 4-bit codebook id field overwritten."""
    width = config.codebook_id_bits
    shift = config.block_bits - (
        16 + config.scale_pos_bits + config.pattern_id_bits + width
    )
    big = int.from_bytes(block.tobytes(), "big")
    big = (big & ~(((1 << width) - 1) << shift)) | (codebook_id << shift)
    return np.frombuffer(big.to_bytes(config.block_bytes, "big"), np.uint8)


@pytest.mark.parametrize("tokens", [1, _SMALL_DECODE_BLOCKS + 1], ids=["small", "wide"])
def test_a_key_block_naming_a_value_codebook_is_corrupt(pair, tokens):
    """The joint tables hold both sides' codebooks, H per side, and a key
    block's codebook id + H is the value library's codebook of the same
    number.  With the key library stacked on itself that codebook is the
    very one the block was coded with, so only the per-library range
    check stops it decoding: it must raise ``corrupt block`` on the
    scalar and the vectorized unpack, as the key codec alone does."""
    dim, key_codec, value_codec = pair
    config = key_codec.meta.config
    num_books = key_codec.meta.codebook_lengths.shape[0]
    rng = np.random.default_rng(13)
    for joint in (key_codec.pair_with(value_codec), key_codec.pair_with(key_codec)):
        k_seg, v_seg = joint.encode_sides(
            (_rows(rng, tokens, dim), _rows(rng, tokens, dim, 0.05))
        )
        joint.decode_sides(([k_seg], [v_seg]))  # intact: decodes
        last = k_seg.blocks[-1].copy()
        # H..2H-1 includes the block's own id + H.
        for codebook_id in range(num_books, 2 * num_books):
            k_seg.blocks[-1] = _with_codebook_id(last, config, codebook_id)
            with pytest.raises(ValueError, match="corrupt block"):
                joint.decode_sides(([k_seg], [v_seg]))
            with pytest.raises(ValueError, match="corrupt block"):
                key_codec.decode_all([k_seg])


def test_libraries_stack_only_when_they_share_a_config_and_size():
    rng = np.random.default_rng(14)
    wide = calibrate_kv_meta(rng.standard_normal((256, 128)))
    narrow = calibrate_kv_meta(rng.standard_normal((8, 128)))  # fewer patterns
    assert narrow.num_patterns < wide.num_patterns
    with pytest.raises(ValueError, match="equal pattern and codebook counts"):
        MetaStack((wide, narrow))
    stack = MetaStack((wide, wide))
    assert stack.num_libraries == 2 and stack.num_patterns == wide.num_patterns
    assert wide.stack.num_libraries == 1
