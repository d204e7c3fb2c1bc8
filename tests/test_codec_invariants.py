"""Tier-0 codec invariants: fast unit tests with no trained models.

These guard the properties the whole reproduction rests on: the block
format is exactly 64 bytes, encode/decode is bit-exact with the vectorized
fast path, the metadata accounting is consistent, and the KV stream
delivers its 4x capacity win.
"""

import numpy as np
import pytest

from repro.core import (
    ACT_CONFIG,
    KV_CONFIG,
    WEIGHT_CONFIG,
    EccoTensorCodec,
    KVCacheCodec,
    KVCacheStream,
    TensorMeta,
    calibrate_kv_meta,
    compress_weight,
    fit_tensor_meta,
    simulate_roundtrip,
    to_groups,
)


@pytest.fixture(scope="module")
def weight_tensor():
    rng = np.random.default_rng(42)
    scales = np.exp(rng.normal(0.0, 0.7, size=(64, 1)))
    return (rng.standard_t(df=5, size=(64, 512)) * scales * 0.02).astype(np.float32)


@pytest.fixture(scope="module")
def weight_meta(weight_tensor):
    return fit_tensor_meta(weight_tensor, max_calibration_groups=256)


def test_blocks_are_64_bytes(weight_meta, weight_tensor):
    compressed = EccoTensorCodec(weight_meta).encode(weight_tensor)
    assert compressed.blocks.shape == (weight_tensor.size // 128, 64)
    assert compressed.blocks.dtype == np.uint8
    assert compressed.nbytes == compressed.num_groups * 64


def test_compression_ratio_is_4x(weight_meta, weight_tensor):
    compressed = EccoTensorCodec(weight_meta).encode(weight_tensor)
    assert compressed.compression_ratio == pytest.approx(4.0)


def test_encode_decode_bit_exact_with_fast_path(weight_meta, weight_tensor):
    codec = EccoTensorCodec(weight_meta)
    decoded = codec.decode(codec.encode(weight_tensor))
    sim = simulate_roundtrip(weight_meta, weight_tensor)
    assert np.array_equal(decoded, sim.values)
    assert decoded.shape == weight_tensor.shape


def test_roundtrip_reduces_to_quantization_error(weight_meta, weight_tensor):
    sim = simulate_roundtrip(weight_meta, weight_tensor)
    rel_rms = np.sqrt(np.mean((sim.values - weight_tensor) ** 2)) / np.std(
        weight_tensor
    )
    assert rel_rms < 0.3  # 15-level quantization + outlier padding


def test_metadata_bits_accounting(weight_meta):
    config = weight_meta.config
    expected = (
        weight_meta.patterns.size * 16
        + weight_meta.codebook_lengths.size * 4
        + 8
        + 16
    )
    assert weight_meta.metadata_bits() == expected
    assert weight_meta.patterns.shape == (config.num_patterns, 15)
    assert weight_meta.codebook_lengths.shape == (config.num_codebooks, 15)


def test_patterns_sorted_and_in_range(weight_meta):
    assert np.all(np.diff(weight_meta.patterns, axis=1) >= 0)
    assert np.all(weight_meta.patterns >= -1.0)
    assert np.all(weight_meta.patterns <= 1.0)


def test_huffman_codebooks_kraft_valid(weight_meta):
    lengths = weight_meta.codebook_lengths.astype(np.float64)
    kraft = np.sum(2.0**-lengths, axis=1)
    assert np.all(kraft <= 1.0 + 1e-12)
    assert np.all(weight_meta.codebook_lengths >= 1)
    assert np.all(weight_meta.codebook_lengths <= weight_meta.config.max_code_len)


def test_budget_never_exceeded(weight_meta, weight_tensor):
    """Every block's payload must fit: header + codes + outliers <= 512."""
    from repro.core import plan_encoding

    plan = plan_encoding(weight_meta, weight_tensor)
    config = weight_meta.config
    lengths = weight_meta.codebook_lengths.astype(np.int64)
    for g in range(plan.num_groups):
        coded = plan.symbols[g] != 15
        bits = int(lengths[plan.codebook_ids[g]][plan.symbols[g][coded]].sum())
        bits += config.header_bits
        bits += int((plan.corrections[g] != 0).sum()) * config.outlier_bits
        assert bits <= config.block_bits, g


def test_partial_group_padding():
    rng = np.random.default_rng(3)
    tensor = rng.standard_normal(200).astype(np.float32)  # not a multiple of 128
    groups, pad = to_groups(tensor, 128)
    assert groups.shape == (2, 128)
    assert pad == 56
    meta = fit_tensor_meta(tensor)
    codec = EccoTensorCodec(meta)
    decoded = codec.decode(codec.encode(tensor))
    assert decoded.shape == tensor.shape


def test_kv_stream_compression_ratio():
    rng = np.random.default_rng(7)
    meta = calibrate_kv_meta(rng.standard_normal((64, 128)), seed=0)
    codec = KVCacheCodec(meta)
    stream = KVCacheStream(key_codec=codec, value_codec=codec)
    steps, dim = 24, 128
    keys = rng.standard_normal((steps, dim))
    values = rng.standard_normal((steps, dim))
    for i in range(steps):
        stream.append(keys[i], values[i])
    assert len(stream) == steps
    assert stream.compression_ratio == pytest.approx(4.0)
    restored = stream.read_keys().reshape(steps, dim)
    err = np.sqrt(np.mean((restored - keys) ** 2)) / np.std(keys)
    assert err < 0.35


def test_kv_codec_requires_minmax_meta():
    rng = np.random.default_rng(9)
    meta = fit_tensor_meta(rng.standard_normal((32, 128)), config=WEIGHT_CONFIG)
    with pytest.raises(ValueError):
        KVCacheCodec(meta)


def test_compress_weight_one_call():
    rng = np.random.default_rng(11)
    weight = (rng.standard_t(df=5, size=(32, 256)) * 0.02).astype(np.float32)
    compressed, meta = compress_weight(weight)
    assert compressed.num_groups == weight.size // 128
    decoded = EccoTensorCodec(meta).decode(compressed)
    assert decoded.shape == weight.shape


def test_kv_config_uses_minmax_selection():
    assert KV_CONFIG.pattern_select == "minmax"
    assert KV_CONFIG.num_patterns == 16
    assert WEIGHT_CONFIG.pattern_select == "mse"
    assert WEIGHT_CONFIG.num_patterns == 64


def _hostile_rows(rng, n):
    nan_inf = rng.standard_normal(n)
    nan_inf[::7], nan_inf[3::11], nan_inf[5::13] = np.nan, np.inf, -np.inf
    return {
        "zeros": np.zeros(n),
        "constant": np.full(n, 3.25),
        "denormal": np.full(n, 1e-42),
        "fp16-max": 6e4 * np.where(np.arange(n) % 2, -1.0, 1.0),
        "cauchy": rng.standard_cauchy(n),
        "nan-inf": nan_inf,
    }


def _hostile_meta(kind, config, rng):
    if kind == "fitted":
        calib = rng.standard_t(df=5, size=(64, 4 * config.group_size)) * 0.05
        return fit_tensor_meta(calib.astype(np.float32), config=config)
    patterns = np.sort(
        rng.uniform(-1.0, 1.0, size=(config.num_patterns, 15)), axis=1
    ).astype(np.float32)
    if kind == "force-fit":
        # Flat 4-bit codebooks shed nothing (127 * 4 + header > 512 bits);
        # only the last codebook's 1-bit escape symbol can make a group fit.
        lengths = np.full((config.num_codebooks, 15), 4, dtype=np.uint8)
        if config.num_codebooks > 1:
            lengths[-1] = [1] + [8] * 14
    else:  # "tight": Kraft sum exactly 1, ~4 bits/symbol, so clipping fires
        lengths = np.tile(
            np.array([3, 3] + [4] * 11 + [5, 5], dtype=np.uint8),
            (config.num_codebooks, 1),
        )
    return TensorMeta(
        patterns=patterns, codebook_lengths=lengths, tensor_exp=0, config=config
    )


@pytest.mark.parametrize("group_size", [128, 63])
@pytest.mark.parametrize("kind", ["fitted", "force-fit", "tight"])
@pytest.mark.parametrize(
    "preset", [WEIGHT_CONFIG, KV_CONFIG, ACT_CONFIG], ids=["weight", "kv", "act"]
)
def test_hostile_rows_fit_their_blocks_or_raise(preset, kind, group_size):
    """Zeros, constants, denormals, fp16-max, Cauchy and NaN/inf rows through
    every preset: blocks are 64 bytes, pack -> unpack -> re-pack is bit-exact
    (non-finite rows included: their residuals take no outlier slot) and
    decode equals the fast path.  The force-shortest-codes fallback either
    fits the group or raises its ValueError — it never overflows the writer;
    only a meta whose every codebook is flat (ACT's single one) may raise."""
    config = preset.replace(group_size=group_size)
    rng = np.random.default_rng(group_size)
    meta = _hostile_meta(kind, config, rng)
    codec = EccoTensorCodec(meta)
    cannot_fit = (
        kind == "force-fit" and config.num_codebooks == 1 and group_size == 128
    )
    for name, row in _hostile_rows(rng, 5 * group_size).items():
        tensor = row.astype(np.float32)
        with np.errstate(all="ignore"):
            if cannot_fit:
                with pytest.raises(ValueError, match="group cannot fit its block"):
                    codec.encode(tensor)
                continue
            compressed = codec.encode(tensor)
            assert compressed.blocks.shape == (5, 64), name
            assert compressed.blocks.dtype == np.uint8
            plan = codec.plan_from_blocks(
                compressed.blocks, compressed.shape, compressed.pad
            )
            repacked = codec.encode_plan(plan)
            assert np.array_equal(repacked.blocks, compressed.blocks), name
            assert np.array_equal(
                codec.decode(compressed),
                simulate_roundtrip(meta, tensor).values,
                equal_nan=True,
            ), name


@pytest.mark.parametrize("dim", [128, 200])
def test_hostile_row_in_a_batch_leaves_its_neighbours_bytes_alone(dim):
    """A serving step encodes every running request's new row in one
    ``encode_tokens`` call: a NaN/inf, denormal or fp16-max row from one
    request must leave each neighbour's blocks byte-identical to encoding
    that neighbour alone (groups are planned independently), and the bad
    row's own blocks must be what a call of its own emits."""
    rng = np.random.default_rng(dim)
    scales = np.exp(rng.normal(0.0, 1.2, size=dim))
    codec = KVCacheCodec(
        calibrate_kv_meta(rng.standard_normal((256, dim)) * scales * 0.3)
    )
    neighbours = (rng.standard_normal((4, dim)) * scales * 0.3).astype(np.float32)
    alone = [codec.encode_token(row).blocks for row in neighbours]
    per_token = alone[0].shape[0]
    hostile = _hostile_rows(rng, dim)
    for name in ("nan-inf", "denormal", "fp16-max"):
        bad = hostile[name].astype(np.float32)
        with np.errstate(all="ignore"):
            batch = codec.encode_tokens(
                np.concatenate([neighbours[:2], bad[None], neighbours[2:]])
            ).blocks.reshape(5, per_token, -1)
            assert np.array_equal(batch[2], codec.encode_token(bad).blocks), name
        for got, want in zip(np.delete(batch, 2, axis=0), alone):
            assert np.array_equal(got, want), name
