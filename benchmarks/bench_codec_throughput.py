"""Software codec micro-benchmarks (pytest-benchmark timing rounds).

These time the Python reference implementations themselves — the bit-exact
block codec, the vectorized fast path, the 2x activation codec, and the
streaming KV decode loop — so regressions in the library's own performance
are visible.  ``test_streaming_decode_pipeline_speedup`` also writes a
``results/codec_throughput_streaming.json`` report: the absolute
tokens/s of the batched, decode-cached streaming loop and the count of
tokens it block-decoded (each exactly once).
"""

import numpy as np
import pytest

from _report import check_baseline, write_report
from repro.obs.timing import WallTimer
from repro.core import (
    ActivationCodec,
    EccoTensorCodec,
    KVCacheCodec,
    KVCacheStream,
    calibrate_kv_meta,
    fit_tensor_meta,
    simulate_roundtrip,
)


@pytest.fixture(scope="module")
def weight_setup():
    rng = np.random.default_rng(11)
    tensor = (rng.standard_t(df=5, size=(64, 512)) * 0.02).astype(np.float32)
    meta = fit_tensor_meta(tensor, max_calibration_groups=256)
    return meta, tensor


def test_calibration_speed(benchmark):
    """fit_tensor_meta on a 64x512 tensor."""
    rng = np.random.default_rng(12)
    tensor = (rng.standard_t(df=5, size=(64, 512)) * 0.02).astype(np.float32)
    meta = benchmark.pedantic(
        lambda: fit_tensor_meta(tensor, max_calibration_groups=256),
        rounds=2,
        iterations=1,
    )
    assert meta.patterns.shape == (64, 15)


def test_bit_exact_encode(benchmark, weight_setup):
    meta, tensor = weight_setup
    codec = EccoTensorCodec(meta)
    compressed = benchmark(lambda: codec.encode(tensor))
    assert compressed.num_groups == tensor.size // 128


def test_bit_exact_decode(benchmark, weight_setup):
    meta, tensor = weight_setup
    codec = EccoTensorCodec(meta)
    compressed = codec.encode(tensor)
    decoded = benchmark(lambda: codec.decode(compressed))
    assert decoded.shape == tensor.shape


def test_fast_path_roundtrip(benchmark, weight_setup):
    meta, tensor = weight_setup
    sim = benchmark(lambda: simulate_roundtrip(meta, tensor))
    assert sim.values.shape == tensor.shape


def test_activation_codec_roundtrip(benchmark):
    rng = np.random.default_rng(13)
    act = rng.standard_normal((256, 512)).astype(np.float32)
    codec = ActivationCodec()
    decoded = benchmark(lambda: codec.roundtrip(act))
    assert decoded.shape == act.shape


def test_bit_path_close_to_fast_path(weight_setup):
    """The vectorized bit path must stay within a small factor of the
    pack-free fast path (it shares the planning pass and only adds the
    word-level pack/unpack) — a large gap means the block serialization
    regressed back toward per-bit Python loops."""
    meta, tensor = weight_setup
    codec = EccoTensorCodec(meta)
    codec.roundtrip(tensor)  # warm the cached decode tables

    def best_of(fn, rounds=3):
        times = []
        for _ in range(rounds):
            timer = WallTimer()
            with timer:
                fn()
            times.append(timer.elapsed_s)
        return min(times)

    bit_path = best_of(lambda: codec.roundtrip(tensor))
    fast_path = best_of(lambda: simulate_roundtrip(meta, tensor))
    assert fast_path < bit_path * 1.2  # packing is never free...
    assert bit_path < fast_path * 10  # ...but must stay the same order


# ----------------------------------------------------------------------
# Streaming KV decode loop: batched encode plans, cached decode tables
# and the decoded-segment cache (each read decodes only the new token).
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def kv_setup():
    rng = np.random.default_rng(21)
    scales = np.exp(rng.normal(0.0, 1.2, size=128))
    calibration = rng.standard_normal((512, 128)) * scales * 0.3
    meta = calibrate_kv_meta(calibration, seed=0)
    tokens = (rng.standard_normal((96, 128)) * scales * 0.3).astype(np.float32)
    return meta, tokens


def test_streaming_decode_pipeline_speedup(kv_setup):
    """Append-then-read-everything per token: every token must be
    block-decoded exactly once however many full reads follow it."""
    meta, tokens = kv_setup
    steps = tokens.shape[0]

    codec = KVCacheCodec(meta)
    stream = KVCacheStream(key_codec=codec, value_codec=codec)
    new_append = WallTimer()
    new_read = WallTimer()
    for step in range(steps):
        with new_append:
            stream.append(tokens[step], tokens[step])
        with new_read:
            stream.read_keys()
            stream.read_values()

    new_read_tps = steps / new_read.elapsed_s
    new_loop_tps = steps / (new_append.elapsed_s + new_read.elapsed_s)
    data = {
        "decode_steps": steps,
        "new_decode_tokens_per_s": new_read_tps,
        "new_loop_tokens_per_s": new_loop_tps,
        "tokens_block_decoded": dict(stream.decoded_tokens),
    }
    write_report(
        "codec_throughput_streaming",
        [
            f"decode steps:            {steps}",
            f"pipelined decode path:   {new_read_tps:10.1f} tokens/s",
            f"pipelined full loop:     {new_loop_tps:10.1f} tokens/s",
            f"tokens block-decoded:    {stream.decoded_tokens['keys']} keys / "
            f"{stream.decoded_tokens['values']} values (of {steps} appended)",
        ],
        data,
    )
    check_baseline(
        "codec_throughput_streaming",
        data,
        [
            # Wall-clock codec throughput: gate collapses only.
            ("new_decode_tokens_per_s", "higher", 0.90),
            # Decode-work counters are deterministic.
            ("tokens_block_decoded.keys", "lower"),
            ("tokens_block_decoded.values", "lower"),
        ],
    )
    # Every appended token decoded exactly once despite `steps` full reads.
    assert stream.decoded_tokens == {"keys": steps, "values": steps}
