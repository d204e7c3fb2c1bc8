"""Decode-cache amortization of the streaming KV pipeline.

The paper's decode-loop argument (§6, Figs 11-13) assumes reading the KV
cache back costs O(new tokens) per step, not O(all tokens).  These checks
pin the software pipeline to that shape: across growing generation
lengths, the number of block-decoded tokens equals the number of appended
tokens (work is linear in T, where the pre-cache loop paid T(T+1)/2), and
invalidating the decoded cache trades that work back for correctness.
Writes ``results/kv_decode_cache.json`` with measured tokens/s from the
``repro.perf`` software-stream helper.
"""

import numpy as np
import pytest

from _report import check_baseline, write_report
from repro.core import KVCacheCodec, KVCacheStream, calibrate_kv_meta
from repro.perf import sw_stream_throughput


@pytest.fixture(scope="module")
def kv_codec():
    rng = np.random.default_rng(5)
    scales = np.exp(rng.normal(0.0, 1.2, size=128))
    meta = calibrate_kv_meta(rng.standard_normal((512, 128)) * scales * 0.3, seed=0)
    return KVCacheCodec(meta)


def test_decode_work_scales_linearly(kv_codec):
    """Block-decode work must be O(T) across T-step generations."""
    rng = np.random.default_rng(9)
    work = {}
    for steps in (16, 32, 64):
        stream = KVCacheStream(key_codec=kv_codec, value_codec=kv_codec)
        tokens = rng.standard_normal((steps, 128)).astype(np.float32)
        for step in range(steps):
            stream.append(tokens[step], tokens[step])
            stream.read_keys()
            stream.read_values()
        # Every read returned the whole cache...
        assert stream.read_keys().shape == (steps, 128)
        # ...but each token was decoded exactly once, not once per read.
        assert stream.decoded_tokens == {"keys": steps, "values": steps}
        work[steps] = stream.decoded_tokens["keys"]
    assert work[64] == 4 * work[16]  # linear, not quadratic (16x)


def test_invalidation_restores_correctness(kv_codec):
    """Dropping the decoded cache re-decodes to identical values."""
    rng = np.random.default_rng(10)
    stream = KVCacheStream(key_codec=kv_codec, value_codec=kv_codec)
    tokens = rng.standard_normal((24, 128)).astype(np.float32)
    stream.append_tokens(tokens, tokens)
    before = stream.read_keys().copy()
    stream.invalidate_decoded()
    after = stream.read_keys()
    assert np.array_equal(before, after)
    # Invalidation costs exactly one full re-decode, no more.
    assert stream.decoded_tokens["keys"] == 2 * len(stream)


def test_stream_throughput_report():
    """Measured software decode-loop throughput (report + sanity floor)."""
    data = sw_stream_throughput(head_dim=128, prefill=32, decode_steps=64)
    write_report(
        "kv_decode_cache",
        [
            f"prefill:             {data['prefill_tokens']} tokens in one "
            f"batched plan ({data['prefill_tokens_per_s']:,.0f} tokens/s)",
            f"decode loop:         {data['decode_steps']} steps at "
            f"{data['decode_tokens_per_s']:,.0f} tokens/s "
            "(append + full K/V read-back per step)",
            f"tokens block-decoded: {data['decoded_tokens']['keys']} keys / "
            f"{data['decoded_tokens']['values']} values",
            f"compression:         {data['compression_ratio']:.2f}x",
        ],
        data,
    )
    check_baseline(
        "kv_decode_cache",
        data,
        [
            # Wall clock: gates a collapse only.
            ("decode_tokens_per_s", "higher", 0.90),
            ("compression_ratio", "higher"),
        ],
    )
    total = data["prefill_tokens"] + data["decode_steps"]
    assert data["decoded_tokens"] == {"keys": total, "values": total}
    assert data["compression_ratio"] == pytest.approx(4.0, rel=0.01)
