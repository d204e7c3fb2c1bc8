"""Tier-0 tests for step-batched codec calls on the serve path.

The engine encodes a decode step's R new rows, and decodes what its R
requests have not decoded yet, with one codec call per (layer, side); a
prompt is one encode call per (layer, side) however many pages it spans.
Two kinds of test hold that down:

* a differential run — the same raw K/V rows driven through
  ``_PoolBatchKV`` R requests at a time and one request at a time must
  leave every request, and the pool, in the same state after every step;
* call-count pins — ``KVCacheCodec.encode_tokens``/``decode_all`` are
  wrapped and counted, so a per-request or per-page loop creeping back
  in fails by count, not by a timing.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import KVCacheCodec
from repro.llm import ProxyModel, calibrate, get_proxy_spec
from repro.serve import PagedKVPool, ServingEngine
from repro.serve.engine import _PoolBatchKV
from repro.serve.storage import EccoKVBackend, Fp16KVBackend

LAYERS, DIM, PAGE = 2, 64, 8
SIDES = ("keys", "values")


@pytest.fixture(scope="module")
def parts():
    spec = get_proxy_spec("proxy-small")
    model = ProxyModel(spec, seed=0)
    rng = np.random.default_rng(0)
    calib = calibrate(model, rng.integers(0, spec.vocab_size, size=(8, 33)))
    return spec, model, calib


# ----------------------------------------------------------------------
# Differential: R requests per codec call vs one request per codec call.
# ----------------------------------------------------------------------

#: Prompt lengths.  Request 0 extends a cached donor conversation, so it
#: attaches two pages and reads them, its suffix and its first new token
#: in one multi-segment decode; request 1's 5-token tail pageifies at
#: step 2; request 2 sits step 2 out swapped; 3 and 4 make R = 5 ragged.
DONOR_TOKENS = 16
PROMPT_TOKENS = (21, 13, 8, 30, 3)
STEPS = 5
SWAP_STEP = 2


def _rows(rng, tokens):
    return {
        layer: tuple(
            rng.standard_normal((tokens, DIM)).astype(np.float32)
            for _ in SIDES
        )
        for layer in range(LAYERS)
    }


def _whole_prompt(backend, pool, prompt_ids, rows):
    kv = backend.create_request(pool, prompt_ids)
    hook = kv.prefill_hook()
    for layer in range(LAYERS):
        hook(f"layers.{layer}.k_cache", rows[layer][0])
        hook(f"layers.{layer}.v_cache", rows[layer][1])
    kv.commit_prompt()
    return kv


def _stored(kv, layer, side):
    """The stored bytes of one layer side, segment by segment."""
    if isinstance(kv.backend, EccoKVBackend):
        return [seg.blocks for seg in kv.streams[layer]._segments[side]]
    return kv._chunks[layer][side]


def _drive(backend, num_requests, batched, data):
    """Prefill ``num_requests`` ragged requests into one pool, then run
    STEPS decode steps — all running requests through one ``_PoolBatchKV``
    when ``batched``, each through an adapter of its own otherwise.
    Returns the per-step snapshots the two runs must agree on."""
    pool = PagedKVPool(byte_budget=10**7, page_tokens=PAGE)
    donor_ids = np.arange(DONOR_TOKENS)
    _whole_prompt(backend, pool, donor_ids, data["donor"]).release()

    kvs = []
    for r in range(num_requests):
        tokens = PROMPT_TOKENS[r]
        if r == 0:
            # The donor's cached pages, then a warm suffix of its own.
            ids = np.concatenate([donor_ids, 100 + np.arange(tokens - DONOR_TOKENS)])
            kv = backend.create_request(pool, ids)
            assert kv.attach_cached_prefix() == DONOR_TOKENS
            kv.begin_chunk(DONOR_TOKENS, tokens)
            for layer in range(LAYERS):
                kv.ingest_chunk(layer, *data["prompt"][r][layer])
            kv.commit_chunk()
        else:
            ids = 1000 * r + np.arange(tokens)
            kv = _whole_prompt(backend, pool, ids, data["prompt"][r])
        kvs.append(kv)

    snapshots = []
    for step in range(STEPS):
        if num_requests > 2 and step == SWAP_STEP:
            kvs[2].swap_out()
        if num_requests > 2 and step == SWAP_STEP + 1:
            kvs[2].swap_in()
        running = [r for r, kv in enumerate(kvs) if kv.resident]
        groups = [running] if batched else [[r] for r in running]
        reads = {}
        for layer in range(LAYERS):
            for group in groups:
                adapter = _PoolBatchKV(
                    [SimpleNamespace(kv=kvs[r]) for r in group]
                )
                adapter.append(
                    layer,
                    np.stack([data["decode"][r][layer][0][step] for r in group]),
                    np.stack([data["decode"][r][layer][1][step] for r in group]),
                )
                keys, values = adapter.read(layer)
                for slot, r in enumerate(group):
                    reads[(r, layer)] = (keys[slot].copy(), values[slot].copy())
        for r in running:
            kvs[r].commit_token(5000 + step)
        snapshots.append(
            {
                "reads": reads,
                "stored": {
                    (r, layer, side): [np.copy(s) for s in _stored(kv, layer, side)]
                    for r, kv in enumerate(kvs)
                    for layer in range(LAYERS)
                    for side in SIDES
                },
                "pages": [len(kv.pages) for kv in kvs],
                "decoded": [dict(kv.decoded_token_counters) for kv in kvs],
                "pool": (pool.bytes_active, pool.private_bytes, dict(pool.stats)),
            }
        )
        pool.check_budget()
    return snapshots


@pytest.mark.parametrize("backend_cls", [EccoKVBackend, Fp16KVBackend])
@pytest.mark.parametrize("num_requests", [1, 2, 5])
def test_step_batched_codec_calls_match_one_request_at_a_time(
    parts, backend_cls, num_requests
):
    """Same rows, same order of pool operations, only the number of
    requests per codec call differs: stored bytes, reads, decode-work
    counters and the pool's accounting must agree after every step."""
    rng = np.random.default_rng(19)
    data = {
        "donor": _rows(rng, DONOR_TOKENS),
        "prompt": [
            _rows(rng, tokens - (DONOR_TOKENS if r == 0 else 0))
            for r, tokens in enumerate(PROMPT_TOKENS)
        ],
        "decode": [_rows(rng, STEPS) for _ in PROMPT_TOKENS],
    }
    backend = backend_cls(LAYERS, DIM, parts[2])
    together = _drive(backend, num_requests, True, data)
    alone = _drive(backend, num_requests, False, data)

    # The histories really are ragged: request 1 pageified mid-run.
    if num_requests > 1:
        assert together[0]["pages"][1] == 1 and together[-1]["pages"][1] == 2
    for step, (got, want) in enumerate(zip(together, alone)):
        assert got["pages"] == want["pages"], step
        assert got["decoded"] == want["decoded"], step
        assert got["pool"] == want["pool"], step
        assert got["stored"].keys() == want["stored"].keys()
        for key, segments in got["stored"].items():
            assert len(segments) == len(want["stored"][key]), (step, key)
            for ours, theirs in zip(segments, want["stored"][key]):
                assert np.array_equal(ours, theirs), (step, key)
        assert got["reads"].keys() == want["reads"].keys()
        for key, (keys, values) in got["reads"].items():
            assert np.array_equal(keys, want["reads"][key][0]), (step, key)
            assert np.array_equal(values, want["reads"][key][1]), (step, key)


# ----------------------------------------------------------------------
# Call-count pins.
# ----------------------------------------------------------------------

@pytest.fixture
def codec_calls(monkeypatch):
    """Every ``encode_tokens``/``decode_all`` call as ``(name, tokens)``."""
    calls = []
    encode, decode = KVCacheCodec.encode_tokens, KVCacheCodec.decode_all

    def counted_encode(self, vectors):
        result = encode(self, vectors)
        calls.append(("encode", result.token_shape[0]))
        return result

    def counted_decode(self, segments):
        result = decode(self, segments)
        calls.append(("decode", result.shape[0]))
        return result

    monkeypatch.setattr(KVCacheCodec, "encode_tokens", counted_encode)
    monkeypatch.setattr(KVCacheCodec, "decode_all", counted_decode)
    return calls


def test_a_step_calls_the_codec_once_per_layer_side(parts, codec_calls):
    spec, model, calib = parts
    L = spec.num_layers
    engine = ServingEngine(
        model, calib, storage="ecco", byte_budget=10**6, page_tokens=PAGE
    )
    prompts = (40, 12, 19)
    rng = np.random.default_rng(23)  # unshared prompts: every page is cold
    requests = [
        engine.submit(rng.integers(0, spec.vocab_size, size=n), max_new_tokens=8)
        for n in prompts
    ]

    # Step 1 prefills all three, then decodes them together.  A cold
    # whole-prompt prefill is one encode and one decode per (layer, side)
    # — 40 tokens are five pages, not five calls — and the decode step
    # that follows decodes only the three new tokens: the prompt rows the
    # prefill roundtrip decoded were handed to the streams, not redone.
    engine.step()
    per_prompt = [[(name, n)] * L * 2 for n in prompts for name in ("encode", "decode")]
    prefill, step = codec_calls[: 3 * 4 * L], codec_calls[3 * 4 * L :]
    assert sorted(prefill) == sorted(sum(per_prompt, []))
    assert sorted(step) == [("decode", 3)] * 2 * L + [("encode", 3)] * 2 * L

    # A steady-state step: 2L encode calls and 2L decode calls for three
    # running requests, each covering exactly the three new tokens.
    del codec_calls[:]
    engine.step()
    assert sorted(codec_calls) == [("decode", 3)] * 2 * L + [("encode", 3)] * 2 * L

    # Every token was block-decoded exactly once, primed rows included.
    for request in requests:
        assert request.kv.decoded_token_counters == {
            side: L * request.kv.num_tokens for side in SIDES
        }


def test_a_prefill_chunk_calls_the_codec_once_per_layer_side(parts, codec_calls):
    backend = EccoKVBackend(LAYERS, DIM, parts[2])
    pool = PagedKVPool(byte_budget=10**7, page_tokens=PAGE)
    kv = backend.create_request(pool, np.arange(5 * PAGE))
    rows = _rows(np.random.default_rng(3), 3 * PAGE)
    kv.begin_ingest()
    kv.begin_chunk(0, 3 * PAGE)
    for layer in range(LAYERS):
        kv.ingest_chunk(layer, *rows[layer])
    kv.commit_chunk()
    assert codec_calls == [("encode", 3 * PAGE)] * 2 * LAYERS
    assert len(kv.pages) == 3
