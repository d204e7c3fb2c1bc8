"""Batched multi-request decode: one token per request per step.

A serving engine decodes many requests in lockstep: the projections and
the FFN run as one GEMM batched across requests, while attention walks
each request's own decoded KV history — the continuous-batching shape
production engines use.  KV state lives *outside* the model behind the
small :class:`BatchKV` append/read interface, so the same step function
drives any cache implementation: the paged compressed pool in
``repro.serve``, a plain fp16 cache, or a test double.

The math mirrors :meth:`ProxyModel.forward` exactly — RoPE at each
request's absolute position, the fixed per-channel KV gains on the cache
path, key smearing applied on *read* (the cache stores pre-smear keys,
as ``forward`` quantizes them) — so a request decoded incrementally
produces the same logits as the full-sequence forward pass, up to
float32 summation order.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from .model import ProxyModel, _rmsnorm, _silu, _smear_heads

__all__ = ["BatchKV", "ChunkKV", "decode_step", "prefill_chunk"]


class BatchKV(Protocol):
    """Per-layer KV state for a batch of requests mid-decode.

    ``append`` receives the batch's new key/value rows (one row per
    request, gains applied, pre-smear — exactly what ``forward`` hands
    its ``kv_quant`` hook); ``read`` returns each request's full decoded
    history *including* the row just appended, as ``(T_r, n_heads *
    head_dim)`` arrays.  Histories may differ in length across requests.

    Both take the whole batch in one call, once per layer per step, so an
    implementation over a codec whose cost is per call can compress the R
    new rows — and decompress what the R requests have not decoded yet —
    with one codec call per side instead of R (``repro.serve`` does).
    """

    def append(
        self, layer: int, keys: np.ndarray, values: np.ndarray
    ) -> None: ...

    def read(
        self, layer: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]: ...


class ChunkKV(Protocol):
    """One request's KV state mid-prefill (the chunked-prefill cache).

    ``append`` receives a whole chunk's key/value rows at once — gains
    applied, pre-smear, exactly what :meth:`ProxyModel.forward` hands its
    ``kv_quant`` hook — and must make them readable; ``read`` returns the
    request's full decoded history *including* the chunk just appended,
    as ``(T_total, n_heads * head_dim)`` arrays.
    """

    def append(
        self, layer: int, keys: np.ndarray, values: np.ndarray
    ) -> None: ...

    def read(self, layer: int) -> tuple[np.ndarray, np.ndarray]: ...


def prefill_chunk(
    model: ProxyModel,
    token_ids: np.ndarray,
    start_pos: int,
    kv: ChunkKV,
) -> np.ndarray:
    """Ingest one prompt chunk for one request; returns (T, vocab) logits.

    ``token_ids`` are the chunk's tokens and ``start_pos`` the absolute
    position of the first one (= tokens already cached for the request).
    Every chunk position attends causally over the stored history plus
    the chunk's own (quantized-roundtrip) K/V — the same cache-read path
    :func:`decode_step` uses — so ingesting a prompt in slices stores
    byte-identical KV to the whole-prompt pass and yields the same
    first-token logits up to float32 summation order.
    """
    spec = model.spec
    token_ids = np.asarray(token_ids, dtype=np.int64).reshape(-1)
    T = token_ids.size
    if T == 0:
        raise ValueError("empty prefill chunk")
    start_pos = int(start_pos)
    H, hd = spec.n_heads, spec.head_dim

    half = hd // 2
    freqs = 10000.0 ** (-np.arange(half) / half)
    positions = start_pos + np.arange(T)
    angles = positions[:, None] * freqs[None, :]
    cos = np.cos(angles).astype(np.float32)[:, None, :]  # (T, 1, half)
    sin = np.sin(angles).astype(np.float32)[:, None, :]
    inv_sqrt = np.float32(1.0 / np.sqrt(hd))

    def rope(t: np.ndarray) -> np.ndarray:
        """Rotate (T, H, hd) at the chunk's absolute positions."""
        t1, t2 = t[..., :half], t[..., half:]
        return np.concatenate(
            [t1 * cos - t2 * sin, t1 * sin + t2 * cos], axis=-1
        )

    # Causal mask: chunk position t (absolute start_pos + t) may attend
    # to every stored token plus chunk positions <= t.
    total = start_pos + T
    key_pos = np.arange(total)[None, :]
    mask = np.where(
        key_pos > (start_pos + np.arange(T))[:, None], -np.inf, 0.0
    ).astype(np.float32)

    x = model.params["embed"].data[token_ids]  # (T, d)
    for layer in range(spec.num_layers):
        p = f"layers.{layer}."
        xn, _ = _rmsnorm(x)
        q = xn @ model.params[p + "attn.wq"].data.T
        k = xn @ model.params[p + "attn.wk"].data.T
        v = xn @ model.params[p + "attn.wv"].data.T
        q = rope(q.reshape(T, H, hd))
        k = rope(k.reshape(T, H, hd))
        v = v.reshape(T, H, hd)
        # The cache path: K/V stored (and compressed) with the fixed
        # per-channel gains; q and the wo input compensate exactly.
        gk = model.k_gain[layer].reshape(1, H, hd)
        gv = model.v_gain[layer].reshape(1, H, hd)
        q = (q / gk).astype(np.float32)
        k = (k * gk).astype(np.float32)
        v = (v * gv).astype(np.float32)
        kv.append(layer, k.reshape(T, H * hd), v.reshape(T, H * hd))
        keys, values = kv.read(layer)
        kh = keys.reshape(-1, H, hd).transpose(1, 0, 2)  # (H, total, hd)
        kh = _smear_heads(kh[None])[0]  # smear on read, like decode_step
        vh = values.reshape(-1, H, hd).transpose(1, 0, 2)
        scores = np.einsum("thd,hsd->hts", q, kh) * inv_sqrt
        scores += mask[None]
        scores -= scores.max(axis=-1, keepdims=True)
        probs = np.exp(scores)
        probs /= probs.sum(axis=-1, keepdims=True)
        ctx = np.einsum("hts,hsd->thd", probs, vh).reshape(T, H * hd)
        ctx = ctx / gv.reshape(1, H * hd)
        x = x + ctx @ model.params[p + "attn.wo"].data.T

        xn2, _ = _rmsnorm(x)
        g = xn2 @ model.params[p + "ffn.wg"].data.T
        u = xn2 @ model.params[p + "ffn.wu"].data.T
        h = _silu(g) * u
        x = x + h @ model.params[p + "ffn.wd"].data.T

    xf, _ = _rmsnorm(x)
    return xf @ model.params["embed"].data.T


def decode_step(
    model: ProxyModel,
    token_ids: np.ndarray,
    positions: np.ndarray,
    kv: BatchKV,
) -> np.ndarray:
    """Advance every request by one token; returns (R, vocab) logits.

    ``token_ids[r]`` is request *r*'s newest token and ``positions[r]``
    its absolute position (= tokens already cached for that request).
    """
    spec = model.spec
    token_ids = np.asarray(token_ids, dtype=np.int64).reshape(-1)
    positions = np.asarray(positions, dtype=np.int64).reshape(-1)
    if token_ids.size != positions.size:
        raise ValueError(
            f"got {token_ids.size} token ids for {positions.size} positions"
        )
    R = token_ids.size
    H, hd = spec.n_heads, spec.head_dim

    half = hd // 2
    freqs = 10000.0 ** (-np.arange(half) / half)
    angles = positions[:, None] * freqs[None, :]
    cos = np.cos(angles).astype(np.float32)[:, None, :]  # (R, 1, half)
    sin = np.sin(angles).astype(np.float32)[:, None, :]
    inv_sqrt = np.float32(1.0 / np.sqrt(hd))

    def rope(t: np.ndarray) -> np.ndarray:
        """Rotate (R, H, hd) at each request's own absolute position."""
        t1, t2 = t[..., :half], t[..., half:]
        return np.concatenate(
            [t1 * cos - t2 * sin, t1 * sin + t2 * cos], axis=-1
        )

    x = model.params["embed"].data[token_ids]  # (R, d)
    for layer in range(spec.num_layers):
        p = f"layers.{layer}."
        xn, _ = _rmsnorm(x)
        q = xn @ model.params[p + "attn.wq"].data.T
        k = xn @ model.params[p + "attn.wk"].data.T
        v = xn @ model.params[p + "attn.wv"].data.T
        q = rope(q.reshape(R, H, hd))
        k = rope(k.reshape(R, H, hd))
        v = v.reshape(R, H, hd)
        # The cache path: K/V stored (and compressed) with the fixed
        # per-channel gains; q and the wo input compensate exactly.
        gk = model.k_gain[layer].reshape(1, H, hd)
        gv = model.v_gain[layer].reshape(1, H, hd)
        q = (q / gk).astype(np.float32)
        k = (k * gk).astype(np.float32)
        v = (v * gv).astype(np.float32)
        kv.append(layer, k.reshape(R, H * hd), v.reshape(R, H * hd))
        keys_list, values_list = kv.read(layer)
        ctx = np.empty((R, H * hd), dtype=np.float32)
        for r in range(R):
            kh = keys_list[r].reshape(-1, H, hd).transpose(1, 0, 2)
            kh = _smear_heads(kh[None])[0]  # (H, T, hd), smear on read
            vh = values_list[r].reshape(-1, H, hd).transpose(1, 0, 2)
            scores = np.einsum("hd,htd->ht", q[r], kh) * inv_sqrt
            scores -= scores.max(axis=-1, keepdims=True)
            probs = np.exp(scores)
            probs /= probs.sum(axis=-1, keepdims=True)
            ctx[r] = np.einsum("ht,htd->hd", probs, vh).reshape(H * hd)
        ctx = ctx / gv.reshape(1, H * hd)
        x = x + ctx @ model.params[p + "attn.wo"].data.T

        xn2, _ = _rmsnorm(x)
        g = xn2 @ model.params[p + "ffn.wg"].data.T
        u = xn2 @ model.params[p + "ffn.wu"].data.T
        h = _silu(g) * u
        x = x + h @ model.params[p + "ffn.wd"].data.T

    xf, _ = _rmsnorm(x)
    return xf @ model.params["embed"].data.T
