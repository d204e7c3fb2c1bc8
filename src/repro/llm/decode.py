"""The served forward: prompt chunks and decode steps through one loop.

A serving engine hands the model rows at absolute positions, each
attending over its own request's stored KV history: a prefill chunk is
one request with T rows, a decode step is R requests with one row each
— the continuous-batching shape production engines use.  Both run
through one layer loop: the projections and the FFN as one GEMM over
every row, attention per request as a batched matmul over that
request's decoded history.  KV state lives *outside* the model behind
the small :class:`ServedKV` append/read interface, so the same loop
drives any cache implementation: the paged compressed pool in
``repro.serve``, a plain fp16 cache, or a test double.

The math mirrors :meth:`ProxyModel.forward` exactly — RoPE at each
row's absolute position, the fixed per-channel KV gains on the cache
path, key smearing applied on *read* (the cache stores pre-smear keys,
as ``forward`` quantizes them) — so a request served incrementally
produces the same logits as the full-sequence forward pass, up to
float32 summation order.
"""

from __future__ import annotations

from typing import Protocol, Sequence

import numpy as np

from .model import ProxyModel, _rmsnorm, _rope, _rope_tables, _silu, _smear_heads

__all__ = ["ServedKV", "decode_step", "prefill_chunk"]


class ServedKV(Protocol):
    """Per-layer KV state of the requests one served forward advances.

    ``append`` receives every new key/value row, grouped by request in
    request order (gains applied, pre-smear — exactly what ``forward``
    hands its ``kv_quant`` hook), and must make them readable; ``read``
    returns each request's full decoded history *including* the rows
    just appended, as per-request lists of ``(T_r, n_heads * head_dim)``
    arrays.  Histories may differ in length across requests.

    Both take every request in one call, once per layer, so an
    implementation over a codec whose cost is per call can compress the
    new rows — and decompress what the requests have not decoded yet —
    with one codec call instead of one per request (``repro.serve``
    does).
    """

    def append(
        self, layer: int, keys: np.ndarray, values: np.ndarray
    ) -> None: ...

    def read(
        self, layer: int
    ) -> tuple[list[np.ndarray], list[np.ndarray]]: ...


def prefill_chunk(
    model: ProxyModel,
    token_ids: np.ndarray,
    start_pos: int,
    kv: ServedKV,
) -> np.ndarray:
    """Ingest one prompt chunk for one request; returns (T, vocab) logits.

    ``token_ids`` are the chunk's tokens and ``start_pos`` the absolute
    position of the first one (= tokens already cached for the request).
    Every chunk position attends causally over the stored history plus
    the chunk's own (quantized-roundtrip) K/V — the same cache-read path
    :func:`decode_step` uses — so ingesting a prompt in slices stores
    byte-identical KV to ingesting it as one chunk and yields the same
    first-token logits up to float32 summation order.
    """
    token_ids = np.asarray(token_ids, dtype=np.int64).reshape(-1)
    if token_ids.size == 0:
        raise ValueError("empty prefill chunk")
    positions = int(start_pos) + np.arange(token_ids.size)
    return _served_forward(model, token_ids, positions, [token_ids.size], kv)


def decode_step(
    model: ProxyModel,
    token_ids: np.ndarray,
    positions: np.ndarray,
    kv: ServedKV,
) -> np.ndarray:
    """Advance every request by one token; returns (R, vocab) logits.

    ``token_ids[r]`` is request *r*'s newest token and ``positions[r]``
    its absolute position (= tokens already cached for that request).
    """
    token_ids = np.asarray(token_ids, dtype=np.int64).reshape(-1)
    positions = np.asarray(positions, dtype=np.int64).reshape(-1)
    if token_ids.size != positions.size:
        raise ValueError(
            f"got {token_ids.size} token ids for {positions.size} positions"
        )
    return _served_forward(
        model, token_ids, positions, [1] * token_ids.size, kv
    )


def _served_forward(
    model: ProxyModel,
    token_ids: np.ndarray,
    positions: np.ndarray,
    row_counts: Sequence[int],
    kv: ServedKV,
) -> np.ndarray:
    """(rows, vocab) logits of ``token_ids`` at absolute ``positions``.

    The first ``row_counts[0]`` rows are request 0's, the next
    ``row_counts[1]`` request 1's, and so on; a request's rows are its
    next positions in order, so after the append its history runs to its
    last row.  A ``read`` of any other length is a :class:`ValueError`.
    """
    spec = model.spec
    H, hd = spec.n_heads, spec.head_dim
    N = token_ids.size
    cos, sin = _rope_tables(positions, hd)
    inv_sqrt = np.float32(1.0 / np.sqrt(hd))

    # Per request: its rows, its history length after the append, and
    # its causal mask (row t may attend to every stored token up to its
    # own position).  A one-row request attends over its whole history.
    requests = []
    start = 0
    for count in row_counts:
        rows = slice(start, start + count)
        total = int(positions[rows][-1]) + 1
        mask = None
        if count > 1:
            mask = np.where(
                np.arange(total)[None, :] > positions[rows][:, None],
                -np.inf,
                0.0,
            ).astype(np.float32)
        requests.append((rows, total, mask))
        start += count

    x = model.params["embed"].data[token_ids]  # (N, d)
    for layer in range(spec.num_layers):
        p = f"layers.{layer}."
        xn, _ = _rmsnorm(x)
        q = xn @ model.params[p + "attn.wq"].data.T
        k = xn @ model.params[p + "attn.wk"].data.T
        v = xn @ model.params[p + "attn.wv"].data.T
        q = _rope(q.reshape(N, H, hd), cos, sin)
        k = _rope(k.reshape(N, H, hd), cos, sin)
        v = v.reshape(N, H, hd)
        # The cache path: K/V stored (and compressed) with the fixed
        # per-channel gains; q and the wo input compensate exactly.
        gk = model.k_gain[layer].reshape(1, H, hd)
        gv = model.v_gain[layer].reshape(1, H, hd)
        q = (q / gk).astype(np.float32)
        k = (k * gk).astype(np.float32)
        v = (v * gv).astype(np.float32)
        kv.append(layer, k.reshape(N, H * hd), v.reshape(N, H * hd))
        keys, values = kv.read(layer)
        ctx = np.empty((N, H * hd), dtype=np.float32)
        for r, (rows, total, mask) in enumerate(requests):
            if len(keys[r]) != total or len(values[r]) != total:
                raise ValueError(
                    f"layer {layer}: request {r} read {len(keys[r])} key and "
                    f"{len(values[r])} value rows, but its rows end at "
                    f"position {total - 1}, so its history has {total}"
                )
            kh = keys[r].reshape(total, H, hd).transpose(1, 0, 2)
            kh = _smear_heads(kh[None])[0]  # (H, total, hd), smear on read
            vh = values[r].reshape(total, H, hd).transpose(1, 0, 2)
            scores = (q[rows].transpose(1, 0, 2) @ kh.transpose(0, 2, 1)) * inv_sqrt
            if mask is not None:
                scores += mask
            scores -= scores.max(axis=-1, keepdims=True)
            probs = np.exp(scores)
            probs /= probs.sum(axis=-1, keepdims=True)
            ctx[rows] = (probs @ vh).transpose(1, 0, 2).reshape(-1, H * hd)
        ctx = ctx / gv.reshape(1, H * hd)
        x = x + ctx @ model.params[p + "attn.wo"].data.T

        xn2, _ = _rmsnorm(x)
        g = xn2 @ model.params[p + "ffn.wg"].data.T
        u = xn2 @ model.params[p + "ffn.wu"].data.T
        h = _silu(g) * u
        x = x + h @ model.params[p + "ffn.wd"].data.T

    xf, _ = _rmsnorm(x)
    return xf @ model.params["embed"].data.T
