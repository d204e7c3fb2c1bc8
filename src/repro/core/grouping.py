"""Grouping and per-group normalization.

A tensor is flattened row-major and cut into groups of ``group_size``
values.  Each group is normalized by its *scale element* — the value whose
|magnitude| rank equals ``config.scale_index`` (the absolute maximum by
default).  The scale is stored in the block header as a signed fp16, so
normalization here already rounds through fp16 to keep the software model
bit-exact with the packed format.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["to_groups", "normalize_groups", "NormalizedGroups", "tensor_exponent"]


def to_groups(
    tensor: np.ndarray, group_size: int, libraries: int = 1
) -> tuple[np.ndarray, int]:
    """Flatten ``tensor`` into ``(num_groups, group_size)``.

    Returns the group matrix and the number of zero elements appended to
    fill the final partial group (0 when the size divides evenly).  A
    tensor with a leading axis of ``libraries`` (a stacked codec's input)
    is grouped per library, library-major, each library padded alone.
    """
    flat = np.asarray(tensor, dtype=np.float32).reshape(libraries, -1)
    pad = (-flat.shape[1]) % group_size
    if pad:
        flat = np.concatenate(
            [flat, np.zeros((libraries, pad), dtype=np.float32)], axis=1
        )
    return flat.reshape(-1, group_size), pad


def tensor_exponent(tensor: np.ndarray) -> int:
    """Shared power-of-two exponent conditioning the fp16 group scales."""
    peak = float(np.max(np.abs(tensor), initial=0.0))
    if peak <= 0.0:
        return 0
    return int(np.ceil(np.log2(peak)))


@dataclass
class NormalizedGroups:
    """Per-group normalization state shared by both codec paths."""

    normalized: np.ndarray  # (G, group_size) values in ~[-1, 1]
    absmax_pos: np.ndarray  # (G,) position of the scale element
    scales: np.ndarray  # (G,) signed scale, already rounded through fp16
    tensor_exp: int | np.ndarray  # one per library for a stack


def normalize_groups(groups: np.ndarray, tensor_exp, config) -> NormalizedGroups:
    """Normalize each group by its (fp16-rounded) scale element.

    ``tensor_exp`` is one exponent, or one per library of a stack whose
    ``groups`` are library-major in equal counts.
    """
    exps = np.atleast_1d(np.asarray(tensor_exp, dtype=np.float64))
    factor = (2.0 ** -exps).astype(np.float32)
    group_size = groups.shape[1]
    scaled = (
        groups.reshape(exps.size, -1, group_size) * factor[:, None, None]
    ).reshape(groups.shape)
    order = np.argsort(-np.abs(scaled), axis=1, kind="stable")
    absmax_pos = order[:, min(config.scale_index, group_size - 1)]
    rows = np.arange(groups.shape[0])
    raw_scale = scaled[rows, absmax_pos]
    # Round through fp16: this is exactly what the block header stores.
    scales = np.float16(raw_scale).astype(np.float32)
    safe = np.where(np.abs(scales) > 0, np.abs(scales), np.float32(1.0))
    # min/max rather than np.clip: the same values, a fraction of the call
    # overhead on the one-token groups of the decode loop.
    normalized = np.minimum(np.maximum(scaled / safe[:, None], -1.0), 1.0).astype(
        np.float32, copy=False
    )
    return NormalizedGroups(
        normalized=normalized,
        absmax_pos=absmax_pos.astype(np.int64),
        scales=scales,
        tensor_exp=tensor_exp,
    )
