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


def to_groups(tensor: np.ndarray, group_size: int) -> tuple[np.ndarray, int]:
    """Flatten ``tensor`` into ``(num_groups, group_size)``.

    Returns the group matrix and the number of zero elements appended to
    fill the final partial group (0 when the size divides evenly).
    """
    flat = np.asarray(tensor, dtype=np.float32).ravel()
    pad = (-flat.size) % group_size
    if pad:
        flat = np.concatenate([flat, np.zeros(pad, dtype=np.float32)])
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
    tensor_exp: int


def normalize_groups(groups: np.ndarray, tensor_exp: int, config) -> NormalizedGroups:
    """Normalize each group by its (fp16-rounded) scale element."""
    scaled = groups * np.float32(2.0 ** -tensor_exp)
    order = np.argsort(-np.abs(scaled), axis=1, kind="stable")
    absmax_pos = order[:, min(config.scale_index, groups.shape[1] - 1)]
    rows = np.arange(groups.shape[0])
    raw_scale = scaled[rows, absmax_pos]
    # Round through fp16: this is exactly what the block header stores.
    scales = np.float16(raw_scale).astype(np.float32)
    safe = np.where(np.abs(scales) > 0, np.abs(scales), np.float32(1.0))
    normalized = np.clip(scaled / safe[:, None], -1.0, 1.0).astype(np.float32)
    return NormalizedGroups(
        normalized=normalized,
        absmax_pos=absmax_pos.astype(np.int64),
        scales=scales,
        tensor_exp=tensor_exp,
    )
