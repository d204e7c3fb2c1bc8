"""Uniform (integer) fake quantization primitives shared by the baselines."""

from __future__ import annotations

import numpy as np

__all__ = ["uniform_quantize"]


def uniform_quantize(
    values: np.ndarray,
    bits: int,
    axis: int | None = None,
    group_size: int | None = None,
) -> np.ndarray:
    """Symmetric round-to-nearest fake quantization.

    ``axis=None`` uses one tensor-wide scale; an integer axis uses one
    scale per slice along it; ``group_size`` quantizes flat groups (the
    usual 128-value granularity), overriding ``axis``.
    """
    values = np.asarray(values, dtype=np.float32)
    qmax = float(2 ** (bits - 1) - 1)
    if group_size is not None:
        flat = values.ravel()
        pad = (-flat.size) % group_size
        if pad:
            flat = np.concatenate([flat, np.zeros(pad, dtype=np.float32)])
        groups = flat.reshape(-1, group_size)
        scales = np.abs(groups).max(axis=1, keepdims=True) / qmax
        scales = np.where(scales > 0, scales, 1.0)
        q = np.clip(np.round(groups / scales), -qmax - 1, qmax)
        out = (q * scales).ravel()
        if pad:
            out = out[:-pad]
        return out.reshape(values.shape).astype(np.float32)
    if axis is None:
        scale = np.abs(values).max() / qmax
        scale = scale if scale > 0 else 1.0
    else:
        scale = np.abs(values).max(axis=axis, keepdims=True) / qmax
        scale = np.where(scale > 0, scale, 1.0)
    q = np.clip(np.round(values / scale), -qmax - 1, qmax)
    return (q * scale).astype(np.float32)
