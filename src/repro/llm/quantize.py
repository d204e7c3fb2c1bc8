"""Fake-quantization schemes: Ecco and the baselines it is compared with.

Every scheme produces a :class:`QuantizedModel` whose ``hooks()`` feed the
evaluation functions: a ``weights`` override dict, and optional
``act_quant`` / ``kv_quant`` callables.  All schemes are faithful
simplified models of their namesakes — enough structure that their error
profiles order the way the paper's Table 1/2 rows do.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core import (
    ActivationCodec,
    KV_CONFIG,
    KVCacheCodec,
    WEIGHT_CONFIG,
    EccoConfig,
    fit_tensor_meta,
    simulate_roundtrip,
)
from repro.quant import awq_weight, uniform_quantize

from .calibration import CalibrationData
from .model import ProxyModel

__all__ = ["QuantizedModel", "quantize_model", "apply_named_scheme",
           "NAMED_SCHEMES", "fit_kv_codec"]

_CALIB_GROUPS = 384


def fit_kv_codec(sample: np.ndarray) -> KVCacheCodec:
    """The one shared recipe for fitting a streaming KV codec from a
    calibration sample.  The accuracy tables' Ecco KV hook
    (kv method ``"ecco"``) and the serving backend
    (``repro.serve.storage.EccoKVBackend``) both build their codecs here,
    so their compressed bytes always agree."""
    meta = fit_tensor_meta(
        sample, config=KV_CONFIG, max_calibration_groups=_CALIB_GROUPS
    )
    return KVCacheCodec(meta)


@dataclass
class QuantizedModel:
    """A scheme's evaluation hooks."""

    name: str
    weights: dict | None = None
    act_quant: object = None
    kv_quant: object = None

    def hooks(self) -> dict:
        out: dict = {}
        if self.weights is not None:
            out["weights"] = self.weights
        if self.act_quant is not None:
            out["act_quant"] = self.act_quant
        if self.kv_quant is not None:
            out["kv_quant"] = self.kv_quant
        return out


# ----------------------------------------------------------------------
# Weight quantizers.
# ----------------------------------------------------------------------

def _act_mean_sq(calib: CalibrationData, name: str) -> np.ndarray | None:
    stats = calib.act_stats.get(name)
    return None if stats is None else stats.mean_sq


def _ecco_weight(weight: np.ndarray, mean_sq: np.ndarray | None,
                 config: EccoConfig = WEIGHT_CONFIG) -> np.ndarray:
    act_weights = None
    if mean_sq is not None:
        act_weights = np.broadcast_to(mean_sq[None, :], weight.shape)
    meta = fit_tensor_meta(
        weight, act_weights=act_weights, config=config,
        max_calibration_groups=_CALIB_GROUPS,
    )
    return simulate_roundtrip(meta, weight, act_weights=act_weights).values


def _olive_weight(weight: np.ndarray) -> np.ndarray:
    """OliVe-style outlier-victim pairing: outliers keep extended range by
    sacrificing ("victimizing") their neighbor's slot."""
    q = uniform_quantize(weight, 4, group_size=128)
    flat = weight.ravel().copy()
    qflat = q.ravel()
    thresh = np.quantile(np.abs(flat), 0.99)
    is_outlier = np.abs(flat) > thresh
    # Pair granularity: within an (even, odd) pair only the larger value
    # can be the outlier; its partner becomes the victim either way.
    partners = np.arange(flat.size) ^ 1
    partners = np.clip(partners, 0, flat.size - 1)
    loses_pair = is_outlier[partners] & (
        (np.abs(flat) < np.abs(flat[partners]))
        | ((np.abs(flat) == np.abs(flat[partners])) & (np.arange(flat.size) % 2 == 1))
    )
    outliers = np.flatnonzero(is_outlier & ~loses_pair)
    out = qflat.copy()
    # Outliers become exact-ish (8-bit) but the adjacent victim is zeroed.
    out[partners[outliers]] = 0.0
    out[outliers] = uniform_quantize(flat[outliers], 8)
    return out.reshape(weight.shape).astype(np.float32)


def _gptq_weight(weight: np.ndarray, mean_sq: np.ndarray | None) -> np.ndarray:
    """GPTQ-R: per-group INT4 with sequential error feedback, columns
    processed in descending activation importance."""
    w = weight.astype(np.float64).copy()
    out = np.zeros_like(w)
    cols = np.arange(w.shape[1])
    if mean_sq is not None:
        cols = np.argsort(-mean_sq)
    group = 128
    qmax = 7.0
    for start in range(0, cols.size, group):
        sel = cols[start : start + group]
        block = w[:, sel]
        scale = np.abs(block).max(axis=1, keepdims=True) / qmax
        scale = np.where(scale > 0, scale, 1.0)
        err = np.zeros(w.shape[0])
        for j, c in enumerate(sel):
            col = w[:, c] + err
            q = np.clip(np.round(col / scale[:, 0]), -8, 7) * scale[:, 0]
            out[:, c] = q
            # Half the residual rides onto the next column (the OBQ update
            # collapsed to its leading term).
            err = 0.5 * (col - q)
        del err
    return out.astype(np.float32)


def _quarot_rotation(dim: int, seed: int = 1234) -> np.ndarray:
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    qmat, _ = np.linalg.qr(a)
    return qmat.astype(np.float32)


def _quarot_weight(weight: np.ndarray, rot: np.ndarray) -> np.ndarray:
    """Quantize in the rotated basis (outliers spread out), rotate back."""
    rotated = weight @ rot
    q = uniform_quantize(rotated, 4, group_size=128)
    return (q @ rot.T).astype(np.float32)


def _qoq_weight(weight: np.ndarray, mean_sq: np.ndarray | None) -> np.ndarray:
    """QoQ progressive quantization: per-channel INT8 then group INT4."""
    w8 = uniform_quantize(weight, 8, axis=1)
    if mean_sq is not None:
        return awq_weight(w8, mean_sq)
    return uniform_quantize(w8, 4, group_size=128)


# ----------------------------------------------------------------------
# Activation / KV quantizers.
# ----------------------------------------------------------------------

def _per_row_quant(bits: int):
    def fn(x: np.ndarray) -> np.ndarray:
        return uniform_quantize(x, bits, axis=-1)
    return fn


def _ecco_act_quant():
    codec = ActivationCodec()
    def fn(x: np.ndarray) -> np.ndarray:
        return codec.roundtrip(x)
    return fn


def _rtn_kv_quant(bits: int = 4):
    def fn(name: str, kv: np.ndarray) -> np.ndarray:
        return uniform_quantize(kv, bits, axis=-1)
    return fn


def _quarot_kv_quant(rot_cache: dict, bits: int = 4):
    def fn(name: str, kv: np.ndarray) -> np.ndarray:
        dim = kv.shape[-1]
        if dim not in rot_cache:
            rot_cache[dim] = _quarot_rotation(dim, seed=99)
        rot = rot_cache[dim]
        return (uniform_quantize(kv @ rot, bits, axis=-1) @ rot.T).astype(
            np.float32
        )
    return fn


def _ecco_kv_quant(calib: CalibrationData):
    """Online Ecco KV compression, exactly as the server stores it: one
    codec per tensor fitted from its calibration sample (the recipe
    ``repro.serve.storage.EccoKVBackend`` uses), each token row coded in
    its own groups with min/max pattern selection at runtime (the hardware
    path).  The hook returns what a store of ``kv`` reads back as — the
    same roundtrip ``EccoKVBackend.roundtrip_rows`` audits serving with."""
    codecs: dict[str, KVCacheCodec] = {}

    def fn(name: str, kv: np.ndarray) -> np.ndarray:
        codec = codecs.get(name)
        if codec is None:
            codec = fit_kv_codec(calib.kv_samples.get(name, kv))
            codecs[name] = codec
        return codec.decode_tokens(codec.encode_tokens(kv))

    return fn


# ----------------------------------------------------------------------
# Scheme registry.
# ----------------------------------------------------------------------

def _weights_for(model: ProxyModel, calib: CalibrationData, method: str) -> dict:
    out = {}
    rot_cache: dict = {}
    for name in model.weight_names:
        weight = model.params[name].data
        mean_sq = _act_mean_sq(calib, name)
        if method == "rtn":
            out[name] = uniform_quantize(weight, 4, axis=1)
        elif method == "gptq":
            out[name] = _gptq_weight(weight, mean_sq)
        elif method == "olive":
            out[name] = _olive_weight(weight)
        elif method == "awq":
            out[name] = awq_weight(weight, mean_sq)
        elif method == "quarot":
            dim = weight.shape[1]
            if dim not in rot_cache:
                rot_cache[dim] = _quarot_rotation(dim)
            out[name] = _quarot_weight(weight, rot_cache[dim])
        elif method == "qoq":
            out[name] = _qoq_weight(weight, mean_sq)
        elif method == "ecco":
            out[name] = _ecco_weight(weight, mean_sq)
        elif method == "atom":
            out[name] = uniform_quantize(weight, 4, group_size=128)
        else:
            raise KeyError(f"unknown weight method {method!r}")
    return out


def _build_hooks(act_bits, kv_method, calib: CalibrationData) -> tuple:
    """The ``(act_quant, kv_quant)`` hooks of one recipe: ``act_bits`` is
    ``None``, an integer width or ``"ecco"``; ``kv_method`` is ``None``,
    ``"rtn"``, ``"quarot"`` or ``"ecco"``."""
    if act_bits == "ecco":
        act_quant = _ecco_act_quant()
    elif act_bits is not None:
        act_quant = _per_row_quant(int(act_bits))
    else:
        act_quant = None
    if kv_method == "rtn":
        kv_quant = _rtn_kv_quant(4)
    elif kv_method == "quarot":
        kv_quant = _quarot_kv_quant({})
    elif kv_method == "ecco":
        kv_quant = _ecco_kv_quant(calib)
    elif kv_method is None:
        kv_quant = None
    else:
        raise KeyError(f"unknown kv method {kv_method!r}")
    return act_quant, kv_quant


def quantize_model(
    model: ProxyModel,
    calib: CalibrationData,
    weight_method: str = "awq",
    act_bits: int | None = None,
    kv_method: str | None = None,
) -> QuantizedModel:
    """Build a QuantizedModel from components (the generic entry point)."""
    weights = _weights_for(model, calib, weight_method)
    act_quant, kv_quant = _build_hooks(act_bits, kv_method, calib)
    name = f"{weight_method}-w4" + (f"a{act_bits}" if act_bits else "")
    return QuantizedModel(
        name=name, weights=weights, act_quant=act_quant, kv_quant=kv_quant
    )


#: scheme name -> (weight method, act bits, kv method), the arguments of
#: :func:`quantize_model`; ``None`` is the unquantized model.
NAMED_SCHEMES = {
    "fp16": None,
    "gptq-r-w4": ("gptq", None, None),
    "olive-w4": ("olive", None, None),
    "awq-w4": ("awq", None, None),
    "ecco-w4": ("ecco", None, None),
    "rtn-w4a8kv4": ("rtn", 8, "rtn"),
    "awq-w4a8kv4": ("awq", 8, "rtn"),
    "quarot-w4a8kv4": ("quarot", 8, "quarot"),
    "qoq-w4a8kv4": ("qoq", 8, "rtn"),
    "ecco-w4a8kv4": ("ecco", "ecco", "ecco"),
    "atom-w4a4": ("atom", 4, "rtn"),
}


def apply_named_scheme(
    model: ProxyModel, scheme: str, calib: CalibrationData
) -> QuantizedModel:
    """Instantiate one of the paper's named quantization configurations."""
    if scheme not in NAMED_SCHEMES:
        raise KeyError(
            f"unknown scheme {scheme!r}; known: {sorted(NAMED_SCHEMES)}"
        )
    recipe = NAMED_SCHEMES[scheme]
    if recipe is None:
        return QuantizedModel(name="fp16")
    quantized = quantize_model(model, calib, *recipe)
    quantized.name = scheme
    return quantized
