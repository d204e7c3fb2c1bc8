"""Codec layer: entropy-aware compression into fixed 64-byte blocks."""

from .codec import (
    ActivationCodec,
    CompressedTensor,
    EccoTensorCodec,
    SimulationResult,
    compress_weight,
    plan_encoding,
    simulate_roundtrip,
)
from .config import ACT_CONFIG, KV_CONFIG, WEIGHT_CONFIG, EccoConfig
from .grouping import NormalizedGroups, normalize_groups, tensor_exponent, to_groups
from .kv import (
    KVCacheCodec,
    KVCacheStream,
    merge_token_segments,
    read_streams,
    slice_token_segment,
    split_token_segment,
)
from .patterns import (
    SCALE_SYMBOL,
    MetaStack,
    TensorMeta,
    calibrate_kv_meta,
    fit_tensor_meta,
    select_patterns_minmax,
    select_patterns_mse,
)

__all__ = [
    "ACT_CONFIG",
    "ActivationCodec",
    "CompressedTensor",
    "EccoConfig",
    "EccoTensorCodec",
    "KVCacheCodec",
    "KVCacheStream",
    "KV_CONFIG",
    "MetaStack",
    "NormalizedGroups",
    "SCALE_SYMBOL",
    "SimulationResult",
    "TensorMeta",
    "WEIGHT_CONFIG",
    "calibrate_kv_meta",
    "compress_weight",
    "fit_tensor_meta",
    "merge_token_segments",
    "normalize_groups",
    "plan_encoding",
    "read_streams",
    "select_patterns_minmax",
    "select_patterns_mse",
    "simulate_roundtrip",
    "slice_token_segment",
    "split_token_segment",
    "tensor_exponent",
    "to_groups",
]
