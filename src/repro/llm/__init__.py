"""Model layer: trained numpy proxy LLMs, calibration and evaluation."""

from .calibration import ActStats, CalibrationData, calibrate
from .config import ModelSpec, ProxySpec, get_proxy_spec, get_spec
from .data import TASK_NAMES, MCItem, SyntheticCorpus
from .decode import ServedKV, decode_step, prefill_chunk
from .eval import multiple_choice_accuracy, perplexity
from .model import Param, ProxyModel
from .quantize import (
    NAMED_SCHEMES,
    QuantizedModel,
    apply_named_scheme,
    fit_kv_codec,
    quantize_model,
)
from .train import TrainedModel, get_trained_model, train_proxy

__all__ = [
    "ActStats",
    "CalibrationData",
    "MCItem",
    "ModelSpec",
    "NAMED_SCHEMES",
    "Param",
    "ProxyModel",
    "ProxySpec",
    "QuantizedModel",
    "ServedKV",
    "SyntheticCorpus",
    "TASK_NAMES",
    "TrainedModel",
    "apply_named_scheme",
    "calibrate",
    "decode_step",
    "fit_kv_codec",
    "get_proxy_spec",
    "get_spec",
    "get_trained_model",
    "multiple_choice_accuracy",
    "perplexity",
    "prefill_chunk",
    "quantize_model",
    "train_proxy",
]
