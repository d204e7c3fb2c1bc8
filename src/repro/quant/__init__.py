"""Quantization baselines the paper compares against."""

from .awq import awq_scales, awq_weight
from .uniform import uniform_quantize

__all__ = ["awq_weight", "awq_scales", "uniform_quantize"]
