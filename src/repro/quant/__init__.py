"""Post-training quantization: numeric formats, step sizes and quantizers."""

from .affine import AffineParams, calibrate_minmax, dequantize_affine, quantize_affine
from .formats import (
    BF16,
    FP16,
    FP32,
    INT8,
    STANDARD_FORMATS,
    TF32,
    FloatFormat,
    IntFormat,
    NumericFormat,
)
from .granular import Granularity, granular_quantize
from .quantizer import QuantizedModel, materialize, quantizable_layers, quantize_model
from .stepsize import average_step_size

__all__ = [
    "BF16",
    "FP16",
    "FP32",
    "INT8",
    "STANDARD_FORMATS",
    "TF32",
    "AffineParams",
    "FloatFormat",
    "Granularity",
    "IntFormat",
    "NumericFormat",
    "QuantizedModel",
    "average_step_size",
    "calibrate_minmax",
    "dequantize_affine",
    "granular_quantize",
    "materialize",
    "quantizable_layers",
    "quantize_model",
]
