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
    get_format,
)
from .granular import Granularity, granular_quantize, granular_step_size
from .quantizer import QuantizedModel, materialize, quantizable_layers, quantize_model
from .stepsize import average_step_size, elementwise_step_size

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
    "elementwise_step_size",
    "get_format",
    "granular_quantize",
    "granular_step_size",
    "materialize",
    "quantizable_layers",
    "quantize_model",
]
