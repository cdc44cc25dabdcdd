"""Bit-exact emulation of the numerical formats in the paper (Table I).

Weight-only post-training quantization stores each weight in a reduced
format.  Because the error bound depends only on the rounding step size
(mantissa width for floats, range/levels for INT8), software emulation of
the rounding reproduces exactly the perturbation real hardware storage
introduces:

======  ========  ========  =====================================
format  exponent  mantissa  notes
======  ========  ========  =====================================
FP32    8         23        identity for float32 inputs
TF32    8         10        float32 range, FP16 precision
FP16    5         10        subnormals below 2^-14, max 65504
BF16    8         7         float32 range, 8-bit mantissa budget
INT8    --        --        uniform affine, 256 levels (max calib)
======  ========  ========  =====================================

Custom formats (e.g. the "more mantissa bits" 16-bit formats the paper's
conclusion advocates) are a :class:`FloatFormat` with chosen widths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import QuantizationError

__all__ = [
    "NumericFormat",
    "FloatFormat",
    "IntFormat",
    "FP32",
    "TF32",
    "FP16",
    "BF16",
    "INT8",
    "STANDARD_FORMATS",
]


@dataclass(frozen=True)
class NumericFormat:
    """Common interface: a name, a storage width and a rounding rule."""

    name: str
    storage_bits: int

    def quantize(self, values: np.ndarray) -> np.ndarray:
        """Round ``values`` to this format and return them as float64."""
        raise NotImplementedError

    @property
    def is_identity(self) -> bool:
        return False

    def memory_ratio(self) -> float:
        """Storage footprint relative to FP32."""
        return self.storage_bits / 32.0


@dataclass(frozen=True)
class FloatFormat(NumericFormat):
    """A binary floating-point format defined by its bit widths.

    Rounding is round-to-nearest-even on the mantissa at the element's own
    binade, values below the minimum normal exponent fall into the
    subnormal grid (fixed absolute step), and values beyond the
    representable maximum saturate.
    """

    exponent_bits: int
    mantissa_bits: int

    def __post_init__(self) -> None:
        if self.exponent_bits < 2 or self.mantissa_bits < 1:
            raise QuantizationError(
                f"degenerate float format e{self.exponent_bits}m{self.mantissa_bits}"
            )

    @property
    def min_normal_exponent(self) -> int:
        """Smallest unbiased exponent of a normal number (e.g. -14 for FP16)."""
        return 2 - 2 ** (self.exponent_bits - 1)

    @property
    def max_exponent(self) -> int:
        """Largest unbiased exponent (e.g. 15 for FP16)."""
        return 2 ** (self.exponent_bits - 1) - 1

    @property
    def max_value(self) -> float:
        """Largest finite representable magnitude."""
        return float(
            2.0**self.max_exponent * (2.0 - 2.0**-self.mantissa_bits)
        )

    def quantize(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        out = values.copy()
        nonzero = out != 0.0
        if not np.any(nonzero):
            return out
        magnitude = np.abs(out[nonzero])
        exponent = np.floor(np.log2(magnitude))
        exponent = np.maximum(exponent, float(self.min_normal_exponent))
        ulp = np.exp2(exponent - self.mantissa_bits)
        # numpy rounds half to even, matching IEEE round-to-nearest-even at
        # the binade granularity we emulate.
        rounded = np.round(out[nonzero] / ulp) * ulp
        limit = self.max_value
        rounded = np.clip(rounded, -limit, limit)
        out[nonzero] = rounded
        return out

    @property
    def is_identity(self) -> bool:
        # FP32 inputs round-trip through a 23-bit mantissa untouched.
        return self.mantissa_bits >= 23 and self.exponent_bits >= 8


@dataclass(frozen=True)
class IntFormat(NumericFormat):
    """Uniform affine integer quantization with max calibration.

    The quantization grid spans ``[min(W), max(W)]`` with ``2**bits``
    levels (paper Section III-A: uniform affine transformation with max
    calibration).  The grid is computed per call, i.e. per weight tensor.
    """

    bits: int

    def __post_init__(self) -> None:
        if self.bits < 2:
            raise QuantizationError(f"integer format needs >= 2 bits, got {self.bits}")

    @property
    def levels(self) -> int:
        return 2**self.bits

    def quantize(self, values: np.ndarray) -> np.ndarray:
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return values.copy()
        low = float(values.min())
        high = float(values.max())
        if high == low:
            return values.copy()
        scale = (high - low) / (self.levels - 1)
        codes = np.clip(np.round((values - low) / scale), 0, self.levels - 1)
        return codes * scale + low


FP32 = FloatFormat(name="fp32", storage_bits=32, exponent_bits=8, mantissa_bits=23)
TF32 = FloatFormat(name="tf32", storage_bits=19, exponent_bits=8, mantissa_bits=10)
FP16 = FloatFormat(name="fp16", storage_bits=16, exponent_bits=5, mantissa_bits=10)
BF16 = FloatFormat(name="bf16", storage_bits=16, exponent_bits=8, mantissa_bits=7)
INT8 = IntFormat(name="int8", storage_bits=8, bits=8)

STANDARD_FORMATS: dict[str, NumericFormat] = {
    fmt.name: fmt for fmt in (FP32, TF32, FP16, BF16, INT8)
}
