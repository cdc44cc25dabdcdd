"""Granular (block/row/column-wise) affine quantization.

Section VI of the paper flags block-, column- and row-wise schemes as the
natural refinement of per-tensor affine quantization: grouping weights and
giving each group its own scale captures the local dynamic range, cutting
the effective step size.  This module implements those schemes for the
ablation benchmark; the error bound consumes the RMS of the per-group
steps, :attr:`GranularResult.step_rms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from ..exceptions import QuantizationError
from .affine import AffineParams, calibrate_minmax, dequantize_affine, quantize_affine

__all__ = ["Granularity", "GranularResult", "granular_quantize"]


class Granularity(Enum):
    """How weights are grouped for shared quantization parameters."""

    PER_TENSOR = "per_tensor"
    PER_ROW = "per_row"
    PER_COLUMN = "per_column"
    BLOCK = "block"


@dataclass
class GranularResult:
    """Reconstructed weights plus per-group parameters and step sizes."""

    reconstructed: np.ndarray
    group_params: list[AffineParams]
    step_rms: float

    @property
    def n_groups(self) -> int:
        return len(self.group_params)


def _group_slices(
    shape: tuple[int, int], granularity: Granularity, block_size: int
) -> list[tuple[slice, slice]]:
    rows, cols = shape
    if granularity is Granularity.PER_TENSOR:
        return [(slice(0, rows), slice(0, cols))]
    if granularity is Granularity.PER_ROW:
        return [(slice(r, r + 1), slice(0, cols)) for r in range(rows)]
    if granularity is Granularity.PER_COLUMN:
        return [(slice(0, rows), slice(c, c + 1)) for c in range(cols)]
    if granularity is Granularity.BLOCK:
        if block_size <= 0:
            raise QuantizationError("block granularity requires a positive block_size")
        slices = []
        for r in range(0, rows, block_size):
            for c in range(0, cols, block_size):
                slices.append(
                    (slice(r, min(r + block_size, rows)), slice(c, min(c + block_size, cols)))
                )
        return slices
    raise QuantizationError(f"unknown granularity {granularity!r}")


def granular_quantize(
    matrix: np.ndarray,
    bits: int = 8,
    granularity: Granularity = Granularity.PER_TENSOR,
    block_size: int = 32,
) -> GranularResult:
    """Quantize a 2-D weight matrix with one affine grid per group.

    Returns the dequantized reconstruction (what inference multiplies by),
    the per-group parameters, and the RMS step size across elements —
    directly usable as the layer's ``q_l`` in the error bound.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise QuantizationError(f"granular quantization expects 2-D weights, got {matrix.shape}")
    reconstructed = np.empty_like(matrix)
    params: list[AffineParams] = []
    weighted_sq = 0.0
    for row_slice, col_slice in _group_slices(matrix.shape, granularity, block_size):
        group = matrix[row_slice, col_slice]
        group_params = calibrate_minmax(group, bits=bits)
        codes = quantize_affine(group, group_params)
        reconstructed[row_slice, col_slice] = dequantize_affine(codes, group_params)
        params.append(group_params)
        weighted_sq += group_params.scale**2 * group.size
    step_rms = float(np.sqrt(weighted_sq / matrix.size))
    return GranularResult(reconstructed=reconstructed, group_params=params, step_rms=step_rms)
