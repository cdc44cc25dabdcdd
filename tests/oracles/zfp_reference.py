"""ZFP's block transform one block at a time, in nested scalar loops.

``repro.compress.zfp`` carves the trailing ``min(ndim, 3)`` axes into
4^d blocks (edge-replicated at the far borders), applies the orthonormal
4-point DCT-II along every block axis as one matrix product over all
blocks, and inverts it the same way.  Here each block is gathered index by
index and each coefficient is the defining sum over the block's points,

    c[k_1..k_d] = sum_{i_1..i_d} D[k_1][i_1] ... D[k_d][i_d] x[i_1..i_d],

so nothing is shared with the shipped code but the block order (leading
axes, then block indices, each in C order) and the coefficient order
within a block (C order of ``k``), which the stream fixes.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

BLOCK = 4


def dct_matrix_reference(n: int = BLOCK) -> "list[list[float]]":
    """``D[k][i]`` of the orthonormal n-point DCT-II."""
    return [
        [
            math.sqrt((1.0 if k == 0 else 2.0) / n)
            * math.cos(math.pi * (2 * i + 1) * k / (2 * n))
            for i in range(n)
        ]
        for k in range(n)
    ]


def _block_origins(shape: "tuple[int, ...]", block_dims: int):
    """Every block as (leading index, block index) in the stream's order."""
    lead = shape[: len(shape) - block_dims]
    counts = [-(-size // BLOCK) for size in shape[len(shape) - block_dims :]]
    return itertools.product(
        itertools.product(*map(range, lead)), itertools.product(*map(range, counts))
    )


def block_coefficients_reference(data: np.ndarray, block_dims: int) -> np.ndarray:
    """``(n_blocks, 4**block_dims)`` forward coefficients of ``data``."""
    shape = data.shape
    trailing = shape[len(shape) - block_dims :]
    matrix = dct_matrix_reference()
    points = list(itertools.product(range(BLOCK), repeat=block_dims))
    rows = []
    for lead, block in _block_origins(shape, block_dims):
        values = []
        for offsets in points:
            # edge padding: an index past the border reads the last value
            index = tuple(
                min(BLOCK * b + o, size - 1) for b, o, size in zip(block, offsets, trailing)
            )
            values.append(float(data[lead + index]))
        row = []
        for k in points:
            total = 0.0
            for i, value in zip(points, values):
                weight = 1.0
                for k_axis, i_axis in zip(k, i):
                    weight *= matrix[k_axis][i_axis]
                total += weight * value
            row.append(total)
        rows.append(row)
    return np.array(rows, dtype=np.float64).reshape(-1, BLOCK**block_dims)


def reconstruct_reference(
    coefficients: np.ndarray, shape: "tuple[int, ...]", block_dims: int
) -> np.ndarray:
    """The float64 array of ``shape`` whose blocks invert ``coefficients``
    (points in the padding are dropped)."""
    trailing = shape[len(shape) - block_dims :]
    matrix = dct_matrix_reference()
    points = list(itertools.product(range(BLOCK), repeat=block_dims))
    out = np.zeros(shape, dtype=np.float64)
    for row, (lead, block) in zip(coefficients, _block_origins(shape, block_dims)):
        for i in points:
            index = tuple(BLOCK * b + o for b, o in zip(block, i))
            if any(at >= size for at, size in zip(index, trailing)):
                continue
            total = 0.0
            for k, coefficient in zip(points, row):
                weight = 1.0
                for k_axis, i_axis in zip(k, i):
                    weight *= matrix[k_axis][i_axis]
                total += weight * float(coefficient)
            out[lead + index] = total
    return out
