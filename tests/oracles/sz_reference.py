"""The gather-based SZ predictor the slicing one must reproduce bit for bit.

This is ``repro.compress.sz._predict_both`` as it was while it fetched
every neighbour with ``np.take`` over index arrays (clamped at the
boundaries and masked afterwards).  The shipped predictor reads the same
values through strided slices; a property test asserts the predictions
are equal to the last bit on odd, even and non-power-of-two shapes.
"""

from __future__ import annotations

import numpy as np


def _gather_view(recon: np.ndarray, axis: int, stride: int) -> np.ndarray:
    """View with non-target axes strided to the step's grid, target axis full."""
    sel: list[slice] = []
    for d, size in enumerate(recon.shape):
        if d < axis:
            sel.append(slice(0, size, stride))
        elif d == axis:
            sel.append(slice(None))
        else:
            sel.append(slice(0, size, 2 * stride))
    return recon[tuple(sel)]


def _axis_shape(ndim: int, axis: int, n: int) -> tuple[int, ...]:
    shape = [1] * ndim
    shape[axis] = n
    return tuple(shape)


def predict_both_reference(
    recon: np.ndarray, axis: int, stride: int, want_cubic: bool
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(linear, cubic or None)`` predictions for one refinement step."""
    size = recon.shape[axis]
    positions = np.arange(stride, size, 2 * stride)
    view = _gather_view(recon, axis, stride)

    left = np.take(view, positions - stride, axis=axis)
    has_right = positions + stride < size
    right_positions = np.minimum(positions + stride, size - 1)
    right = np.take(view, right_positions, axis=axis)
    mask_shape = _axis_shape(view.ndim, axis, positions.size)
    right_mask = has_right.reshape(mask_shape)
    linear = np.where(right_mask, 0.5 * (left + right), left)

    cubic_ok = (positions - 3 * stride >= 0) & (positions + 3 * stride < size)
    if not want_cubic or not np.any(cubic_ok):
        return linear, None
    far_left = np.take(view, np.maximum(positions - 3 * stride, 0), axis=axis)
    far_right = np.take(view, np.minimum(positions + 3 * stride, size - 1), axis=axis)
    cubic = (-far_left + 9.0 * left + 9.0 * right - far_right) / 16.0
    return linear, np.where(cubic_ok.reshape(mask_shape), cubic, linear)
