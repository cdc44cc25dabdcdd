"""The SZ encoders the shipped one must reproduce bit for bit.

``predict_both_reference`` is ``repro.compress.sz._predict_both`` as it
was while it fetched every neighbour with ``np.take`` over index arrays
(clamped at the boundaries and masked afterwards).  The shipped predictor
reads the same values through strided slices; a property test asserts the
predictions are equal to the last bit on odd, even and non-power-of-two
shapes.

``compress_reference`` and the functions it calls are the encoder as it
was while every intermediate was a fresh array: the slicing predictor,
the spline choice, the quantization pass (18 ``astype`` + ``concatenate``)
and ``_compress`` around them, expressions verbatim, with the scalar
Huffman coder of ``entropy_reference`` as its entropy stage.  The shipped
encoder computes the same things in place in the thread's codec scratch;
property tests assert bytes-equal payloads.

The precision rule is the shipped one (``working_precision_reference``):
a float32 field is worked in float32, anything else in float64.  Only the
dtype of the working copy, the reconstruction and ``pitch`` follows the
field; every expression is the one written for float64.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.compress.base import CompressedBlob, ErrorBoundMode, absolute_tolerance
from repro.compress.sz import _OUTLIER_CODE, _refinement_plan, _target_slices
from repro.exceptions import CompressionError

from .entropy_reference import huffman_encode_reference


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


def guarded_pointwise_bound_reference(data: np.ndarray, eb: float) -> float:
    """``guarded_pointwise_bound`` over a float64 copy of the whole field."""
    data = np.asarray(data)
    if data.size == 0:
        return eb
    if np.issubdtype(data.dtype, np.floating):
        eps = float(np.finfo(data.dtype).eps)
    else:
        eps = 0.0
    cast_slack = 0.5 * eps * float(np.max(np.abs(data.astype(np.float64))))
    return eb * (1.0 - 1e-9) - cast_slack


def working_precision_reference(data: np.ndarray, tol: float) -> tuple[type, float]:
    """``_working_precision`` over a float64 copy of the whole field."""
    data = np.asarray(data)
    if data.dtype == np.float32 and data.size:
        largest = float(np.max(np.abs(data.astype(np.float64))))
        if largest + tol < 2.0**100 and tol > 2.0**-100:
            eps32 = float(np.finfo(np.float32).eps)
            eb = tol * (1.0 - 1e-9) - 4.0 * eps32 * (largest + tol)
            return np.float32, eb if eb > 2.0**-126 else 0.0
    return np.float64, guarded_pointwise_bound_reference(data, tol)


def predict_both_allocating(
    recon: np.ndarray, axis: int, stride: int, want_cubic: bool
) -> tuple[tuple[slice, ...], np.ndarray, np.ndarray | None]:
    """The slicing predictor, every prediction a fresh array."""
    target, left_sel, right_sel = _target_slices(recon.shape, axis, stride)
    left, right = recon[left_sel], recon[right_sel]
    n_right = right.shape[axis]

    def along(start: int, stop: int) -> tuple[slice, ...]:
        return (slice(None),) * axis + (slice(start, stop),)

    if n_right == left.shape[axis]:
        linear = 0.5 * (left + right)
    else:
        linear = left.copy()
        linear[along(0, n_right)] = 0.5 * (left[along(0, n_right)] + right)

    if not want_cubic or n_right < 3:
        return target, linear, None
    inner = along(1, n_right - 1)
    cubic = linear.copy()
    cubic[inner] = (
        -left[along(0, n_right - 2)]
        + 9.0 * left[inner]
        + 9.0 * right[inner]
        - right[along(2, n_right)]
    ) / 16.0
    return target, linear, cubic


def choose_prediction_reference(
    interpolation: str, recon: np.ndarray, data: np.ndarray, axis: int, stride: int
) -> tuple[tuple[slice, ...], np.ndarray, bool]:
    """Pick the spline per step (SZ3's dynamic selection)."""
    if interpolation != "dynamic":
        cubic = interpolation == "cubic"
        target, linear, cubic_pred = predict_both_allocating(recon, axis, stride, cubic)
        return target, linear if cubic_pred is None else cubic_pred, cubic
    target, linear_pred, cubic_pred = predict_both_allocating(recon, axis, stride, True)
    if cubic_pred is None:
        return target, linear_pred, False
    truth = data[target]
    linear_cost = float(np.abs(truth - linear_pred).sum())
    cubic_cost = float(np.abs(truth - cubic_pred).sum())
    if cubic_cost < linear_cost:
        return target, cubic_pred, True
    return target, linear_pred, False


def encode_pass_reference(codec, data: np.ndarray, eb: float):
    """One full hierarchy encode in ``data``'s dtype:
    ``(recon, codes, outliers, anchors, choices)``."""
    shape = data.shape
    recon = np.zeros(shape, dtype=data.dtype)
    anchor_sel = tuple(slice(0, size, codec.anchor_stride) for size in shape)
    anchors = data[anchor_sel].astype(np.float64)
    recon[anchor_sel] = anchors
    pitch = data.dtype.type(2.0 * eb)
    codes_parts: list[np.ndarray] = []
    outliers: list[np.ndarray] = []
    choices: list[bool] = []
    for axis, stride in _refinement_plan(shape, codec.anchor_stride):
        target, prediction, used_cubic = choose_prediction_reference(
            codec.interpolation, recon, data, axis, stride
        )
        choices.append(used_cubic)
        truth = data[target]
        residual = truth - prediction
        codes = np.round(residual / pitch)
        overflow = np.abs(codes) >= _OUTLIER_CODE
        if np.any(overflow):
            outliers.append(truth[overflow].ravel())
            codes = np.where(overflow, float(_OUTLIER_CODE), codes)
        reconstructed = prediction + codes * pitch
        if np.any(overflow):
            reconstructed = np.where(overflow, truth, reconstructed)
        recon[target] = reconstructed
        codes_parts.append(codes.astype(np.int64).ravel())
    all_codes = (
        np.concatenate(codes_parts) if codes_parts else np.empty(0, dtype=np.int64)
    )
    all_outliers = (
        np.concatenate(outliers) if outliers else np.empty(0, dtype=np.float64)
    )
    return recon, all_codes, all_outliers, anchors, choices


def compress_reference(
    codec, data: np.ndarray, tolerance: float, mode: ErrorBoundMode = ErrorBoundMode.ABS
) -> CompressedBlob:
    """``SZCompressor._compress`` over the functions above."""
    codec._check_mode(mode)
    data = np.asarray(data)
    dtype = str(data.dtype)
    work_dtype, eb = working_precision_reference(
        data, absolute_tolerance(data.astype(np.float64), tolerance, mode)
    )
    if eb <= 0.0:
        return codec._lossless_blob(data, tolerance, mode)
    work = data.astype(work_dtype)
    if mode.is_l2:
        l2_budget = (
            tolerance
            if mode is ErrorBoundMode.L2_ABS
            else tolerance * float(np.linalg.norm(work.astype(np.float64)))
        )
        eb *= 16.0
        for __ in range(16):
            recon, codes, outliers, anchors, choices = encode_pass_reference(codec, work, eb)
            cast_error = recon.astype(data.dtype).astype(np.float64) - work
            if float(np.linalg.norm(cast_error)) <= l2_budget:
                break
            eb *= 0.5
        else:
            raise CompressionError("could not satisfy L2 tolerance")
    else:
        recon, codes, outliers, anchors, choices = encode_pass_reference(codec, work, eb)

    entropy = huffman_encode_reference(codes, max_alphabet=codec.max_alphabet)
    choice_bits = np.packbits(np.asarray(choices, dtype=np.uint8)) if choices else (
        np.empty(0, dtype=np.uint8)
    )
    header = struct.pack("<dIIH", eb, anchors.size, outliers.size, len(choices))
    payload = (
        header
        + choice_bits.tobytes()
        + anchors.astype(np.float64).tobytes()
        + outliers.astype(np.float64).tobytes()
        + entropy
    )
    metadata = {
        "anchor_stride": codec.anchor_stride,
        "eb": eb,
        "interpolation": codec.interpolation,
    }
    if work_dtype is np.float32:
        metadata["precision"] = "float32"
    return CompressedBlob(
        codec=codec.name,
        payload=payload,
        shape=data.shape,
        dtype=dtype,
        mode=mode,
        tolerance=float(tolerance),
        metadata=metadata,
    )
