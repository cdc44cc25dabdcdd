"""SZ-like error-bounded compressor (interpolation + quantization + Huffman).

Mirrors the algorithmic skeleton of SZ3 (paper ref. [6], "dynamic spline
interpolation"): a dyadic hierarchy of grid levels where each finer level
is *predicted* by linear interpolation from the already-reconstructed
coarser level, residuals are quantized on a uniform grid of pitch
``2 * eb`` (guaranteeing a pointwise bound of ``eb``), and the quantization
codes are entropy coded with canonical Huffman.

Key property shared with real SZ: predictions are computed from
*reconstructed* values, so compressor and decompressor stay in lockstep
and the pointwise error bound is exact by construction, not statistical.
"""

from __future__ import annotations

import struct

import numpy as np

from ..exceptions import CompressionError
from .base import (
    CompressedBlob,
    Compressor,
    ErrorBoundMode,
    absolute_tolerance,
    guarded_pointwise_bound,
)
from .huffman import check_max_alphabet, huffman_decode, huffman_encode

__all__ = ["SZCompressor"]

_OUTLIER_CODE = 2**30  # residual too large for a 32-bit quantization code


def _refinement_plan(shape: tuple[int, ...], anchor_stride: int):
    """Yield ``(axis, stride)`` steps from coarse to fine.

    After the step ``(axis=d, stride=s)``, all grid points whose indices
    are multiples of ``s`` along axes ``<= d`` and multiples of ``2*s``
    along axes ``> d`` have been reconstructed.
    """
    stride = anchor_stride
    while stride >= 2:
        half = stride // 2
        for axis in range(len(shape)):
            yield axis, half
        stride //= 2


def _target_slices(
    shape: tuple[int, ...], axis: int, stride: int
) -> tuple[tuple[slice, ...], tuple[slice, ...], tuple[slice, ...]]:
    """Slices selecting prediction targets and their +/- neighbours.

    Targets sit at odd multiples of ``stride`` along ``axis``; axes before
    ``axis`` are already refined to ``stride`` (select every multiple),
    axes after are still at ``2 * stride``.  The right-neighbour selection
    is one entry shorter along ``axis`` when the last target has none.
    """
    target: list[slice] = []
    left: list[slice] = []
    right: list[slice] = []
    for d, size in enumerate(shape):
        if d == axis:
            target.append(slice(stride, size, 2 * stride))
            left.append(slice(0, max(size - stride, 0), 2 * stride))
            right.append(slice(2 * stride, size, 2 * stride))
        else:
            every = slice(0, size, stride if d < axis else 2 * stride)
            target.append(every)
            left.append(every)
            right.append(every)
    return tuple(target), tuple(left), tuple(right)


def _predict_both(
    recon: np.ndarray, axis: int, stride: int, want_cubic: bool
) -> tuple[tuple[slice, ...], np.ndarray, np.ndarray | None]:
    """Linear and cubic spline predictions for one refinement step.

    Linear: midpoint average of the two reconstructed neighbours.
    Cubic (SZ3's dynamic-spline option, ref. [6]): the 4-point
    interpolating cubic ``(-f[-3s] + 9 f[-s] + 9 f[+s] - f[+3s]) / 16``,
    falling back to linear (then to the left value) near boundaries;
    ``None`` when not wanted or when no target has all four neighbours
    (it would equal the linear prediction).
    """
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

    # Target k lies between left[k] and right[k]; its outer neighbours
    # are left[k - 1] and right[k + 1], which exist for 1 <= k <= n_right - 2.
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


def _predict(
    recon: np.ndarray, axis: int, stride: int, cubic: bool = False
) -> tuple[tuple[slice, ...], np.ndarray]:
    """The linear or the cubic prediction of :func:`_predict_both`."""
    target, linear, cubic_pred = _predict_both(recon, axis, stride, cubic)
    return target, linear if cubic_pred is None else cubic_pred


class SZCompressor(Compressor):
    """Interpolation-based SZ-like codec.

    Parameters
    ----------
    anchor_stride:
        Dyadic stride of the raw-stored anchor grid (power of two).
        Larger strides mean fewer raw anchors and deeper hierarchies.
    max_alphabet:
        Alphabet cap handed to the Huffman stage.
    """

    name = "sz"
    supported_modes = frozenset(
        {ErrorBoundMode.ABS, ErrorBoundMode.REL, ErrorBoundMode.L2_ABS, ErrorBoundMode.L2_REL}
    )

    def __init__(
        self,
        anchor_stride: int = 64,
        max_alphabet: int = 4096,
        interpolation: str = "dynamic",
    ) -> None:
        if anchor_stride < 2 or anchor_stride & (anchor_stride - 1):
            raise CompressionError("anchor_stride must be a power of two >= 2")
        if interpolation not in ("linear", "cubic", "dynamic"):
            raise CompressionError(
                f"interpolation must be linear/cubic/dynamic, got {interpolation!r}"
            )
        self.anchor_stride = int(anchor_stride)
        self.max_alphabet = check_max_alphabet(max_alphabet)
        self.interpolation = interpolation

    def _choose_prediction(
        self, recon: np.ndarray, data: np.ndarray, axis: int, stride: int
    ) -> tuple[tuple[slice, ...], np.ndarray, bool]:
        """Pick the spline per step (SZ3's dynamic selection)."""
        if self.interpolation != "dynamic":
            cubic = self.interpolation == "cubic"
            target, prediction = _predict(recon, axis, stride, cubic=cubic)
            return target, prediction, cubic
        target, linear_pred, cubic_pred = _predict_both(recon, axis, stride, True)
        if cubic_pred is None:
            return target, linear_pred, False
        truth = data[target]
        linear_cost = float(np.abs(truth - linear_pred).sum())
        cubic_cost = float(np.abs(truth - cubic_pred).sum())
        if cubic_cost < linear_cost:
            return target, cubic_pred, True
        return target, linear_pred, False

    # -- core quantization pass -------------------------------------------
    def _encode_pass(
        self, data: np.ndarray, eb: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[bool]]:
        """One full hierarchy encode.

        Returns ``(recon, codes, outliers, anchors, spline_choices)``.
        """
        shape = data.shape
        recon = np.zeros(shape, dtype=np.float64)
        anchor_sel = tuple(slice(0, size, self.anchor_stride) for size in shape)
        anchors = data[anchor_sel].astype(np.float64)
        recon[anchor_sel] = anchors
        pitch = 2.0 * eb
        codes_parts: list[np.ndarray] = []
        outliers: list[np.ndarray] = []
        choices: list[bool] = []
        for axis, stride in _refinement_plan(shape, self.anchor_stride):
            target, prediction, used_cubic = self._choose_prediction(
                recon, data, axis, stride
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

    def _compress(
        self,
        data: np.ndarray,
        tolerance: float,
        mode: ErrorBoundMode = ErrorBoundMode.ABS,
    ) -> CompressedBlob:
        self._check_mode(mode)
        data = np.asarray(data)
        dtype = str(data.dtype)
        work = data.astype(np.float64)
        eb = guarded_pointwise_bound(data, absolute_tolerance(work, tolerance, mode))
        if eb <= 0.0:
            return self._lossless_blob(data, tolerance, mode)
        if mode.is_l2:
            # The sqrt(N) conversion is worst-case; most reconstructions
            # use far less of the L2 budget.  Start loose and tighten until
            # the measured L2 error honours the budget.
            l2_budget = (
                tolerance
                if mode is ErrorBoundMode.L2_ABS
                else tolerance * float(np.linalg.norm(work))
            )
            eb *= 16.0
            for __ in range(16):
                recon, codes, outliers, anchors, choices = self._encode_pass(work, eb)
                cast_error = recon.astype(data.dtype).astype(np.float64) - work
                if float(np.linalg.norm(cast_error)) <= l2_budget:
                    break
                eb *= 0.5
            else:
                raise CompressionError("could not satisfy L2 tolerance")
        else:
            recon, codes, outliers, anchors, choices = self._encode_pass(work, eb)

        entropy = huffman_encode(codes, max_alphabet=self.max_alphabet)
        choice_bits = np.packbits(np.asarray(choices, dtype=np.uint8)) if choices else (
            np.empty(0, dtype=np.uint8)
        )
        header = struct.pack(
            "<dIIH", eb, anchors.size, outliers.size, len(choices)
        )
        # Anchors are stored losslessly at full precision: a lossy anchor
        # would violate the pointwise contract at the anchor grid points.
        payload = (
            header
            + choice_bits.tobytes()
            + anchors.astype(np.float64).tobytes()
            + outliers.astype(np.float64).tobytes()
            + entropy
        )
        return CompressedBlob(
            codec=self.name,
            payload=payload,
            shape=data.shape,
            dtype=dtype,
            mode=mode,
            tolerance=float(tolerance),
            metadata={
                "anchor_stride": self.anchor_stride,
                "eb": eb,
                "interpolation": self.interpolation,
            },
        )

    def _decompress(self, blob: CompressedBlob) -> np.ndarray:
        self._check_blob(blob)
        if blob.metadata.get("lossless"):
            return self._decompress_lossless(blob)
        eb, n_anchors, n_outliers, n_choices = struct.unpack_from("<dIIH", blob.payload, 0)
        offset = struct.calcsize("<dIIH")
        n_choice_bytes = (n_choices + 7) // 8
        choice_bits = np.frombuffer(
            blob.payload, dtype=np.uint8, count=n_choice_bytes, offset=offset
        )
        choices = np.unpackbits(choice_bits)[:n_choices].astype(bool)
        offset += n_choice_bytes
        anchors = np.frombuffer(
            blob.payload, dtype=np.float64, count=n_anchors, offset=offset
        )
        offset += n_anchors * 8
        outliers = np.frombuffer(
            blob.payload, dtype=np.float64, count=n_outliers, offset=offset
        )
        offset += n_outliers * 8
        codes = huffman_decode(blob.payload[offset:])

        shape = blob.shape
        stride = blob.metadata.get("anchor_stride", self.anchor_stride)
        recon = np.zeros(shape, dtype=np.float64)
        anchor_sel = tuple(slice(0, size, stride) for size in shape)
        recon[anchor_sel] = anchors.reshape(recon[anchor_sel].shape)
        pitch = 2.0 * eb
        code_cursor = 0
        outlier_cursor = 0
        for step_index, (axis, step_stride) in enumerate(
            _refinement_plan(shape, stride)
        ):
            cubic = bool(choices[step_index]) if step_index < len(choices) else False
            target, prediction = _predict(recon, axis, step_stride, cubic=cubic)
            count = prediction.size
            step_codes = codes[code_cursor : code_cursor + count].reshape(prediction.shape)
            code_cursor += count
            values = prediction + step_codes * pitch
            overflow = step_codes == _OUTLIER_CODE
            n_over = int(overflow.sum())
            if n_over:
                values[overflow] = outliers[outlier_cursor : outlier_cursor + n_over]
                outlier_cursor += n_over
            recon[target] = values
        if code_cursor != codes.size:
            raise CompressionError(
                f"sz stream misaligned: used {code_cursor} of {codes.size} codes"
            )
        return recon.astype(blob.dtype)
