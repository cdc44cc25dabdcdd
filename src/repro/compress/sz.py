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

Like SZ3, a float32 field is predicted, quantized and reconstructed in
float32 (``metadata["precision"] == "float32"``); anything else is worked,
and every blob without that key decoded, in float64.
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
    codec_scratch,
    guarded_pointwise_bound,
    l2_norm,
)
from .huffman import check_max_alphabet, decode_symbols, huffman_encode

__all__ = ["SZCompressor"]

_OUTLIER_CODE = 2**30  # residual too large for a 32-bit quantization code
_PRECISIONS = ("float64", "float32")  # blob.metadata["precision"], float64 when absent
_EPS32 = float(np.finfo(np.float32).eps)


def _working_precision(data: np.ndarray, tol: float) -> tuple[type, float]:
    """The dtype SZ works ``data`` in, and the pointwise bound ``tol`` guarded for it.

    float32 for a float32 field well inside float32's exponent range (so no
    intermediate overflows or goes subnormal).  The final cast is then
    exact; instead the guard covers the quantizer's own float32 roundings,
    u (7.75 M + 6.75 tol) for M = max|x|, u = eps32 / 2, derived in
    docs/PERFORMANCE.md ("SZ works in the field's precision"); a bound it
    leaves below float32's normal range counts as none.  Anything else is
    float64 behind the half-ulp cast guard.
    """
    if data.dtype == np.float32 and data.size:
        largest = max(abs(float(data.min())), abs(float(data.max())))
        if largest + tol < 2.0**100 and tol > 2.0**-100:  # a NaN fails both
            eb = tol * (1.0 - 1e-9) - 4.0 * _EPS32 * (largest + tol)
            return np.float32, eb if eb > 2.0**-126 else 0.0
    return np.float64, guarded_pointwise_bound(data, tol)


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
    (it would equal the linear prediction).  Both are written into scratch
    slot 3 (slot 4 is borrowed for the cubic) in ``recon``'s dtype, valid
    until the next step; encoder and decoder run this same kernel.
    """
    scratch = codec_scratch()
    target, left_sel, right_sel = _target_slices(recon.shape, axis, stride)
    left, right = recon[left_sel], recon[right_sel]
    n_right = right.shape[axis]

    def along(start: int, stop: "int | None") -> tuple[slice, ...]:
        return (slice(None),) * axis + (slice(start, stop),)

    linear = scratch.take(3, left.shape, recon.dtype)
    paired = linear[along(0, n_right)]
    np.add(left[along(0, n_right)], right, out=paired)
    paired *= 0.5
    linear[along(n_right, None)] = left[along(n_right, None)]

    # Target k lies between left[k] and right[k]; its outer neighbours
    # are left[k - 1] and right[k + 1], which exist for 1 <= k <= n_right - 2.
    if not want_cubic or n_right < 3:
        return target, linear, None
    inner = along(1, n_right - 1)
    cubic = scratch.take(3, left.shape, recon.dtype, start=linear.size)
    cubic[along(0, 1)] = linear[along(0, 1)]
    cubic[along(n_right - 1, None)] = linear[along(n_right - 1, None)]
    spline = cubic[inner]
    term = scratch.take(4, spline.shape, recon.dtype)
    # 9 b - a is -a + 9 b to the bit (and np.negative mis-strides some
    # (n, 1) views when given ``out``).
    np.multiply(left[inner], 9.0, out=spline)
    spline -= left[along(0, n_right - 2)]
    spline += np.multiply(right[inner], 9.0, out=term)
    spline -= right[along(2, n_right)]
    spline /= 16.0
    return target, linear, cubic


def _dequantize(
    prediction: np.ndarray, codes: np.ndarray, pitch: np.floating, out: np.ndarray
) -> np.ndarray:
    """``prediction + codes * pitch`` into ``out`` (which may be ``codes``), in
    its dtype, the integer codes converted first (int64 when encoding, int32
    when decoding: both convert exactly): the one expression encoder and
    decoder must evaluate alike."""
    np.multiply(codes, pitch, out=out, dtype=out.dtype)
    out += prediction
    return out


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
    ) -> tuple[tuple[slice, ...], np.ndarray, np.ndarray, bool]:
        """Pick the spline per step (SZ3's dynamic selection).

        Returns ``(target, prediction, data[target] - prediction, cubic
        used)``; the arrays are ``recon``-typed scratch, valid until the next step.
        """
        scratch = codec_scratch()
        target, linear, cubic = _predict_both(
            recon, axis, stride, self.interpolation != "linear"
        )
        truth = data[target]
        dynamic = self.interpolation == "dynamic"
        prediction = linear if dynamic or cubic is None else cubic
        residual = np.subtract(truth, prediction, out=scratch.take(4, truth.shape, recon.dtype))
        if not dynamic or cubic is None:
            return target, prediction, residual, self.interpolation == "cubic"
        cubic_residual = np.subtract(
            truth, cubic, out=scratch.take(4, truth.shape, recon.dtype, start=truth.size)
        )
        magnitude = scratch.take(5, truth.shape, recon.dtype)
        linear_cost = float(np.abs(residual, out=magnitude).sum())
        cubic_cost = float(np.abs(cubic_residual, out=magnitude).sum())
        if cubic_cost < linear_cost:
            return target, cubic, cubic_residual, True
        return target, linear, residual, False

    # -- core quantization pass -------------------------------------------
    def _encode_pass(
        self, data: np.ndarray, eb: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, list[bool]]:
        """One full hierarchy encode, in ``data``'s dtype.

        Returns ``(recon, codes, outliers, anchors, spline_choices)``;
        ``recon`` and ``codes`` are scratch slots 1 and 2, valid until the
        thread's next codec call.
        """
        scratch = codec_scratch()
        shape = data.shape
        recon = scratch.take(1, shape, data.dtype)
        anchor_sel = tuple(slice(0, size, self.anchor_stride) for size in shape)
        anchors = data[anchor_sel].astype(np.float64)
        recon[anchor_sel] = anchors
        pitch = data.dtype.type(2.0 * eb)
        all_codes = scratch.take(2, (data.size - anchors.size,), np.int64)
        cursor = 0
        outliers: list[np.ndarray] = []
        choices: list[bool] = []
        for axis, stride in _refinement_plan(shape, self.anchor_stride):
            if stride >= shape[axis]:  # no target; the step still has its bit
                choices.append(self.interpolation == "cubic")
                continue
            target, prediction, residual, used_cubic = self._choose_prediction(
                recon, data, axis, stride
            )
            choices.append(used_cubic)
            codes = np.divide(residual, pitch, out=residual)
            np.rint(codes, out=codes)
            # One min/max pair replaces the elementwise test on the common
            # path; a NaN fails both comparisons and takes the exact test.
            overflow = None
            if codes.size and not (
                codes.min() > -_OUTLIER_CODE and codes.max() < _OUTLIER_CODE
            ):
                overflow = np.abs(codes) >= _OUTLIER_CODE
                truth = data[target][overflow]
                outliers.append(truth)
                codes[overflow] = _OUTLIER_CODE
            all_codes[cursor : cursor + codes.size] = codes.ravel()
            cursor += codes.size
            reconstructed = _dequantize(prediction, codes, pitch, out=codes)
            if overflow is not None:
                reconstructed[overflow] = truth
            recon[target] = reconstructed
        all_outliers = (
            np.concatenate(outliers, dtype=np.float64) if outliers else np.empty(0)
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
        work_dtype, eb = _working_precision(data, absolute_tolerance(data, tolerance, mode))
        if eb <= 0.0:
            return self._lossless_blob(data, tolerance, mode)
        scratch = codec_scratch()
        work = scratch.take(0, data.shape, work_dtype)
        np.copyto(work, data, casting="unsafe")
        if mode.is_l2:
            # The sqrt(N) conversion is worst-case; most reconstructions
            # use far less of the L2 budget.  Start loose and tighten until
            # the measured L2 error honours the budget, measured in float64.
            l2_budget = (
                tolerance
                if mode is ErrorBoundMode.L2_ABS
                else tolerance * l2_norm(work, out=scratch.take(4, data.shape))
            )
            eb *= 16.0
            for __ in range(16):
                recon, codes, outliers, anchors, choices = self._encode_pass(work, eb)
                stored = scratch.take(3, data.shape, data.dtype)
                np.copyto(stored, recon, casting="unsafe")
                cast_error = np.subtract(
                    stored, work, out=scratch.take(4, data.shape), dtype=np.float64
                )
                if l2_norm(cast_error, out=cast_error) <= l2_budget:
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
        payload = b"".join(
            (header, choice_bits.tobytes(), anchors.tobytes(), outliers.tobytes(), entropy)
        )
        metadata = {
            "anchor_stride": self.anchor_stride, "eb": eb, "interpolation": self.interpolation
        }
        if work_dtype is np.float32:  # float64 blobs stay as they always were
            metadata["precision"] = "float32"
        return CompressedBlob(
            codec=self.name,
            payload=payload,
            shape=data.shape,
            dtype=dtype,
            mode=mode,
            tolerance=float(tolerance),
            metadata=metadata,
        )

    def stream_precision(self, dtype) -> str:
        return "float32" if np.dtype(dtype) == np.float32 else "float64"

    def _decompress(self, blob: CompressedBlob) -> np.ndarray:
        self._check_blob(blob)
        if blob.metadata.get("lossless"):
            return self._decompress_lossless(blob)
        eb, n_anchors, n_outliers, n_choices = struct.unpack_from("<dIIH", blob.payload, 0)
        if not 0.0 < eb < np.inf:
            raise CompressionError(f"sz blob names error bound {eb!r}")
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
        codes = decode_symbols(blob.payload[offset:], 2)

        shape = blob.shape
        stride = blob.metadata.get("anchor_stride", self.anchor_stride)
        if stride < 2 or stride & (stride - 1):
            # Anchors and steps would not cover the grid, and what they
            # leave out would be whatever the scratch held before.
            raise CompressionError(f"sz blob names anchor stride {stride!r}")
        precision = blob.metadata.get("precision", "float64")
        if precision not in _PRECISIONS:
            raise CompressionError(f"sz blob names precision {precision!r}")
        work_dtype = np.dtype(precision)
        scratch = codec_scratch()
        recon = scratch.take(1, shape, work_dtype)
        anchor_sel = tuple(slice(0, size, stride) for size in shape)
        recon[anchor_sel] = anchors.reshape(recon[anchor_sel].shape)
        pitch = work_dtype.type(2.0 * eb)
        code_cursor = 0
        outlier_cursor = 0
        # No code reaches the outlier marker: no step needs the elementwise test.
        has_outliers = codes.size > 0 and int(codes.max()) >= _OUTLIER_CODE
        for step_index, (axis, step_stride) in enumerate(
            _refinement_plan(shape, stride)
        ):
            if step_stride >= shape[axis]:
                continue  # no target
            cubic = bool(choices[step_index]) if step_index < len(choices) else False
            target, linear, spline = _predict_both(recon, axis, step_stride, cubic)
            prediction = linear if spline is None else spline
            count = prediction.size
            step_codes = codes[code_cursor : code_cursor + count].reshape(prediction.shape)
            code_cursor += count
            values = _dequantize(
                prediction, step_codes, pitch, out=scratch.take(4, prediction.shape, work_dtype)
            )
            if has_outliers:
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
        if outlier_cursor != outliers.size:
            raise CompressionError(
                f"sz stream misaligned: used {outlier_cursor} of {outliers.size} outliers"
            )
        return recon.astype(blob.dtype)
