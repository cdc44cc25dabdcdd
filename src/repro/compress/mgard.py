"""MGARD-like multilevel compressor (lifted wavelet + level-weighted quant).

Follows the multigrid decomposition idea of MGARD (paper refs. [26],
[27]): the array is decomposed into a coarse approximation plus detail
(multilevel surplus) coefficients via a lifted piecewise-linear transform
— predict (linear interpolation) followed by an update step that keeps
coarse levels close to L2 projections, which is the property that lets
MGARD control norm-based error budgets well.

Quantization assigns each level its own step (optionally weighted by a
smoothness parameter ``s``, mirroring MGARD's s-norm control), and a
verify-tighten loop makes the user tolerance unconditional: the codec
measures the actual reconstruction error before emitting the stream and
tightens steps until the contract holds.  Both pointwise and L2
tolerances are supported, as in real MGARD.
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
from .metrics import achieved_error

__all__ = ["MGARDCompressor"]


def _axslice(ndim: int, axis: int, sl: slice) -> tuple[slice, ...]:
    out = [slice(None)] * ndim
    out[axis] = sl
    return tuple(out)


def _plan(shape: tuple[int, ...], n_levels: int) -> list[tuple[int, int, int]]:
    """Forward traversal: list of ``(level, axis, stride)`` lifting steps."""
    strides = [1] * len(shape)
    steps: list[tuple[int, int, int]] = []
    for level in range(n_levels):
        for axis, size in enumerate(shape):
            count = len(range(0, size, strides[axis]))
            if count >= 2:
                steps.append((level, axis, strides[axis]))
                strides[axis] *= 2
    return steps


def _final_strides(shape: tuple[int, ...], n_levels: int) -> list[int]:
    strides = [1] * len(shape)
    for __, axis, __stride in _plan(shape, n_levels):
        strides[axis] *= 2
    return strides


def _views(work: np.ndarray, shape: tuple[int, ...], strides_now: list[int], axis: int):
    """Even/odd views of the active grid for one lifting step."""
    sel = [slice(0, size, strides_now[d]) for d, size in enumerate(shape)]
    sub = work[tuple(sel)]
    even = sub[_axslice(sub.ndim, axis, slice(0, None, 2))]
    odd = sub[_axslice(sub.ndim, axis, slice(1, None, 2))]
    return even, odd


def _lift_forward(even: np.ndarray, odd: np.ndarray, axis: int) -> None:
    """CDF(2,2)-style predict + update, in place; details land in ``odd``."""
    ne = even.shape[axis]
    no = odd.shape[axis]
    interior = min(no, ne - 1)
    sl = lambda a, b: _axslice(even.ndim, axis, slice(a, b))  # noqa: E731
    # predict: detail = odd - interpolation(evens)
    odd[sl(0, interior)] -= 0.5 * (even[sl(0, interior)] + even[sl(1, interior + 1)])
    if interior < no:  # trailing odd has no right even neighbour
        odd[sl(interior, no)] -= even[sl(interior, no)]
    # update: evens absorb a quarter of each adjacent detail
    even[sl(0, no)] += 0.25 * odd[sl(0, no)]
    even[sl(1, interior + 1)] += 0.25 * odd[sl(0, interior)]


def _lift_inverse(even: np.ndarray, odd: np.ndarray, axis: int) -> None:
    """Exact mirror of :func:`_lift_forward`."""
    ne = even.shape[axis]
    no = odd.shape[axis]
    interior = min(no, ne - 1)
    sl = lambda a, b: _axslice(even.ndim, axis, slice(a, b))  # noqa: E731
    even[sl(1, interior + 1)] -= 0.25 * odd[sl(0, interior)]
    even[sl(0, no)] -= 0.25 * odd[sl(0, no)]
    odd[sl(0, interior)] += 0.5 * (even[sl(0, interior)] + even[sl(1, interior + 1)])
    if interior < no:
        odd[sl(interior, no)] += even[sl(interior, no)]


class MGARDCompressor(Compressor):
    """Multilevel codec with level-weighted, verified error control.

    Parameters
    ----------
    n_levels:
        Depth of the multilevel hierarchy (axes stop refining once they
        run out of points).
    s_weight:
        Level weighting exponent: the quantization step of level ``l`` is
        ``base * 2**(s_weight * l)``.  ``s_weight > 0`` spends more budget
        on fine levels (smoother reconstructions), 0 is uniform.
    """

    name = "mgard"
    supported_modes = frozenset(
        {ErrorBoundMode.ABS, ErrorBoundMode.REL, ErrorBoundMode.L2_ABS, ErrorBoundMode.L2_REL}
    )

    def __init__(self, n_levels: int = 6, s_weight: float = 0.5, max_alphabet: int = 4096) -> None:
        if n_levels < 1:
            raise CompressionError("n_levels must be >= 1")
        self.n_levels = int(n_levels)
        self.s_weight = float(s_weight)
        self.max_alphabet = check_max_alphabet(max_alphabet)

    # -- transform ---------------------------------------------------------
    def _forward(self, data: np.ndarray) -> tuple[np.ndarray, list[tuple[int, int, int]]]:
        work = data.astype(np.float64).copy()
        steps = _plan(data.shape, self.n_levels)
        strides = [1] * data.ndim
        for level, axis, stride in steps:
            even, odd = _views(work, data.shape, strides, axis)
            _lift_forward(even, odd, axis)
            strides[axis] *= 2
        return work, steps

    def _level_step(self, base: float, level: int, s_weight: float | None = None) -> float:
        if s_weight is None:
            s_weight = self.s_weight
        return base * 2.0 ** (s_weight * level)

    def _quantize_details(
        self, work: np.ndarray, shape: tuple[int, ...], steps, base: float
    ) -> np.ndarray:
        """Round detail coefficients in place; return concatenated codes."""
        strides = [1] * len(shape)
        codes: list[np.ndarray] = []
        for level, axis, stride in steps:
            even, odd = _views(work, shape, strides, axis)
            pitch = self._level_step(base, level)
            step_codes = np.round(odd / pitch)
            odd[...] = step_codes * pitch
            codes.append(step_codes.astype(np.int64).ravel())
            strides[axis] *= 2
        return np.concatenate(codes) if codes else np.empty(0, dtype=np.int64)

    def _inverse(
        self, work: np.ndarray, shape: tuple[int, ...], steps, n_levels: int | None = None
    ) -> np.ndarray:
        strides = _final_strides(shape, self.n_levels if n_levels is None else n_levels)
        for level, axis, stride in reversed(steps):
            strides[axis] //= 2
            even, odd = _views(work, shape, strides, axis)
            _lift_inverse(even, odd, axis)
        return work

    # -- public API ----------------------------------------------------------
    def _compress(
        self,
        data: np.ndarray,
        tolerance: float,
        mode: ErrorBoundMode = ErrorBoundMode.ABS,
    ) -> CompressedBlob:
        self._check_mode(mode)
        data = np.asarray(data)
        eb = guarded_pointwise_bound(
            data, absolute_tolerance(data.astype(np.float64), tolerance, mode)
        )
        if eb <= 0.0:
            return self._lossless_blob(data, tolerance, mode)
        work0, steps = self._forward(data)
        if mode.is_l2:
            # Start from the L2 budget spread across coefficients and
            # tighten until the measured error honours the contract.
            base = eb * np.sqrt(max(data.size, 1)) / max(len(steps), 1)
            base *= 8.0
        else:
            base = 2.0 * eb / max(len(steps), 1)
            base *= 4.0
        codes: np.ndarray | None = None
        for __ in range(20):
            trial = work0.copy()
            codes = self._quantize_details(trial, data.shape, steps, base)
            recon = self._inverse(trial, data.shape, steps).astype(data.dtype)
            if achieved_error(data, recon, mode) <= tolerance:
                break
            base *= 0.5
        else:
            raise CompressionError("could not satisfy tolerance after tightening")

        entropy = huffman_encode(codes, max_alphabet=self.max_alphabet)
        coarse_sel = tuple(
            slice(0, size, stride)
            for size, stride in zip(data.shape, _final_strides(data.shape, self.n_levels))
        )
        coarse = work0[coarse_sel].astype(np.float64)
        header = struct.pack("<dBI", base, self.n_levels, coarse.size)
        payload = header + coarse.tobytes() + entropy
        return CompressedBlob(
            codec=self.name,
            payload=payload,
            shape=data.shape,
            dtype=str(data.dtype),
            mode=mode,
            tolerance=float(tolerance),
            metadata={"base_step": base, "s_weight": self.s_weight},
        )

    def _decompress(self, blob: CompressedBlob) -> np.ndarray:
        self._check_blob(blob)
        if blob.metadata.get("lossless"):
            return self._decompress_lossless(blob)
        base, n_levels, n_coarse = struct.unpack_from("<dBI", blob.payload, 0)
        if not 0.0 < base < np.inf:
            raise CompressionError(f"mgard blob names base step {base!r}")
        offset = struct.calcsize("<dBI")
        coarse = np.frombuffer(blob.payload, dtype=np.float64, count=n_coarse, offset=offset)
        offset += n_coarse * 8
        codes = huffman_decode(blob.payload[offset:])

        shape = blob.shape
        # Blobs are self-describing: the hierarchy depth comes from the
        # payload and the level weighting from the blob metadata, so any
        # MGARDCompressor instance can decode any MGARD blob.
        s_weight = float(blob.metadata.get("s_weight", self.s_weight))
        steps = _plan(shape, n_levels)
        work = np.zeros(shape, dtype=np.float64)
        final = _final_strides(shape, n_levels)
        coarse_sel = tuple(slice(0, size, stride) for size, stride in zip(shape, final))
        work[coarse_sel] = coarse.reshape(work[coarse_sel].shape)
        # scatter quantized details back to their positions
        strides = [1] * len(shape)
        cursor = 0
        for level, axis, stride in steps:
            even, odd = _views(work, shape, strides, axis)
            count = odd.size
            pitch = self._level_step(base, level, s_weight)
            odd[...] = codes[cursor : cursor + count].reshape(odd.shape) * pitch
            cursor += count
            strides[axis] *= 2
        if cursor != codes.size:
            raise CompressionError(
                f"mgard stream misaligned: used {cursor} of {codes.size} codes"
            )
        recon = self._inverse(work, shape, steps, n_levels=n_levels)
        return recon.astype(blob.dtype)
