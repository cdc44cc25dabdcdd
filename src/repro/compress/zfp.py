"""ZFP-like fixed-accuracy compressor (block transform + coefficient coding).

Mirrors ZFP's structure (paper ref. [7]): the array is carved into 4^d
blocks, each block is decorrelated with a separable transform, and the
coefficients are quantized.  Two deliberate fidelity choices:

* the decorrelating transform is the *orthonormal* 4-point DCT-II rather
  than ZFP's fixed-point lifted transform — orthonormality gives an exact
  pointwise error guarantee (``max|e| <= ||e||_2 = ||coef err||_2``) with
  a closed-form step size, no verify loop needed;
* like real ZFP, only pointwise (fixed-accuracy) tolerances are
  supported (the paper's Fig. 8 notes ZFP has no L2 tolerance mode); an
  L2 pipeline plan reaches it as the pointwise budget ``tau / sqrt(n_0)``.

Blocks are processed fully vectorized, which also reproduces ZFP's
operational profile: stable throughput across tolerance levels.
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

__all__ = ["ZFPCompressor"]

_BLOCK = 4


def _dct_matrix(n: int = _BLOCK) -> np.ndarray:
    """Orthonormal DCT-II matrix of size n."""
    k = np.arange(n)[:, None]
    i = np.arange(n)[None, :]
    matrix = np.cos(np.pi * (2 * i + 1) * k / (2 * n))
    matrix[0] *= 1.0 / np.sqrt(2.0)
    return matrix * np.sqrt(2.0 / n)


_DCT = _dct_matrix()
_IDCT = _DCT.T


def _block_split(data: np.ndarray, block_dims: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Pad and reshape into ``(n_blocks, 4, [4, [4]])`` blocks.

    Blocking applies to the trailing ``block_dims`` axes; leading axes act
    as batch.  Edge padding replicates border values so padding is cheap
    to encode and cannot violate the error bound.
    """
    trailing = data.shape[-block_dims:]
    pad = [(0, 0)] * (data.ndim - block_dims) + [
        (0, (-size) % _BLOCK) for size in trailing
    ]
    padded = np.pad(data, pad, mode="edge")
    lead = padded.shape[: data.ndim - block_dims]
    counts = [size // _BLOCK for size in padded.shape[-block_dims:]]
    # interleave (count, 4) pairs then move the 4s last
    interleaved_shape = list(lead)
    for count in counts:
        interleaved_shape.extend([count, _BLOCK])
    reshaped = padded.reshape(interleaved_shape)
    lead_axes = list(range(len(lead)))
    count_axes = [len(lead) + 2 * i for i in range(block_dims)]
    block_axes = [len(lead) + 2 * i + 1 for i in range(block_dims)]
    transposed = reshaped.transpose(lead_axes + count_axes + block_axes)
    blocks = transposed.reshape((-1,) + (_BLOCK,) * block_dims)
    return np.ascontiguousarray(blocks), padded.shape


def _block_join(
    blocks: np.ndarray, padded_shape: tuple[int, ...], original_shape: tuple[int, ...], block_dims: int
) -> np.ndarray:
    """Inverse of :func:`_block_split`."""
    lead = padded_shape[: len(padded_shape) - block_dims]
    counts = [size // _BLOCK for size in padded_shape[-block_dims:]]
    shaped = blocks.reshape(tuple(lead) + tuple(counts) + (_BLOCK,) * block_dims)
    n_lead = len(lead)
    axes = list(range(n_lead))
    for i in range(block_dims):
        axes.extend([n_lead + i, n_lead + block_dims + i])
    padded = shaped.transpose(axes).reshape(padded_shape)
    crop = tuple(slice(0, size) for size in original_shape)
    return padded[crop]


def _transform(blocks: np.ndarray, matrix: np.ndarray, block_dims: int) -> np.ndarray:
    """Apply ``matrix`` along each of the trailing block axes."""
    out = blocks
    for axis in range(1, block_dims + 1):
        out = np.moveaxis(np.tensordot(out, matrix, axes=([axis], [1])), -1, axis)
    return out


class ZFPCompressor(Compressor):
    """Block-transform codec with fixed-accuracy (pointwise) error control.

    Like real ZFP, a *fixed-rate* mode is also available
    (:meth:`compress_fixed_rate`): instead of an error tolerance, the
    caller fixes the bits-per-value budget and the codec delivers the best
    accuracy it can within it — the mode HPC codes use when the output
    size must be known in advance.
    """

    name = "zfp"
    supported_modes = frozenset({ErrorBoundMode.ABS, ErrorBoundMode.REL})

    def __init__(self, max_alphabet: int = 4096) -> None:
        self.max_alphabet = check_max_alphabet(max_alphabet)

    def compress_fixed_rate(
        self, data: np.ndarray, bits_per_value: float, tolerance_hint: float = 1e-1
    ) -> CompressedBlob:
        """Fixed-rate compression: target a bits-per-value budget.

        Searches the accuracy knob until the payload meets the requested
        rate (like ZFP's fixed-rate mode, the achieved accuracy is
        whatever the budget affords).  Returns a blob decodable by
        :meth:`decompress`; its ``metadata['achieved_bpv']`` records the
        realized rate.
        """
        data = np.asarray(data)
        if bits_per_value <= 0:
            raise CompressionError("bits_per_value must be positive")
        budget_bytes = bits_per_value * data.size / 8.0
        tolerance = float(tolerance_hint)
        blob = self.compress(data, tolerance, ErrorBoundMode.REL)
        for __ in range(24):
            if blob.nbytes <= budget_bytes:
                break
            tolerance *= 2.0
            blob = self.compress(data, tolerance, ErrorBoundMode.REL)
        else:
            raise CompressionError(
                f"cannot reach {bits_per_value} bits/value on this data"
            )
        # tighten back down while the budget still holds
        while tolerance > 1e-12:
            candidate = self.compress(data, tolerance / 2.0, ErrorBoundMode.REL)
            if candidate.nbytes > budget_bytes:
                break
            blob = candidate
            tolerance /= 2.0
        blob.metadata["achieved_bpv"] = 8.0 * blob.nbytes / data.size
        blob.metadata["fixed_rate"] = bits_per_value
        return blob

    @staticmethod
    def _block_dims(ndim: int) -> int:
        if ndim == 0:
            raise CompressionError("cannot compress a scalar")
        return min(ndim, 3)

    def _compress(
        self,
        data: np.ndarray,
        tolerance: float,
        mode: ErrorBoundMode = ErrorBoundMode.ABS,
    ) -> CompressedBlob:
        self._check_mode(mode)
        data = np.asarray(data)
        work = data.astype(np.float64)
        eb = guarded_pointwise_bound(data, absolute_tolerance(work, tolerance, mode))
        if eb <= 0.0:
            return self._lossless_blob(data, tolerance, mode)
        block_dims = self._block_dims(work.ndim)
        blocks, padded_shape = _block_split(work, block_dims)
        coefficients = _transform(blocks, _DCT, block_dims)
        # Orthonormal transform: pointwise error <= l2 coefficient error
        # <= sqrt(K) * step / 2 with K coefficients per block.
        k = _BLOCK**block_dims
        step = 2.0 * eb / np.sqrt(k)
        codes = np.round(coefficients / step).astype(np.int64)
        entropy = huffman_encode(codes.ravel(), max_alphabet=self.max_alphabet)
        header = struct.pack("<dB", step, block_dims)
        return CompressedBlob(
            codec=self.name,
            payload=header + entropy,
            shape=data.shape,
            dtype=str(data.dtype),
            mode=mode,
            tolerance=float(tolerance),
            metadata={"eb": eb, "padded_shape": padded_shape},
        )

    def _decompress(self, blob: CompressedBlob) -> np.ndarray:
        self._check_blob(blob)
        if blob.metadata.get("lossless"):
            return self._decompress_lossless(blob)
        step, block_dims = struct.unpack_from("<dB", blob.payload, 0)
        offset = struct.calcsize("<dB")
        codes = huffman_decode(blob.payload[offset:])
        original_shape = blob.shape
        trailing = original_shape[len(original_shape) - block_dims :]
        padded_trailing = tuple(size + (-size) % _BLOCK for size in trailing)
        padded_shape = original_shape[: len(original_shape) - block_dims] + padded_trailing
        n_blocks = int(np.prod(padded_shape)) // (_BLOCK**block_dims)
        coefficients = (
            codes.astype(np.float64).reshape((n_blocks,) + (_BLOCK,) * block_dims) * step
        )
        blocks = _transform(coefficients, _IDCT, block_dims)
        return _block_join(blocks, padded_shape, original_shape, block_dims).astype(blob.dtype)
