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

The separable transform of a flattened 4^d block is one Kronecker
matrix, built once per block rank, so each direction is a single float64
GEMM over all blocks; decode folds the step into the matrix and works in
the codec scratch.  This also reproduces ZFP's operational profile:
stable throughput across tolerance levels.
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
)
from .huffman import check_max_alphabet, decode_symbols, huffman_encode

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
# one Kronecker matrix per block rank; the 3-D one is 64x64, 32 KB
_KRON = {1: _DCT, 2: np.kron(_DCT, _DCT), 3: np.kron(_DCT, np.kron(_DCT, _DCT))}


def _blocked(shape: tuple[int, ...], block_dims: int) -> tuple[tuple[int, ...], list[int]]:
    """``shape`` padded to whole blocks as interleaved ``(count, 4)`` axes,
    and the transpose that orders those as leading axes, counts, then 4s."""
    n_lead = len(shape) - block_dims
    counts = [-(-size // _BLOCK) for size in shape[n_lead:]]
    interleaved = tuple(shape[:n_lead]) + sum(((count, _BLOCK) for count in counts), ())
    axes = [n_lead + 2 * i + j for j in (0, 1) for i in range(block_dims)]
    return interleaved, list(range(n_lead)) + axes


def _block_split(data: np.ndarray, block_dims: int) -> tuple[np.ndarray, tuple[int, ...]]:
    """Pad and reshape into ``(n_blocks, 4, [4, [4]])`` blocks.

    Blocking applies to the trailing ``block_dims`` axes; leading axes act
    as batch.  Edge padding replicates border values so padding is cheap
    to encode and cannot violate the error bound.
    """
    n_lead = data.ndim - block_dims
    pad = [(0, 0)] * n_lead + [(0, -size % _BLOCK) for size in data.shape[n_lead:]]
    padded = np.pad(data, pad, mode="edge")
    interleaved, axes = _blocked(data.shape, block_dims)
    blocks = padded.reshape(interleaved).transpose(axes).reshape((-1,) + (_BLOCK,) * block_dims)
    return np.ascontiguousarray(blocks), padded.shape


def _block_join(blocks: np.ndarray, shape: tuple[int, ...], block_dims: int) -> np.ndarray:
    """Inverse of :func:`_block_split`: the array of ``shape``, padding
    cropped, as a view of scratch slot 3."""
    interleaved, axes = _blocked(shape, block_dims)
    padded = codec_scratch().take(3, interleaved, blocks.dtype)
    ordered = padded.transpose(axes)
    ordered[...] = blocks.reshape(ordered.shape)
    n_lead = len(shape) - block_dims
    whole = interleaved[:n_lead] + tuple(_BLOCK * count for count in interleaved[n_lead::2])
    return padded.reshape(whole)[tuple(map(slice, shape))]


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

    def compress_fixed_rate(self, data: np.ndarray, bits_per_value: float) -> CompressedBlob:
        """Fixed-rate compression: target a bits-per-value budget.

        Searches the accuracy knob, from a relative tolerance of 0.1, until
        the payload meets the requested rate (like ZFP's fixed-rate mode,
        the achieved accuracy is whatever the budget affords).  Returns a blob decodable by
        :meth:`decompress`; its ``metadata['achieved_bpv']`` records the
        realized rate.
        """
        data = np.asarray(data)
        if bits_per_value <= 0:
            raise CompressionError("bits_per_value must be positive")
        budget_bytes = bits_per_value * data.size / 8.0
        tolerance = 1e-1
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
        k = _BLOCK**block_dims
        coefficients = blocks.reshape(-1, k) @ _KRON[block_dims].T
        # Orthonormal transform: pointwise error <= l2 coefficient error
        # <= sqrt(K) * step / 2 with K coefficients per block.
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
        if block_dims != self._block_dims(len(blob.shape)):
            raise CompressionError(f"zfp blob names block rank {block_dims}")
        k = _BLOCK**block_dims
        # the header's bound fixes the payload's step: a flipped bit is refused here
        eb = blob.metadata.get("eb")
        if not 0.0 < step < np.inf or (eb is not None and step != 2.0 * eb / np.sqrt(k)):
            raise CompressionError(f"zfp blob names step {step!r}")
        # in scratch slots (see CodecScratch): only the returned copy is new
        scratch = codec_scratch()
        codes = decode_symbols(blob.payload[struct.calcsize("<dB") :], 2)
        coefficients = scratch.take(0, (codes.size // k, k))
        coefficients[...] = codes.reshape(-1, k)
        blocks = scratch.take(1, coefficients.shape)
        np.matmul(coefficients, _KRON[block_dims] * step, out=blocks)
        return _block_join(blocks, blob.shape, block_dims).astype(blob.dtype)
