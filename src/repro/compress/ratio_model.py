"""Compression-ratio estimation across error bounds (paper ref. [28]).

The planner needs ratio-vs-tolerance curves to predict I/O throughput
without actually compressing at every candidate tolerance.  Following the
modeling idea of Wang et al. ("Compression ratio modeling and estimation
across error bounds for lossy compression", TPDS 2019 — the paper's
ref. [28]), the estimator predicts the entropy of the quantization codes
directly from the data's prediction-residual distribution:

1. run the codec's *prediction* stage once (cheap, no entropy coding);
2. for any error bound ``eb``, the quantization codes are
   ``round(residual / 2 eb)`` — their Shannon entropy is computable from
   the residual histogram alone;
3. estimated bits/value = code entropy + per-value overheads, so
   ``ratio(eb) ~ input_bits / bits_per_value``.

The estimate runs in milliseconds per tolerance and tracks the measured
ratios of the SZ codec (which shares the predictor) within tens of
percent across the tolerance sweep — enough to rank configurations.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import CompressionError
from .sz import SZCompressor, _refinement_plan

__all__ = ["RatioEstimator"]


def _exact_residuals(data: np.ndarray, codec: SZCompressor) -> tuple[np.ndarray, int]:
    """Prediction residuals of the codec's hierarchy, without quantization.

    Walks the same refinement plan as the encoder but reconstructs each
    level exactly, so the collected residuals are the true prediction
    errors whose quantization-code entropy the estimator models.
    """
    recon = data.copy()
    shape = data.shape
    anchor_sel = tuple(slice(0, size, codec.anchor_stride) for size in shape)
    n_anchors = int(recon[anchor_sel].size)
    residual_parts: list[np.ndarray] = []
    for axis, stride in _refinement_plan(shape, codec.anchor_stride):
        residual = codec._choose_prediction(recon, data, axis, stride)[2]
        residual_parts.append(residual.ravel().copy())  # the step's scratch is reused
    residuals = (
        np.concatenate(residual_parts) if residual_parts else np.empty(0)
    )
    return residuals, n_anchors


class RatioEstimator:
    """Entropy-based compression-ratio prediction for SZ-style codecs.

    Parameters
    ----------
    data:
        The array whose compressibility is being modeled.
    codec:
        Codec whose prediction stage defines the residuals; defaults to a
        dynamic-spline :class:`SZCompressor`.
    """

    def __init__(self, data: np.ndarray, codec: SZCompressor | None = None) -> None:
        data = np.asarray(data, dtype=np.float64)
        if data.size == 0:
            raise CompressionError("cannot model an empty array")
        if codec is None:
            codec = SZCompressor()
        self.codec = codec
        self.n_values = data.size
        residuals, n_anchors = _exact_residuals(data, codec)
        self._residuals = np.abs(residuals)
        self._anchor_bits = n_anchors * 64

    def bits_per_value(self, tolerance: float) -> float:
        """Predicted entropy-coded bits per value at a pointwise bound."""
        if tolerance <= 0:
            raise CompressionError("tolerance must be positive")
        codes = np.round(self._residuals / (2.0 * tolerance))
        __, counts = np.unique(codes, return_counts=True)
        n_codes = codes.size
        max_alphabet = self.codec.max_alphabet
        if counts.size >= max_alphabet:
            # model the Huffman escape path: rare symbols beyond the
            # alphabet cap collapse into one ESCAPE symbol plus a raw
            # 32-bit value each
            order = np.sort(counts)[::-1]
            kept = order[: max_alphabet - 1]
            escaped = float(order[max_alphabet - 1 :].sum())
            probabilities = np.concatenate([kept, [escaped]]) / n_codes
            escape_probability = escaped / n_codes
        else:
            probabilities = counts / n_codes
            escape_probability = 0.0
        probabilities = probabilities[probabilities > 0]
        entropy = float(-(probabilities * np.log2(probabilities)).sum())
        per_value = max(entropy, 1.0 / 8.0) + 32.0 * escape_probability
        # canonical-Huffman integer code lengths cost a few percent over
        # the entropy; the table and stream constants amortize per value
        per_value *= 1.03
        overhead = (self._anchor_bits + 512.0 + 40.0 * min(counts.size, max_alphabet)) / (
            self.n_values
        )
        return per_value + overhead

    def ratio(self, tolerance: float) -> float:
        """Predicted compression ratio at a pointwise bound."""
        source_bits = 32.0  # scientific data ships as float32
        return source_bits / self.bits_per_value(tolerance)

    def ratio_curve(self, tolerances: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`ratio` over a tolerance sweep."""
        return np.asarray([self.ratio(float(t)) for t in tolerances])
