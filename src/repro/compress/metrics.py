"""Error and ratio metrics for compressed reconstructions."""

from __future__ import annotations

import numpy as np

from .base import CompressedBlob, ErrorBoundMode

__all__ = ["achieved_error", "compression_ratio"]


def achieved_error(
    original: np.ndarray, reconstruction: np.ndarray, mode: ErrorBoundMode
) -> float:
    """Reconstruction error in the units of the given mode."""
    original = np.asarray(original, dtype=np.float64)
    reconstruction = np.asarray(reconstruction, dtype=np.float64)
    error = reconstruction - original
    if mode is ErrorBoundMode.ABS:
        return float(np.max(np.abs(error))) if error.size else 0.0
    if mode is ErrorBoundMode.REL:
        value_range = float(original.max() - original.min()) if original.size else 0.0
        peak = float(np.max(np.abs(error))) if error.size else 0.0
        return peak / value_range if value_range > 0 else peak
    if mode is ErrorBoundMode.L2_ABS:
        return float(np.linalg.norm(error))
    if mode is ErrorBoundMode.L2_REL:
        norm = float(np.linalg.norm(original))
        return float(np.linalg.norm(error)) / norm if norm > 0 else float(np.linalg.norm(error))
    raise ValueError(f"unknown mode {mode!r}")


def compression_ratio(original: np.ndarray, blob: CompressedBlob) -> float:
    """Original bytes over compressed bytes."""
    original = np.asarray(original)
    if blob.nbytes == 0:
        return float("inf")
    return original.nbytes / blob.nbytes
