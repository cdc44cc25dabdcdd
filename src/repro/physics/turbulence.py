"""Spectral synthesis of turbulent fields.

The Borghesi-flame and combustion workloads need scalar and velocity
fields with realistic spatial correlation (what makes scientific data
compressible).  Fields are synthesized in Fourier space with a
Kolmogorov-like power spectrum ``E(k) ~ k^-slope`` and random phases —
the standard kinematic-simulation construction.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError

__all__ = ["synthesize_scalar", "gradient"]


def _radial_wavenumbers(shape: tuple[int, ...]) -> np.ndarray:
    axes = [np.fft.fftfreq(size, d=1.0 / size) for size in shape]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.sqrt(sum(grid**2 for grid in grids))


def _spectral_noise(
    shape: tuple[int, ...], slope: float, cutoff: float, rng: np.random.Generator
) -> np.ndarray:
    """Real random field with amplitude spectrum ``k^(-slope/2)``."""
    k = _radial_wavenumbers(shape)
    amplitude = np.zeros_like(k)
    nonzero = k > 0
    amplitude[nonzero] = k[nonzero] ** (-slope / 2.0)
    if cutoff > 0:
        amplitude *= np.exp(-((k / cutoff) ** 2))
    phases = rng.uniform(0.0, 2.0 * np.pi, size=shape)
    spectrum = amplitude * np.exp(1j * phases)
    field = np.real(np.fft.ifftn(spectrum))
    std = field.std()
    if std == 0:
        raise ConfigurationError("degenerate spectrum produced a constant field")
    return field / std


def synthesize_scalar(
    shape: tuple[int, ...],
    rng: np.random.Generator,
    slope: float = 5.0 / 3.0,
    cutoff_fraction: float = 0.5,
) -> np.ndarray:
    """Zero-mean, unit-variance scalar field with a ``k^-slope`` spectrum.

    Parameters
    ----------
    shape:
        Grid shape (any dimensionality).
    rng:
        Random generator for the spectral phases.
    slope:
        Energy-spectrum exponent; 5/3 mimics inertial-range turbulence.
    cutoff_fraction:
        Gaussian spectral cutoff as a fraction of the Nyquist wavenumber
        (controls the smallest resolved scale).
    """
    cutoff = cutoff_fraction * min(shape) / 2.0
    return _spectral_noise(shape, slope, cutoff, rng)


def gradient(field: np.ndarray, spacing: float = 1.0) -> list[np.ndarray]:
    """Central-difference gradient along every axis."""
    return list(np.gradient(field, spacing))
