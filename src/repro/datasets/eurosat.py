"""Synthetic EuroSAT-like multispectral imagery (paper Section IV-A.3).

EuroSAT is 16-bit Sentinel-2 imagery over 13 spectral bands with 10 land
use / land cover classes.  The real dataset is not redistributable here,
so images are generated procedurally: each class combines a distinctive
spectral signature (mean reflectance per band) with a class-specific
spatial texture (correlation length, anisotropy, blockiness), rendered as
16-bit samples — exercising the same ResNet + high-precision-input code
path the paper evaluates.

The paper resizes to 224x224; we default to 32x32 so the numpy ResNet
trains in seconds (documented substitution — the error theory depends on
layer spectra, not image resolution).
"""

from __future__ import annotations

import numpy as np

from .loaders import MinMaxNormalizer, ScientificDataset

__all__ = ["CLASS_NAMES", "N_BANDS", "make_eurosat"]

CLASS_NAMES: tuple[str, ...] = (
    "AnnualCrop",
    "Forest",
    "HerbaceousVegetation",
    "Highway",
    "Industrial",
    "Pasture",
    "PermanentCrop",
    "Residential",
    "River",
    "SeaLake",
)

N_BANDS = 13

# Per-class band signature: base reflectance level per band (fraction of
# the 16-bit range).  Vegetation classes peak in the NIR bands (7-9),
# water absorbs NIR, built-up classes are spectrally flat and bright.
_BAND_AXIS = np.linspace(0.0, 1.0, N_BANDS)


def _signature(vis: float, nir: float, swir: float) -> np.ndarray:
    weights_nir = np.exp(-(((_BAND_AXIS - 0.6) / 0.18) ** 2))
    weights_swir = np.exp(-(((_BAND_AXIS - 0.95) / 0.15) ** 2))
    base = vis * (1.0 - weights_nir - weights_swir) + nir * weights_nir + swir * weights_swir
    return np.clip(base, 0.02, 0.95)


_SIGNATURES = np.stack(
    [
        _signature(0.22, 0.55, 0.30),  # AnnualCrop
        _signature(0.08, 0.45, 0.18),  # Forest
        _signature(0.15, 0.50, 0.25),  # HerbaceousVegetation
        _signature(0.30, 0.28, 0.33),  # Highway
        _signature(0.45, 0.40, 0.48),  # Industrial
        _signature(0.18, 0.48, 0.22),  # Pasture
        _signature(0.25, 0.52, 0.28),  # PermanentCrop
        _signature(0.40, 0.35, 0.42),  # Residential
        _signature(0.12, 0.15, 0.08),  # River
        _signature(0.10, 0.06, 0.04),  # SeaLake
    ]
)

# Texture parameters per class: (correlation length, anisotropy, blockiness)
_TEXTURES: tuple[tuple[float, float, float], ...] = (
    (2.0, 4.0, 0.0),  # AnnualCrop: striped rows
    (1.5, 1.0, 0.0),  # Forest: fine isotropic
    (2.5, 1.0, 0.0),  # HerbaceousVegetation
    (1.0, 6.0, 0.0),  # Highway: strongly anisotropic
    (1.5, 1.0, 0.8),  # Industrial: blocky
    (3.5, 1.0, 0.0),  # Pasture: smooth
    (2.0, 3.0, 0.2),  # PermanentCrop: semi-striped
    (1.2, 1.0, 0.9),  # Residential: very blocky
    (2.5, 2.5, 0.0),  # River: elongated
    (6.0, 1.0, 0.0),  # SeaLake: very smooth
)


def _gaussian_wrap(image: np.ndarray, sigmas: tuple[float, ...]) -> np.ndarray:
    """Periodic Gaussian blur, bit-identical to scipy.ndimage's
    ``gaussian_filter(mode="wrap")``: its kernel (radius ``int(4 sigma +
    0.5)``), one axis after another, and its symmetric fold, ``x[i] * w0``
    plus each ``(x[i - k] + x[i + k]) * w_k`` from the farthest tap in."""
    out = image
    for axis, sigma in enumerate(sigmas):
        radius = int(4.0 * sigma + 0.5)
        phi = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
        weights = (phi / phi.sum())[np.r_[radius, :radius]]  # w0, then far to near
        line = np.moveaxis(out, axis, -1)
        at, far_to_near = np.arange(line.shape[-1])[:, None], np.arange(radius, 0, -1)
        taps = line[..., np.hstack([at, at - far_to_near, at + far_to_near]) % line.shape[-1]]
        taps[..., 1 : radius + 1] += taps[..., radius + 1 :]
        out = np.moveaxis(np.cumsum(taps[..., : radius + 1] * weights, axis=-1)[..., -1], -1, axis)
    return out


def _texture(
    size: int, corr: float, anisotropy: float, blockiness: float, rng: np.random.Generator
) -> np.ndarray:
    noise = rng.standard_normal((size, size))
    smooth = _gaussian_wrap(noise, (corr, corr / anisotropy))
    std = smooth.std()
    if std > 0:
        smooth = smooth / std
    if blockiness > 0:
        block = max(2, size // 8)
        coarse = smooth[::block, ::block]
        blocked = np.kron(coarse, np.ones((block, block)))[:size, :size]
        smooth = (1 - blockiness) * smooth + blockiness * blocked
    return smooth


def make_eurosat(
    n_per_class: int = 24,
    image_size: int = 32,
    rng: np.random.Generator | None = None,
    test_fraction: float = 0.25,
) -> ScientificDataset:
    """Build the synthetic EuroSAT classification workload.

    Returns
    -------
    ScientificDataset
        ``train_inputs``: normalized images ``(N, 13, H, W)``;
        ``train_targets``: integer labels; ``fields``: the normalized test
        images (what the compressor ingests at inference time).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    images = []
    labels = []
    for class_id in range(len(CLASS_NAMES)):
        signature = _SIGNATURES[class_id]
        corr, anisotropy, blockiness = _TEXTURES[class_id]
        for __ in range(n_per_class):
            texture = _texture(image_size, corr, anisotropy, blockiness, rng)
            # Band loading: texture modulates each band proportionally to
            # its signature, plus band-independent sensor noise.
            image = (
                signature[:, None, None]
                * (1.0 + 0.25 * texture[None, :, :])
            )
            image = image + 0.01 * rng.standard_normal((N_BANDS, image_size, image_size))
            images.append(np.clip(image, 0.0, 1.0))
            labels.append(class_id)
    raw = np.stack(images)  # (N, 13, H, W) reflectances in [0, 1]
    labels = np.asarray(labels, dtype=np.int64)

    # Store as 16-bit counts like Sentinel-2, then normalize to [-1, 1].
    counts = (raw * 10000.0).astype(np.uint16)
    normalized = (counts.astype(np.float32) / 5000.0) - 1.0

    order = rng.permutation(len(normalized))
    n_test = max(1, int(len(normalized) * test_fraction))
    test_idx, train_idx = order[:n_test], order[n_test:]

    input_norm = MinMaxNormalizer()
    input_norm.low = np.zeros(N_BANDS)
    input_norm.high = np.full(N_BANDS, 10000.0)

    return ScientificDataset(
        name="eurosat",
        train_inputs=normalized[train_idx],
        train_targets=labels[train_idx],
        test_inputs=normalized[test_idx],
        test_targets=labels[test_idx],
        fields=normalized[test_idx].astype(np.float32),
        task="classification",
        input_normalizer=input_norm,
        metadata={
            "classes": list(CLASS_NAMES),
            "image_size": image_size,
            "n_bands": N_BANDS,
            "bit_depth": 16,
        },
        images=True,
    )
