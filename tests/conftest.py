"""Shared fixtures for the test suite."""

from __future__ import annotations

import os
from contextlib import contextmanager

import numpy as np
import pytest

from repro.nn import Identity, Linear, MSELoss, SGD, Sequential, SpectralLinear, Tanh, Trainer


@contextmanager
def one_cpu():
    """Confine the calling thread to one CPU: nothing borrows the side
    lane, so ``execute`` stays inline and every forward whole."""
    mask = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(mask)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, mask)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def smooth_field_2d(rng) -> np.ndarray:
    """A compressible 2-D scientific-looking field (float32)."""
    x = np.linspace(0, 4 * np.pi, 96)
    xx, yy = np.meshgrid(x, x)
    field = np.sin(xx) * np.cos(yy) + 0.3 * np.sin(3 * xx + 1.0) * np.cos(2 * yy)
    field += 1e-4 * rng.standard_normal(field.shape)
    return field.astype(np.float32)


@pytest.fixture
def tiny_mlp(rng) -> Sequential:
    """Untrained 3-layer dense net with plain layers."""
    return Sequential(
        Linear(6, 12, rng=rng), Tanh(), Linear(12, 12, rng=rng), Tanh(), Linear(12, 4, rng=rng),
        Identity(),
    )


@pytest.fixture(scope="session")
def trained_spectral_mlp() -> Sequential:
    """A small PSN network trained on a smooth synthetic regression task.

    Session-scoped: trained once, reused by every bound/quantization test
    that needs realistic (non-random) weights.
    """
    rng = np.random.default_rng(7)
    model = Sequential(
        SpectralLinear(5, 24, rng=rng, alpha_init=1.2),
        Tanh(),
        SpectralLinear(24, 24, rng=rng, alpha_init=1.2),
        Tanh(),
        SpectralLinear(24, 3, rng=rng, alpha_init=1.2),
        Identity(),
    )
    inputs = rng.uniform(-1, 1, (512, 5)).astype(np.float32)
    mixing = rng.standard_normal((5, 3)) * 0.8
    targets = np.tanh(inputs @ mixing).astype(np.float32)
    trainer = Trainer(
        model,
        MSELoss(),
        SGD(model.parameters(), lr=0.05, momentum=0.9),
        spectral_weight=1e-4,
    )
    trainer.fit(inputs, targets, epochs=40, batch_size=64, rng=np.random.default_rng(8))
    model.eval()
    return model
