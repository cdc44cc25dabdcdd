"""Tests for the U-Net extension (paper Section VI)."""

import numpy as np
import pytest

from repro.core import ErrorFlowAnalyzer
from repro.exceptions import ShapeError
from repro.models import unet
from repro.nn import Adam, ConcatChannels, MSELoss, Trainer, Upsample2d
from repro.quant import FP16, INT8, materialize, quantize_model


@pytest.fixture(scope="module")
def trained_unet():
    """A small spectral U-Net trained on a denoising task."""
    rng = np.random.default_rng(3)
    model = unet(in_channels=1, out_channels=1, base_width=6, depth=2, rng=rng)
    grid = np.linspace(0, 6, 16)
    clean = np.stack(
        [
            np.sin(grid + phase)[None, :] * np.cos(grid)[:, None]
            for phase in np.linspace(0, 3, 48)
        ]
    )[:, None].astype(np.float32)
    noisy = clean + 0.1 * rng.standard_normal(clean.shape).astype(np.float32)
    trainer = Trainer(
        model, MSELoss(), Adam(model.parameters(), lr=2e-3), spectral_weight=1e-4
    )
    history = trainer.fit(noisy, clean, epochs=20, batch_size=8, rng=rng)
    model.eval()
    return model, noisy, history


# -- plumbing ----------------------------------------------------------------


def test_upsample_values():
    layer = Upsample2d(2)
    x = np.array([[[[1.0, 2.0], [3.0, 4.0]]]])
    out = layer(x)
    assert out.shape == (1, 1, 4, 4)
    assert np.array_equal(out[0, 0, :2, :2], [[1.0, 1.0], [1.0, 1.0]])


def test_upsample_l2_gain_is_scale(rng):
    layer = Upsample2d(2)
    x = rng.standard_normal((2, 3, 8, 8))
    assert np.linalg.norm(layer(x)) == pytest.approx(2.0 * np.linalg.norm(x))
    assert layer.l2_gain == 2.0


def test_upsample_backward_is_adjoint(rng):
    layer = Upsample2d(2)
    x = rng.standard_normal((1, 2, 4, 4))
    y = rng.standard_normal((1, 2, 8, 8))
    lhs = float(np.sum(layer(x) * y))
    rhs = float(np.sum(x * layer.backward(y)))
    assert lhs == pytest.approx(rhs)


def test_concat_channels(rng):
    layer = ConcatChannels()
    a = rng.standard_normal((2, 3, 4, 4))
    b = rng.standard_normal((2, 5, 4, 4))
    out = layer(a, b)
    assert out.shape == (2, 8, 4, 4)
    grad_a, grad_b = layer.backward(out)
    assert np.array_equal(grad_a, a)
    assert np.array_equal(grad_b, b)


def test_concat_rejects_mismatch(rng):
    with pytest.raises(ShapeError):
        ConcatChannels()(np.zeros((1, 2, 4, 4)), np.zeros((1, 2, 5, 5)))
    with pytest.raises(ShapeError):
        ConcatChannels()(np.zeros((1, 2, 4, 4)))


# -- model ---------------------------------------------------------------------


def test_unet_preserves_spatial_shape(rng):
    model = unet(in_channels=2, out_channels=3, base_width=4, depth=2, rng=rng)
    out = model(rng.uniform(-1, 1, (2, 2, 16, 16)).astype(np.float32))
    assert out.shape == (2, 3, 16, 16)


def test_unet_training_reduces_loss(trained_unet):
    __, __, history = trained_unet
    assert history.train_loss[-1] < history.train_loss[0] * 0.7


def test_unet_extraction_counts_all_convs(trained_unet):
    model, __, __ = trained_unet
    analyzer = ErrorFlowAnalyzer(model, (1, 16, 16))
    # depth 2: down x2, bottleneck, fuse x2, head = 6 convolutions
    assert len(analyzer.spec.linear_specs()) == 6
    assert analyzer.gain() > 0


@pytest.mark.parametrize("fmt", [FP16, INT8], ids=lambda f: f.name)
def test_unet_quantization_bound_holds(trained_unet, fmt, rng):
    model, noisy, __ = trained_unet
    analyzer = ErrorFlowAnalyzer(model, (1, 16, 16))
    x = noisy[:8]
    reference = materialize(model)(x)
    quantized = quantize_model(model, fmt)
    achieved = np.linalg.norm((quantized(x) - reference).reshape(len(x), -1), axis=1).max()
    assert achieved <= analyzer.quantization_bound(fmt)


def test_unet_compression_bound_holds(trained_unet, rng):
    model, noisy, __ = trained_unet
    analyzer = ErrorFlowAnalyzer(model, (1, 16, 16))
    x = noisy[:8]
    epsilon = 1e-3
    delta = rng.uniform(-epsilon, epsilon, x.shape).astype(np.float32)
    achieved = np.linalg.norm(
        (model(x + delta) - model(x)).reshape(len(x), -1), axis=1
    ).max()
    assert achieved <= analyzer.compression_bound_linf(epsilon)


def test_unet_calibration(trained_unet):
    model, noisy, __ = trained_unet
    analyzer = ErrorFlowAnalyzer(model, (1, 16, 16))
    paper = analyzer.quantization_bound(INT8)
    analyzer.calibrate(noisy[:8])
    assert analyzer.quantization_bound(INT8) < paper


def test_unet_materialize_matches(trained_unet, rng):
    model, noisy, __ = trained_unet
    frozen = materialize(model)
    x = noisy[:4]
    assert np.allclose(frozen(x), model(x), atol=1e-5)
    from repro.nn import SpectralConv2d

    assert not any(isinstance(m, SpectralConv2d) for m in frozen.modules())
