"""Tests for dense/conv/pooling layers: shapes, values and exact gradients."""

import numpy as np
import pytest

from repro.exceptions import ShapeError
from repro.nn import (
    AvgPool2d,
    BatchNorm2d,
    Conv2d,
    CrossEntropyLoss,
    Flatten,
    GlobalAvgPool2d,
    Linear,
    MaxPool2d,
    MSELoss,
    ReLU,
    Sequential,
    SpectralConv2d,
    SpectralLinear,
    Tanh,
)
from repro.nn.functional import col2im, conv_output_size, im2col


def _to_float64(model):
    for param in model.parameters():
        param.data = param.data.astype(np.float64)
        param.grad = param.grad.astype(np.float64)
    return model


def _converge_power_states(model, n_steps: int = 200):
    """Drive every spectral layer's power iteration to its fixed point.

    Single-step spectral normalization is only differentiable *at* the
    power-iteration fixed point; gradchecking a half-converged state
    measures estimator drift, not gradients.
    """
    for module in model.modules():
        power = getattr(module, "_power", None)
        if power is None:
            continue
        if isinstance(module, SpectralConv2d):
            power.step(module.matricized_weight(), n_steps=n_steps)
        else:
            power.step(module.raw_weight.data, n_steps=n_steps)


def _numeric_gradient_check(model, x, loss, target, rng, eps=1e-5, tol=1e-4):
    """Compare analytic parameter gradients against central differences."""
    _converge_power_states(model)
    model.train()
    model.zero_grad()
    loss(model(x), target)
    model.backward(loss.backward())
    for name, param in model.named_parameters():
        flat = param.data.reshape(-1)
        grad = param.grad.reshape(-1)
        for index in rng.choice(flat.size, size=min(4, flat.size), replace=False):
            original = flat[index]
            flat[index] = original + eps
            upper = loss(model(x), target)
            flat[index] = original - eps
            lower = loss(model(x), target)
            flat[index] = original
            numeric = (upper - lower) / (2 * eps)
            # The absolute floor absorbs central-difference noise on
            # exactly-zero gradients (e.g. a conv bias ahead of BN).
            denom = max(abs(numeric), abs(grad[index]), 1e-5)
            assert abs(numeric - grad[index]) / denom < tol, (
                f"{name}[{index}]: analytic {grad[index]:.6g} vs numeric {numeric:.6g}"
            )


# -- Linear ----------------------------------------------------------------


def test_linear_forward_matches_matmul(rng):
    layer = Linear(5, 3, rng=rng)
    x = rng.standard_normal((7, 5)).astype(np.float32)
    expected = x @ layer.weight.data.T + layer.bias.data
    assert np.allclose(layer(x), expected)


def test_linear_no_bias(rng):
    layer = Linear(5, 3, bias=False, rng=rng)
    assert layer.bias is None
    assert layer.effective_bias() is None


def test_linear_rejects_wrong_width(rng):
    layer = Linear(5, 3, rng=rng)
    with pytest.raises(ShapeError):
        layer(np.zeros((2, 4)))


def test_linear_rejects_bad_dims():
    with pytest.raises(ShapeError):
        Linear(0, 3)


def test_linear_gradients(rng):
    model = _to_float64(Sequential(Linear(5, 7, rng=rng), Tanh(), Linear(7, 3, rng=rng)))
    x = rng.standard_normal((6, 5))
    target = rng.standard_normal((6, 3))
    _numeric_gradient_check(model, x, MSELoss(), target, rng)


def test_linear_unknown_init(rng):
    with pytest.raises(ValueError, match="unknown weight_init"):
        Linear(3, 3, rng=rng, weight_init="nope")


# -- SpectralLinear ---------------------------------------------------------


def test_spectral_linear_effective_weight_has_alpha_norm(rng):
    layer = SpectralLinear(10, 8, rng=rng, alpha_init=1.7)
    sigma = np.linalg.svd(layer.effective_weight(), compute_uv=False)[0]
    assert np.isclose(sigma, 1.7, rtol=1e-5)


def test_spectral_linear_eval_matches_effective_weight(rng):
    layer = SpectralLinear(6, 4, rng=rng)
    layer.eval()
    x = rng.standard_normal((3, 6)).astype(np.float32)
    expected = x @ layer.effective_weight().T.astype(np.float32) + layer.bias.data
    assert np.allclose(layer(x), expected, atol=1e-6)


def test_spectral_linear_gradients(rng):
    model = _to_float64(
        Sequential(SpectralLinear(4, 6, rng=rng), Tanh(), SpectralLinear(6, 2, rng=rng))
    )
    x = rng.standard_normal((5, 4))
    target = rng.standard_normal((5, 2))
    # Spectral-normalization gradients are exact only at the power-iteration
    # fixed point; warm-started vectors give a tight approximation.
    _numeric_gradient_check(model, x, MSELoss(), target, rng, tol=5e-2)


def test_spectral_linear_eval_cache_invalidates_on_weight_change(rng):
    layer = SpectralLinear(6, 6, rng=rng)
    layer.eval()
    x = rng.standard_normal((2, 6)).astype(np.float32)
    before = layer(x)
    layer.raw_weight.data = layer.raw_weight.data * 2.0  # new array object
    after = layer(x)
    # sigma rescales with the weights, so the normalized map is unchanged
    assert np.allclose(before, after, atol=1e-6)


# -- im2col / col2im ----------------------------------------------------------


def test_conv_output_size():
    assert conv_output_size(8, 3, 1, 1) == 8
    assert conv_output_size(8, 3, 2, 1) == 4
    assert conv_output_size(7, 3, 2, 0) == 3


def test_im2col_shapes(rng):
    x = rng.standard_normal((2, 3, 8, 8))
    cols, (oh, ow) = im2col(x, (3, 3), stride=1, padding=1)
    assert (oh, ow) == (8, 8)
    assert cols.shape == (2 * 64, 3 * 9)


def test_col2im_is_adjoint_of_im2col(rng):
    """<im2col(x), y> == <x, col2im(y)> — exact adjointness."""
    x = rng.standard_normal((2, 3, 6, 6))
    cols, __ = im2col(x, (3, 3), stride=2, padding=1)
    y = rng.standard_normal(cols.shape)
    lhs = float(np.sum(cols * y))
    rhs = float(np.sum(x * col2im(y, x.shape, (3, 3), stride=2, padding=1)))
    assert np.isclose(lhs, rhs, rtol=1e-10)


# -- Conv2d -------------------------------------------------------------------


def test_conv2d_matches_scipy_correlate(rng):
    signal = pytest.importorskip("scipy.signal")
    layer = Conv2d(2, 4, 3, stride=1, padding=1, rng=rng)
    x = rng.standard_normal((1, 2, 9, 9)).astype(np.float64)
    out = layer(x)
    for out_channel in range(4):
        expected = np.zeros((9, 9))
        for in_channel in range(2):
            expected += signal.correlate2d(
                x[0, in_channel], layer.weight.data[out_channel, in_channel], mode="same"
            )
        expected += layer.bias.data[out_channel]
        assert np.allclose(out[0, out_channel], expected, atol=1e-5)


def test_conv2d_stride_and_shape(rng):
    layer = Conv2d(3, 8, 3, stride=2, padding=1, rng=rng)
    out = layer(rng.standard_normal((4, 3, 16, 16)).astype(np.float32))
    assert out.shape == (4, 8, 8, 8)


def test_conv2d_rejects_wrong_channels(rng):
    with pytest.raises(ShapeError):
        Conv2d(3, 8, 3, rng=rng)(np.zeros((1, 4, 8, 8)))


def test_conv2d_gradients(rng):
    model = _to_float64(
        Sequential(Conv2d(2, 4, 3, padding=1, rng=rng), ReLU(), GlobalAvgPool2d(), Linear(4, 3, rng=rng))
    )
    x = rng.standard_normal((3, 2, 6, 6))
    labels = rng.integers(0, 3, size=3)
    _numeric_gradient_check(model, x, CrossEntropyLoss(), labels, rng)


def test_conv2d_matricized_roundtrip(rng):
    layer = Conv2d(3, 5, 3, rng=rng)
    matrix = layer.matricized_weight()
    assert matrix.shape == (5, 27)
    layer.set_matricized_weight(matrix * 2.0)
    assert np.allclose(layer.matricized_weight(), matrix * 2.0)
    with pytest.raises(ShapeError):
        layer.set_matricized_weight(np.zeros((5, 5)))


def test_spectral_conv_effective_weight_norm(rng):
    layer = SpectralConv2d(3, 6, 3, rng=rng, alpha_init=0.9)
    sigma = np.linalg.svd(layer.effective_weight(), compute_uv=False)[0]
    assert np.isclose(sigma, 0.9, rtol=1e-5)


def test_spectral_conv_gradients(rng):
    model = _to_float64(
        Sequential(
            SpectralConv2d(2, 3, 3, padding=1, rng=rng),
            Tanh(),
            GlobalAvgPool2d(),
            Linear(3, 2, rng=rng),
        )
    )
    x = rng.standard_normal((3, 2, 6, 6))
    target = rng.standard_normal((3, 2))
    _numeric_gradient_check(model, x, MSELoss(), target, rng, tol=5e-2)


# -- Pooling ------------------------------------------------------------------


def test_maxpool_values(rng):
    pool = MaxPool2d(2)
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    out = pool(x)
    assert np.array_equal(out[0, 0], [[5, 7], [13, 15]])


def test_maxpool_with_padding_handles_negatives():
    pool = MaxPool2d(3, stride=2, padding=1)
    x = -np.ones((1, 1, 4, 4))
    out = pool(x)
    # Padded cells must not win the max: output stays -1 everywhere.
    assert np.all(out == -1.0)


def test_maxpool_gradients(rng):
    model = _to_float64(Sequential(MaxPool2d(2), GlobalAvgPool2d(), Linear(2, 2)))
    x = rng.standard_normal((2, 2, 4, 4))
    target = rng.standard_normal((2, 2))
    _numeric_gradient_check(model, x, MSELoss(), target, rng)


def test_avgpool_values():
    pool = AvgPool2d(2)
    x = np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4)
    out = pool(x)
    assert np.array_equal(out[0, 0], [[2.5, 4.5], [10.5, 12.5]])


def test_global_avgpool(rng):
    x = rng.standard_normal((3, 5, 4, 4))
    out = GlobalAvgPool2d()(x)
    assert out.shape == (3, 5)
    assert np.allclose(out, x.mean(axis=(2, 3)))


def test_flatten_roundtrip(rng):
    layer = Flatten()
    x = rng.standard_normal((4, 3, 2, 2))
    out = layer(x)
    assert out.shape == (4, 12)
    grad = layer.backward(out)
    assert grad.shape == x.shape


def test_pooling_rejects_non_4d():
    with pytest.raises(ShapeError):
        MaxPool2d(2)(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        GlobalAvgPool2d()(np.zeros((3, 4)))


# -- BatchNorm ----------------------------------------------------------------


def test_batchnorm_normalizes_in_training(rng):
    bn = BatchNorm2d(3)
    x = rng.standard_normal((8, 3, 5, 5)) * 4.0 + 2.0
    out = bn(x)
    assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=1e-6)
    assert np.allclose(out.std(axis=(0, 2, 3)), 1.0, atol=1e-2)


def test_batchnorm_eval_uses_running_stats(rng):
    bn = BatchNorm2d(3)
    x = rng.standard_normal((16, 3, 5, 5)) * 2.0 + 1.0
    for __ in range(30):
        bn(x)
    bn.eval()
    out = bn(x)
    assert np.allclose(out.mean(axis=(0, 2, 3)), 0.0, atol=0.05)


def test_batchnorm_gradients(rng):
    model = _to_float64(
        Sequential(Conv2d(2, 3, 3, padding=1, rng=rng), BatchNorm2d(3), GlobalAvgPool2d(), Linear(3, 2, rng=rng))
    )
    x = rng.standard_normal((4, 2, 5, 5))
    target = rng.standard_normal((4, 2))
    _numeric_gradient_check(model, x, MSELoss(), target, rng)
