"""Tests for losses, optimizers, trainer and residual blocks."""

import numpy as np
import pytest

from repro.exceptions import TrainingError
from repro.nn import (
    Adam,
    BasicBlock,
    CrossEntropyLoss,
    GlobalAvgPool2d,
    Identity,
    Linear,
    MSELoss,
    Parameter,
    ResidualBlock,
    SGD,
    Sequential,
    SpectralLinear,
    Tanh,
    Trainer,
    spectral_penalty,
    spectral_penalty_backward,
)


# -- losses ------------------------------------------------------------------


def test_mse_value_and_gradient(rng):
    loss = MSELoss()
    pred = np.array([[1.0, 2.0]])
    target = np.array([[0.0, 0.0]])
    assert np.isclose(loss(pred, target), 2.5)
    grad = loss.backward()
    assert np.allclose(grad, [[1.0, 2.0]])


def test_cross_entropy_matches_manual(rng):
    loss = CrossEntropyLoss()
    logits = rng.standard_normal((6, 4))
    labels = rng.integers(0, 4, size=6)
    value = loss(logits, labels)
    shifted = logits - logits.max(axis=1, keepdims=True)
    probs = np.exp(shifted) / np.exp(shifted).sum(axis=1, keepdims=True)
    manual = -np.mean(np.log(probs[np.arange(6), labels]))
    assert np.isclose(value, manual)


def test_cross_entropy_gradient_sums_to_zero(rng):
    loss = CrossEntropyLoss()
    logits = rng.standard_normal((5, 3))
    labels = rng.integers(0, 3, size=5)
    loss(logits, labels)
    grad = loss.backward()
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-12)


def test_spectral_penalty_sums_alpha_squared(rng):
    model = Sequential(
        SpectralLinear(3, 4, rng=rng, alpha_init=2.0),
        Tanh(),
        SpectralLinear(4, 2, rng=rng, alpha_init=3.0),
    )
    assert np.isclose(spectral_penalty(model, weight=0.1), 0.1 * (4.0 + 9.0))


def test_spectral_penalty_zero_for_plain_model(tiny_mlp):
    assert spectral_penalty(tiny_mlp, weight=1.0) == 0.0


def test_spectral_penalty_backward_accumulates(rng):
    model = Sequential(SpectralLinear(3, 3, rng=rng, alpha_init=2.0))
    model.zero_grad()
    spectral_penalty_backward(model, weight=0.5)
    assert np.isclose(model[0].alpha.grad[0], 2 * 0.5 * 2.0)


# -- optimizers ----------------------------------------------------------------


def _quadratic_descent(optimizer_factory, steps=150):
    param = Parameter(np.array([5.0, -3.0], dtype=np.float64))
    optimizer = optimizer_factory([param])
    for __ in range(steps):
        optimizer.zero_grad()
        param.grad += 2.0 * param.data  # d/dx ||x||^2
        optimizer.step()
    return np.linalg.norm(param.data)


def test_sgd_converges_on_quadratic():
    assert _quadratic_descent(lambda p: SGD(p, lr=0.1)) < 1e-6


def test_sgd_momentum_converges():
    assert _quadratic_descent(lambda p: SGD(p, lr=0.05, momentum=0.9), steps=400) < 1e-6


def test_adam_converges_on_quadratic():
    assert _quadratic_descent(lambda p: Adam(p, lr=0.3), steps=300) < 1e-4


def test_sgd_weight_decay_shrinks_params():
    param = Parameter(np.array([1.0]))
    optimizer = SGD([param], lr=0.1, weight_decay=1.0)
    optimizer.step()  # grad 0, decay pulls toward zero
    assert param.data[0] < 1.0


def test_optimizer_rejects_bad_lr():
    with pytest.raises(ValueError):
        SGD([Parameter(np.zeros(1))], lr=-1.0)
    with pytest.raises(ValueError):
        Adam([Parameter(np.zeros(1))], lr=0.0)


def test_optimizer_rejects_empty_params():
    with pytest.raises(ValueError):
        SGD([], lr=0.1)


def test_adam_rejects_bad_betas():
    with pytest.raises(ValueError):
        Adam([Parameter(np.zeros(1))], betas=(1.0, 0.9))


def test_optimizer_skips_frozen_params():
    frozen = Parameter(np.array([1.0]), requires_grad=False)
    optimizer = SGD([frozen], lr=0.5)
    frozen.grad += 10.0
    optimizer.step()
    assert frozen.data[0] == 1.0


# -- trainer ------------------------------------------------------------------


def test_trainer_reduces_loss(rng):
    model = Sequential(Linear(4, 16, rng=rng), Tanh(), Linear(16, 2, rng=rng), Identity())
    inputs = rng.uniform(-1, 1, (256, 4)).astype(np.float32)
    targets = np.tanh(inputs @ rng.standard_normal((4, 2))).astype(np.float32)
    trainer = Trainer(model, MSELoss(), SGD(model.parameters(), lr=0.05, momentum=0.9))
    history = trainer.fit(inputs, targets, epochs=20, batch_size=32, rng=rng)
    assert history.train_loss[-1] < history.train_loss[0] * 0.5
    assert history.epochs == 20


def test_trainer_rejects_mismatched_data(rng, tiny_mlp):
    trainer = Trainer(tiny_mlp, MSELoss(), SGD(tiny_mlp.parameters(), lr=0.1))
    with pytest.raises(TrainingError):
        trainer.fit(np.zeros((4, 6)), np.zeros((5, 4)), epochs=1, batch_size=2)


def test_trainer_rejects_bad_epochs(rng, tiny_mlp):
    trainer = Trainer(tiny_mlp, MSELoss(), SGD(tiny_mlp.parameters(), lr=0.1))
    with pytest.raises(TrainingError):
        trainer.fit(np.zeros((4, 6)), np.zeros((4, 4)), epochs=0, batch_size=2)


# -- residual blocks ----------------------------------------------------------


def test_identity_residual_adds_input(rng):
    body = Sequential(Linear(4, 4, rng=rng))
    block = ResidualBlock(body)
    x = rng.standard_normal((3, 4)).astype(np.float32)
    expected = body(x) + x
    assert np.allclose(block(x), expected)


def test_projection_residual_changes_shape(rng):
    block = BasicBlock(3, 8, stride=2, rng=rng)
    out = block(rng.standard_normal((2, 3, 8, 8)).astype(np.float32))
    assert out.shape == (2, 8, 4, 4)
    assert block.has_projection


def test_same_shape_block_uses_identity_skip(rng):
    block = BasicBlock(4, 4, stride=1, rng=rng)
    assert not block.has_projection


def test_spectral_block_has_no_batchnorm(rng):
    from repro.nn import BatchNorm2d

    block = BasicBlock(3, 8, stride=2, rng=rng, spectral=True)
    assert not any(isinstance(m, BatchNorm2d) for m in block.modules())
    plain = BasicBlock(3, 8, stride=2, rng=rng, spectral=False)
    assert any(isinstance(m, BatchNorm2d) for m in plain.modules())


def test_residual_backward_shape(rng):
    block = BasicBlock(3, 6, stride=2, rng=rng)
    x = rng.standard_normal((2, 3, 8, 8)).astype(np.float32)
    out = block(x)
    grad = block.backward(np.ones_like(out))
    assert grad.shape == x.shape
