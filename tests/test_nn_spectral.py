"""Tests for spectral-norm estimation and parameterized spectral norm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import conv as conv_module
from repro.nn import linear as linear_module
from repro.nn import PowerIterationState, Sequential, spectral_norm, spectral_norm_exact
from repro.nn.backend.lowering import lower
from repro.nn.conv import SpectralConv2d
from repro.nn.linear import SpectralLinear


@given(
    rows=st.integers(1, 12),
    cols=st.integers(1, 12),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=60, deadline=None)
def test_power_iteration_matches_svd(rows, cols, seed):
    """Power iteration against the SVD, to the accuracy its spectral gap
    allows.  After k steps from a start at angle theta0 to the top right
    singular vector the squared estimate is a mean of the s_i^2 weighted
    by c_i^2 s_i^(4k-2), so it trails s1 by at most a relative
    tan^2(theta0) * (s2/s1)^(4k-2): nothing at a healthy gap, and more
    than any fixed rtol when s2/s1 is within 1e-3 of one."""
    n_iterations = 500
    rng = np.random.default_rng(seed)
    matrix = rng.standard_normal((rows, cols))
    estimate = spectral_norm(
        matrix, n_iterations=n_iterations, tol=1e-12, rng=np.random.default_rng(0)
    )
    exact = spectral_norm_exact(matrix)
    singular = np.linalg.svd(matrix, compute_uv=False)  # what `exact` is the head of
    assert exact == singular[0]
    right = np.linalg.svd(matrix)[2]
    ratio = singular[1] / singular[0] if len(singular) > 1 else 0.0
    start = np.random.default_rng(0).standard_normal(cols)
    cos2 = float(right[0] @ start) ** 2 / float(start @ start)
    tan2 = (1.0 - cos2) / cos2 if cos2 > 0.0 else np.inf
    gap_rtol = min(1.0, tan2 * ratio ** (4 * n_iterations - 2))
    assert estimate <= exact * (1 + 1e-12)  # a Rayleigh quotient never overshoots
    assert np.isclose(estimate, exact, rtol=1e-5 + gap_rtol, atol=1e-9)


def test_spectral_norm_zero_matrix():
    assert spectral_norm(np.zeros((4, 4))) == 0.0
    assert spectral_norm_exact(np.zeros((4, 4))) == 0.0


def test_spectral_norm_empty_matrix():
    assert spectral_norm(np.zeros((0, 3))) == 0.0


def test_spectral_norm_rejects_non_2d():
    with pytest.raises(ValueError):
        spectral_norm(np.zeros((2, 2, 2)))


def test_spectral_norm_rank_one():
    u = np.array([3.0, 4.0])
    v = np.array([1.0, 0.0, 0.0])
    matrix = np.outer(u, v)
    assert np.isclose(spectral_norm(matrix), 5.0, rtol=1e-8)


def test_power_iteration_state_tracks_sigma(rng):
    matrix = rng.standard_normal((8, 8))
    state = PowerIterationState.for_matrix(matrix, rng)
    sigma = state.step(matrix, n_steps=300)
    assert np.isclose(sigma, spectral_norm_exact(matrix), rtol=1e-6)


def test_power_iteration_zero_matrix(rng):
    state = PowerIterationState.for_matrix(np.ones((3, 3)), rng)
    assert state.step(np.zeros((3, 3))) == 0.0


def test_spectral_linear_alpha_is_exact_spectral_norm(rng):
    for alpha in (0.5, 1.0, 2.5):
        layer = SpectralLinear(16, 12, rng=rng, alpha_init=alpha)
        sigma = spectral_norm_exact(layer.effective_weight())
        assert np.isclose(sigma, alpha, rtol=1e-6)


def test_spectral_linear_invariant_survives_training(trained_spectral_mlp):
    """After real training, sigma(W_eff) == alpha for every PSN layer."""
    for layer in trained_spectral_mlp:
        if isinstance(layer, SpectralLinear):
            sigma = spectral_norm_exact(layer.effective_weight())
            assert np.isclose(sigma, layer.spectral_alpha, rtol=1e-5)


@pytest.mark.parametrize(
    "module, make",
    [
        (linear_module, lambda rng: SpectralLinear(16, 12, rng=rng)),
        (conv_module, lambda rng: SpectralConv2d(3, 4, 3, padding=1, rng=rng)),
    ],
    ids=["linear", "conv"],
)
def test_psn_effective_weight_is_the_lowered_one_normalized_once_per_version(
    rng, monkeypatch, module, make
):
    """effective_weight(), in either mode, reads the eval forward's cached
    sigma_hat: the bytes the lowering binds, one power iteration per
    weight version."""
    layer = make(rng)
    calls = []
    real = module.spectral_norm
    monkeypatch.setattr(module, "spectral_norm", lambda m: calls.append(m) or real(m))
    raw = layer.raw_weight if isinstance(layer, SpectralLinear) else layer.weight

    effective = layer.train().effective_weight()
    assert layer.eval().effective_weight().tobytes() == effective.tobytes()
    op = lower(Sequential(layer)).ops[0]
    lowered = op.weight_t.T if op.kind == "linear" else op.weight
    assert lowered.dtype == effective.dtype
    assert lowered.tobytes() == effective.tobytes()
    assert len(calls) == 1

    raw.data = raw.data * 1.5
    layer.effective_weight()
    layer.train().effective_weight()
    assert len(calls) == 2
