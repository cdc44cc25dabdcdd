"""Property tests on structural invariants of the bound machinery."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ErrorFlowAnalyzer, sigma_tilde
from repro.nn import Identity, Linear, Sequential, SpectralLinear, Tanh
from repro.nn.spectral import spectral_norm_exact
from repro.quant import BF16, FP16, INT8

from .oracles.bound_reference import mlp_combined_bound


@given(
    sigmas=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=5),
    q_scale=st.floats(1e-6, 1e-1),
    dx=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_bound_monotone_in_steps(sigmas, q_scale, dx):
    """Larger quantization steps can only increase the bound."""
    n = len(sigmas)
    dims = [8] * (n + 1)
    small = [q_scale * 0.5] * n
    large = [q_scale] * n
    assert mlp_combined_bound(sigmas, small, dims, dx) <= mlp_combined_bound(
        sigmas, large, dims, dx
    ) + 1e-12


@given(
    sigmas=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=5),
    q=st.floats(0.0, 1e-2),
    dx=st.floats(0.0, 1.0),
    index=st.integers(0, 4),
)
@settings(max_examples=60, deadline=None)
def test_bound_monotone_in_sigma(sigmas, q, dx, index):
    """Inflating any layer's spectral norm can only increase the bound."""
    n = len(sigmas)
    dims = [8] * (n + 1)
    steps = [q] * n
    inflated = list(sigmas)
    inflated[index % n] *= 1.5
    assert mlp_combined_bound(sigmas, steps, dims, dx) <= mlp_combined_bound(
        inflated, steps, dims, dx
    ) + 1e-12


@given(seed=st.integers(0, 2**31 - 1), fmt_index=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
@example(seed=1353085, fmt_index=0)  # 2x16 fp16: CLT term undershoots by 1.6e-5
@example(seed=14374, fmt_index=1)  # 2x12 bf16: worst observed ratio, 1.00076
@example(seed=13129, fmt_index=0)  # 30x2 fp16: worst observed increment ratio
def test_sigma_tilde_covers_actual_quantized_sigma(seed, fmt_index):
    """sigma~ must cover the actually-quantized spectral norm.

    Two-part contract (see the README caveat): the triangle inequality
    gives a hard almost-sure cover via the realized perturbation's
    Frobenius norm, while sigma~ itself is the paper's CLT concentration
    estimate — tiny layers can exceed it *slightly* (worst observed over
    60k random cases: 0.08% of the total norm), which is exactly why
    ``ErrorFlowAnalyzer`` offers a ``quant_safety`` margin.  We assert
    the hard cover exactly and the statistical estimate within 1%.
    """
    rng = np.random.default_rng(seed)
    rows, cols = int(rng.integers(2, 40)), int(rng.integers(2, 40))
    weights = rng.standard_normal((rows, cols)) * rng.uniform(0.05, 3.0)
    fmt = (FP16, BF16, INT8)[fmt_index]
    from repro.quant import average_step_size

    q = average_step_size(weights, fmt)
    quantized = fmt.quantize(weights)
    sigma = spectral_norm_exact(weights)
    actual = spectral_norm_exact(quantized)
    hard_cover = sigma + float(np.linalg.norm(quantized - weights))
    assert actual <= hard_cover * (1 + 1e-9)
    predicted = sigma_tilde(sigma, q, cols, rows)
    assert actual <= predicted * 1.01


@given(
    seed=st.integers(0, 2**31 - 1),
    n_in=st.integers(4, 32),
    n_out=st.integers(4, 32),
    gap=st.floats(5e-4, 1e-2),
)
@settings(max_examples=40, deadline=None)
def test_compression_bound_covers_a_psn_layer_with_a_clustered_spectrum(
    seed, n_in, n_out, gap
):
    """Eq. (5) is an operator-norm bound, so the deployed matrix's own top
    right singular vector must not exceed it.  PSN's raw spectrum clusters
    (s2/s1 >= 0.99 here), which stops the power iteration early: the
    deployed alpha * V / sigma_hat then has norm above alpha, so the bound
    must charge that norm, not alpha.  The slack covers float32 forward
    rounding."""
    rng = np.random.default_rng(seed)
    k = min(n_in, n_out)
    ratio = 1.0 - gap
    tail = np.sort(rng.uniform(0.1, 0.9, size=k - 2))[::-1] * ratio
    spectrum = np.concatenate([[1.0, ratio], tail]) * rng.uniform(0.5, 3.0)
    u, __ = np.linalg.qr(rng.standard_normal((n_out, k)))
    v, __ = np.linalg.qr(rng.standard_normal((n_in, k)))
    layer = SpectralLinear(n_in, n_out, rng=rng, alpha_init=float(rng.uniform(0.5, 2.0)))
    layer.raw_weight.data = ((u * spectrum) @ v.T).astype(np.float32)
    model = Sequential(layer).eval()

    direction = np.linalg.svd(layer.effective_weight())[2][0]
    dx = (direction * 1e-2).astype(np.float32)
    observed = np.linalg.norm(model(dx[None, :]) - model(np.zeros((1, n_in), np.float32)))
    bound = ErrorFlowAnalyzer(model).compression_bound(float(np.linalg.norm(dx)))
    assert observed <= bound * (1 + 1e-6)


def test_quant_safety_scales_linearly(trained_spectral_mlp):
    base = ErrorFlowAnalyzer(trained_spectral_mlp)
    doubled = ErrorFlowAnalyzer(trained_spectral_mlp, quant_safety=2.0)
    # the first-order term doubles; the sigma~ cross terms make the total
    # slightly superlinear but still below the naive square
    ratio = doubled.quantization_bound(FP16) / base.quantization_bound(FP16)
    assert 2.0 <= ratio < 2.2


def test_bound_additivity_structure(trained_spectral_mlp):
    """Eq. (3) = compression term + quantization term, exactly."""
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    for dx in (1e-4, 1e-2):
        combined = analyzer.combined_bound(dx, FP16)
        separate = analyzer.compression_bound(dx) + analyzer.quantization_bound(FP16)
        assert combined == pytest.approx(separate, rel=1e-9)


def test_deeper_network_larger_quant_bound(rng):
    """Each appended layer adds a non-negative quantization term."""
    previous = 0.0
    layers: list = []
    for depth in range(1, 5):
        layers.extend([Linear(8, 8, rng=rng), Tanh()])
        model = Sequential(*layers[:-1], Identity())
        bound = ErrorFlowAnalyzer(model).quantization_bound(FP16)
        assert bound > previous * 0.99
        previous = bound
