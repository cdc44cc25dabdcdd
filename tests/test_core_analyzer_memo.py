"""Tests for the analyzer's own memo: parameter versions, one exact SVD per
layer and one step size per (layer, format) per weight version, and the
refresh, calibration and decalibration that empty it."""

import numpy as np
import pytest

from repro.core import bounds, errorflow, graph
from repro.core.errorflow import ErrorFlowAnalyzer
from repro.core.planner import TolerancePlanner
from repro.nn import SGD, Linear, Sequential, Tanh
from repro.quant.formats import STANDARD_FORMATS


def _plain_mlp(rng):
    return Sequential(
        Linear(6, 16, rng=rng), Tanh(), Linear(16, 16, rng=rng), Tanh(),
        Linear(16, 3, rng=rng),
    )


def _spy(monkeypatch, module, name):
    """Record the arguments of every call of ``module.name``."""
    calls = []
    real = getattr(module, name)

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return calls


def _sgd_step(model, rng, lr):
    x = rng.standard_normal((8, 6)).astype(np.float32)
    model.train()  # eval forwards keep no backward state
    out = model(x)
    model.backward(np.ones_like(out))
    SGD(list(model.parameters()), lr=lr).step()
    model.eval()


# -- parameter versioning ----------------------------------------------------------


def test_weight_version_counts_assignments(rng):
    model = _plain_mlp(rng)
    v0 = model.weight_version()
    params = list(model.parameters())
    params[0].data = params[0].data * 1.0
    assert model.weight_version() == v0 + 1
    params[1].bump_version()
    assert model.weight_version() == v0 + 2


def test_optimizer_step_bumps_versions(rng):
    model = _plain_mlp(rng)
    v0 = model.weight_version()
    x = rng.standard_normal((4, 6)).astype(np.float32)
    out = model(x)
    model.backward(np.ones_like(out))
    SGD(model.parameters(), lr=0.01).step()
    assert model.weight_version() > v0


# -- the analyzer memo ---------------------------------------------------------------


def test_planner_sweep_one_svd_and_step_per_layer_per_version(rng, monkeypatch):
    """A format x fraction sweep makes one exact SVD per layer and one
    rounding pass per (layer, format), per weight version."""
    svds = _spy(monkeypatch, graph, "spectral_norm_exact")
    rounds = _spy(monkeypatch, bounds, "average_step_size")
    model = _plain_mlp(rng).eval()
    n_layers = 3
    formats = [STANDARD_FORMATS[name] for name in ("tf32", "fp16", "bf16", "int8")]

    def sweep(analyzer):
        planner = TolerancePlanner(analyzer)
        for fraction in (0.2, 0.4, 0.6, 0.8):
            planner.plan(1e-2, norm="linf", quant_fraction=fraction)
        for fmt in formats:
            analyzer.quantization_bound(fmt)
            analyzer.combined_bound(1e-3, fmt)
            analyzer.gain()

    def assert_once_each():
        assert len(svds) == n_layers
        pairs = [(id(weights), fmt) for weights, fmt in rounds]
        assert len(pairs) == len(set(pairs))
        assert {fmt for __, fmt in pairs} >= set(formats)
        assert len({weights for weights, __ in pairs}) == n_layers

    analyzer = ErrorFlowAnalyzer(model)
    sweep(analyzer)
    sweep(analyzer)
    assert_once_each()

    # a weight update starts a new version: the sweep pays once more
    svds.clear()
    rounds.clear()
    _sgd_step(model, rng, lr=0.05)
    sweep(analyzer)
    sweep(analyzer)
    assert_once_each()


def test_repeat_evaluation_propagates_once(rng, monkeypatch):
    model = _plain_mlp(rng)
    analyzer = ErrorFlowAnalyzer(model)
    fmt = STANDARD_FORMATS["int8"]
    walks = _spy(monkeypatch, errorflow, "propagate")
    gains = _spy(monkeypatch, errorflow, "compression_gain")
    for _ in range(5):
        analyzer.quantization_bound(fmt)
        analyzer.gain()
    assert len(walks) == 1 and len(gains) == 1


def test_analyzer_bounds_refresh_after_step(rng):
    model = _plain_mlp(rng)
    model.eval()
    analyzer = ErrorFlowAnalyzer(model)
    fmt = STANDARD_FORMATS["fp16"]
    before = analyzer.quantization_bound(fmt)
    gain_before = analyzer.gain()

    _sgd_step(model, rng, lr=0.5)  # large step: bounds must move

    after = analyzer.quantization_bound(fmt)
    assert after != before
    assert analyzer.gain() != gain_before
    # And the refreshed values are what a fresh analyzer computes.
    fresh = ErrorFlowAnalyzer(model)
    assert after == pytest.approx(fresh.quantization_bound(fmt), rel=1e-12)


def test_calibration_invalidates_bound_memo(rng):
    model = _plain_mlp(rng)
    model.eval()
    analyzer = ErrorFlowAnalyzer(model)
    fmt = STANDARD_FORMATS["fp16"]
    uncalibrated = analyzer.quantization_bound(fmt)
    analyzer.calibrate(rng.uniform(-1, 1, (64, 6)).astype(np.float32))
    calibrated = analyzer.quantization_bound(fmt)
    assert calibrated < uncalibrated  # tighter with measured signals
    analyzer.decalibrate()
    assert analyzer.quantization_bound(fmt) == pytest.approx(uncalibrated)
