"""Tests for data-driven signal calibration of the bounds."""

import numpy as np
import pytest

from repro.core import ErrorFlowAnalyzer
from repro.core.calibration import collect_signal_norms
from repro.exceptions import ConfigurationError
from repro.nn import GlobalAvgPool2d, Linear, Sequential
from repro.quant import FP16, INT8, materialize, quantize_model


def test_collect_signal_norms_counts_layers(trained_spectral_mlp, rng):
    inputs = rng.uniform(-1, 1, (32, 5)).astype(np.float32)
    norms = collect_signal_norms(trained_spectral_mlp, inputs)
    assert len(norms) == 3
    assert all(norm > 0 for norm in norms)


def test_collect_signal_norms_first_is_input_norm(trained_spectral_mlp, rng):
    inputs = rng.uniform(-1, 1, (32, 5)).astype(np.float32)
    norms = collect_signal_norms(trained_spectral_mlp, inputs, margin=1.0)
    expected = float(np.linalg.norm(inputs, axis=1).max())
    assert norms[0] == pytest.approx(expected, rel=1e-6)


def test_collect_signal_norms_residual_model(rng):
    from repro.nn import BasicBlock

    model = Sequential(
        BasicBlock(3, 6, stride=2, rng=rng), GlobalAvgPool2d(), Linear(6, 2, rng=rng)
    )
    model.train()
    model(rng.standard_normal((4, 3, 8, 8)).astype(np.float32))
    model.eval()
    inputs = rng.standard_normal((4, 3, 8, 8)).astype(np.float32)
    norms = collect_signal_norms(model, inputs)
    analyzer = ErrorFlowAnalyzer(model, (3, 8, 8))
    assert len(norms) == len(analyzer.spec.linear_specs())


def test_collect_signal_norms_validation(rng):
    with pytest.raises(ConfigurationError):
        collect_signal_norms(Linear(3, 3, rng=rng), np.zeros((2, 3)))
    model = Sequential(Linear(3, 3, rng=rng))
    with pytest.raises(ConfigurationError):
        collect_signal_norms(model, np.zeros((2, 3), dtype=np.float32), margin=0.5)


def test_calibration_tightens_quantization_bound(trained_spectral_mlp, rng):
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    paper = analyzer.quantization_bound(INT8)
    inputs = rng.uniform(-1, 1, (256, 5)).astype(np.float32)
    analyzer.calibrate(inputs)
    assert analyzer.is_calibrated
    calibrated = analyzer.quantization_bound(INT8)
    assert calibrated < paper
    analyzer.decalibrate()
    assert analyzer.quantization_bound(INT8) == pytest.approx(paper)


def test_calibrated_bound_still_covers_achieved(trained_spectral_mlp, rng):
    """Calibration tightens but must not undercut the measured error."""
    model = trained_spectral_mlp
    model.eval()
    inputs = rng.uniform(-1, 1, (512, 5)).astype(np.float32)
    analyzer = ErrorFlowAnalyzer(model).calibrate(inputs)
    for fmt in (FP16, INT8):
        quantized = quantize_model(model, fmt)
        reference = materialize(model)(inputs)
        achieved = np.linalg.norm(quantized(inputs) - reference, axis=1).max()
        assert achieved <= analyzer.quantization_bound(fmt)


def test_calibration_does_not_touch_compression_gain(trained_spectral_mlp, rng):
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    gain = analyzer.gain()
    analyzer.calibrate(rng.uniform(-1, 1, (64, 5)).astype(np.float32))
    assert analyzer.gain() == pytest.approx(gain)
    assert analyzer.compression_bound(1e-3) == pytest.approx(gain * 1e-3)
