"""Tests for activation quantization (paper Section III-B remark)."""

import numpy as np
import pytest

from repro.core import ErrorFlowAnalyzer
from repro.exceptions import QuantizationError, ToleranceError
from repro.nn import GlobalAvgPool2d, Linear, Sequential
from repro.quant import BF16, FP16, FP32, INT8
from repro.quant.activations import QuantizedActivationModel, activation_rounding_bound


def test_rounding_bound_float_formats():
    # activations bounded by 1.0 -> worst-case ulp at binade 0
    bound = activation_rounding_bound(FP16, 1.0, 100)
    expected = 2.0 ** (0 - 10) / 2 * 10.0
    assert bound == pytest.approx(expected)
    # BF16: 3 fewer mantissa bits -> 8x larger
    assert activation_rounding_bound(BF16, 1.0, 100) == pytest.approx(8 * bound)


def test_rounding_bound_int8():
    bound = activation_rounding_bound(INT8, 1.0, 64)
    expected = (2.0 / 256) / 2 * 8.0
    assert bound == pytest.approx(expected)


def test_rounding_bound_identity_and_zero():
    assert activation_rounding_bound(FP32, 1.0, 10) == 0.0
    assert activation_rounding_bound(FP16, 0.0, 10) == 0.0


def test_rounding_bound_validation():
    with pytest.raises(QuantizationError):
        activation_rounding_bound(FP16, -1.0, 10)


def test_quantized_activation_model_changes_outputs(trained_spectral_mlp, rng):
    x = rng.uniform(-1, 1, (32, 5)).astype(np.float32)
    trained_spectral_mlp.eval()
    reference = trained_spectral_mlp(x)
    wrapped = QuantizedActivationModel(trained_spectral_mlp, INT8)
    outputs = wrapped(x)
    assert outputs.shape == reference.shape
    assert not np.array_equal(outputs, reference)


def test_quantized_activation_model_fp32_is_identity(trained_spectral_mlp, rng):
    x = rng.uniform(-1, 1, (16, 5)).astype(np.float32)
    trained_spectral_mlp.eval()
    wrapped = QuantizedActivationModel(trained_spectral_mlp, FP32)
    assert np.allclose(wrapped(x), trained_spectral_mlp(x))


def test_quantized_activation_model_validation(trained_spectral_mlp, rng):
    with pytest.raises(QuantizationError):
        QuantizedActivationModel(Linear(3, 3, rng=rng), FP16)
    with pytest.raises(QuantizationError):
        QuantizedActivationModel(trained_spectral_mlp, FP16, after_layers=[99])


@pytest.mark.parametrize("fmt", [FP16, BF16, INT8], ids=lambda f: f.name)
def test_activation_bound_covers_achieved(trained_spectral_mlp, fmt, rng):
    """The Section III-B amplification rule covers real activation rounding."""
    model = trained_spectral_mlp
    model.eval()
    analyzer = ErrorFlowAnalyzer(model)
    x = rng.uniform(-1, 1, (128, 5)).astype(np.float32)
    reference = model(x)
    wrapped = QuantizedActivationModel(model, fmt)
    achieved = np.linalg.norm(wrapped(x) - reference, axis=1).max()
    # Tanh keeps activations within [-1, 1]
    bound = analyzer.activation_quantization_bound(fmt, activation_linf=1.0)
    assert achieved <= bound


def test_activation_bound_rejects_residual_specs(rng):
    from repro.nn import BasicBlock

    model = Sequential(
        BasicBlock(3, 3, rng=rng), GlobalAvgPool2d(), Linear(3, 2, rng=rng)
    )
    analyzer = ErrorFlowAnalyzer(model, (3, 16, 16))
    with pytest.raises(ToleranceError):
        analyzer.activation_quantization_bound(FP16)


def test_activation_bound_ordering(trained_spectral_mlp):
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    fp16 = analyzer.activation_quantization_bound(FP16)
    bf16 = analyzer.activation_quantization_bound(BF16)
    int8 = analyzer.activation_quantization_bound(INT8)
    # For activations in [-1, 1], BF16's ulp at binade 0 (2^-7) nearly
    # coincides with INT8's grid pitch (2/256); both dwarf FP16.
    assert 0 < fp16 < bf16
    assert fp16 < int8
    assert int8 == pytest.approx(bf16, rel=0.05)
