"""Tests for affine quantization, model quantization and granular schemes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import QuantizationError
from repro.nn import Conv2d, GlobalAvgPool2d, Linear, ReLU, Sequential, SpectralLinear, Tanh
from repro.quant import (
    BF16,
    FP16,
    FP32,
    INT8,
    Granularity,
    calibrate_minmax,
    dequantize_affine,
    granular_quantize,
    materialize,
    quantizable_layers,
    quantize_affine,
    quantize_model,
)


# -- affine primitives --------------------------------------------------------


@given(seed=st.integers(0, 2**31 - 1), bits=st.integers(2, 8))
@settings(max_examples=40, deadline=None)
def test_affine_roundtrip_error_below_half_scale(seed, bits):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(200) * rng.uniform(0.1, 10.0)
    params = calibrate_minmax(values, bits=bits)
    reconstructed = dequantize_affine(quantize_affine(values, params), params)
    assert np.max(np.abs(reconstructed - values)) <= params.scale / 2 + 1e-9


def test_affine_codes_in_range(rng):
    values = rng.standard_normal(100)
    params = calibrate_minmax(values, bits=8)
    codes = quantize_affine(values, params)
    assert codes.min() >= 0 and codes.max() <= 255


def test_affine_rejects_empty():
    with pytest.raises(QuantizationError):
        calibrate_minmax(np.array([]))


def test_affine_constant_tensor():
    params = calibrate_minmax(np.full(5, 2.0))
    codes = quantize_affine(np.full(5, 2.0), params)
    assert np.allclose(dequantize_affine(codes, params), 2.0)


# -- materialization ------------------------------------------------------------


def test_materialize_preserves_outputs(trained_spectral_mlp, rng):
    frozen = materialize(trained_spectral_mlp)
    x = rng.uniform(-1, 1, (32, 5)).astype(np.float32)
    trained_spectral_mlp.eval()
    assert np.allclose(frozen(x), trained_spectral_mlp(x), atol=1e-5)


def test_materialize_lowers_spectral_layers(trained_spectral_mlp):
    frozen = materialize(trained_spectral_mlp)
    assert not any(isinstance(m, SpectralLinear) for m in frozen.modules())


def test_materialize_is_independent_copy(trained_spectral_mlp):
    frozen = materialize(trained_spectral_mlp)
    __, layer = quantizable_layers(frozen)[0]
    layer.weight.data[...] = 0.0
    # original model unaffected
    first = next(iter(trained_spectral_mlp))
    assert np.any(first.effective_weight() != 0.0)


# -- model quantization -----------------------------------------------------------


def test_quantize_model_reduces_memory(trained_spectral_mlp):
    quantized = quantize_model(trained_spectral_mlp, FP16)
    assert quantized.compression_of_weights == pytest.approx(2.0)
    quantized8 = quantize_model(trained_spectral_mlp, INT8)
    assert quantized8.compression_of_weights == pytest.approx(4.0)


def test_quantize_model_fp32_is_lossless(trained_spectral_mlp, rng):
    quantized = quantize_model(trained_spectral_mlp, FP32)
    x = rng.uniform(-1, 1, (16, 5)).astype(np.float32)
    assert np.allclose(quantized(x), materialize(trained_spectral_mlp)(x))
    assert all(step == 0.0 for step in quantized.step_sizes)


def test_quantize_model_output_close_for_fp16(trained_spectral_mlp, rng):
    quantized = quantize_model(trained_spectral_mlp, FP16)
    x = rng.uniform(-1, 1, (64, 5)).astype(np.float32)
    reference = materialize(trained_spectral_mlp)(x)
    delta = np.linalg.norm(quantized(x) - reference)
    assert 0 < delta < 1e-2 * np.linalg.norm(reference) + 1e-6


def test_quantize_model_mixed_formats(trained_spectral_mlp):
    quantized = quantize_model(trained_spectral_mlp, [FP16, INT8, BF16])
    assert [fmt.name for fmt in quantized.formats] == ["fp16", "int8", "bf16"]


def test_quantize_model_wrong_format_count(trained_spectral_mlp):
    with pytest.raises(QuantizationError):
        quantize_model(trained_spectral_mlp, [FP16])


def test_quantize_model_without_layers():
    with pytest.raises(QuantizationError):
        quantize_model(Sequential(ReLU()), FP16)


def test_quantized_model_describe(trained_spectral_mlp):
    quantized = quantize_model(trained_spectral_mlp, FP16)
    text = quantized.describe()
    assert "fp16" in text
    assert len(text.splitlines()) == 4  # header + 3 layers


def test_quantizable_layers_order(rng):
    model = Sequential(
        Conv2d(3, 4, 3, rng=rng), ReLU(), GlobalAvgPool2d(), Linear(4, 2, rng=rng)
    )
    names = [name for name, __ in quantizable_layers(model)]
    assert names == ["0", "3"]


# -- granular quantization ----------------------------------------------------------


def test_granular_per_row_tighter_than_per_tensor(rng):
    # rows with very different scales: per-row calibration must win
    matrix = rng.standard_normal((16, 32)) * np.logspace(-2, 1, 16)[:, None]
    per_tensor = granular_quantize(matrix, granularity=Granularity.PER_TENSOR)
    per_row = granular_quantize(matrix, granularity=Granularity.PER_ROW)
    assert per_row.step_rms < per_tensor.step_rms
    error_tensor = np.abs(per_tensor.reconstructed - matrix).max()
    error_row = np.abs(per_row.reconstructed - matrix).max()
    assert error_row <= error_tensor


def test_granular_block_group_count(rng):
    matrix = rng.standard_normal((64, 64))
    result = granular_quantize(matrix, granularity=Granularity.BLOCK, block_size=32)
    assert result.n_groups == 4


def test_granular_per_column(rng):
    matrix = rng.standard_normal((8, 6))
    result = granular_quantize(matrix, granularity=Granularity.PER_COLUMN)
    assert result.n_groups == 6


def test_granular_rejects_non_2d():
    with pytest.raises(QuantizationError):
        granular_quantize(np.zeros(8))


def test_granular_rejects_bad_block_size(rng):
    with pytest.raises(QuantizationError):
        granular_quantize(np.zeros((4, 4)), granularity=Granularity.BLOCK, block_size=0)


def test_granular_reconstruction_error_bounded(rng):
    matrix = rng.standard_normal((10, 10))
    result = granular_quantize(matrix, bits=8, granularity=Granularity.PER_TENSOR)
    scale = result.group_params[0].scale
    assert np.abs(result.reconstructed - matrix).max() <= scale / 2 + 1e-12
