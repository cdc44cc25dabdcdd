"""Tests for numeric format emulation and Table I step sizes."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.exceptions import QuantizationError
from repro.quant import (
    BF16,
    FP16,
    FP32,
    INT8,
    TF32,
    FloatFormat,
    IntFormat,
    average_step_size,
)
from repro.quant.stepsize import elementwise_step_size

_FLOAT_FORMATS = (TF32, FP16, BF16)

finite_arrays = npst.arrays(
    dtype=np.float64,
    shape=npst.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=24),
    elements=st.floats(-1e4, 1e4, allow_nan=False, width=64),
)


@given(values=finite_arrays)
@settings(max_examples=80, deadline=None)
def test_fp16_emulation_matches_numpy_float16(values):
    ours = FP16.quantize(values)
    reference = values.astype(np.float16).astype(np.float64)
    assert np.array_equal(ours, reference)


@pytest.mark.parametrize("fmt", _FLOAT_FORMATS, ids=lambda f: f.name)
@given(values=finite_arrays)
@settings(max_examples=40, deadline=None)
def test_float_quantization_idempotent(fmt, values):
    once = fmt.quantize(values)
    twice = fmt.quantize(once)
    assert np.array_equal(once, twice)


@pytest.mark.parametrize("fmt", _FLOAT_FORMATS, ids=lambda f: f.name)
@given(values=finite_arrays)
@settings(max_examples=40, deadline=None)
def test_float_rounding_error_below_step(fmt, values):
    quantized = fmt.quantize(values)
    steps = elementwise_step_size(values, fmt)
    # round-to-nearest: error at most half the local step
    assert np.all(np.abs(quantized - values) <= steps / 2 + 1e-300)


def test_fp32_is_identity_on_float32(rng):
    values = rng.standard_normal(100).astype(np.float32).astype(np.float64)
    assert np.array_equal(FP32.quantize(values), values)
    assert FP32.is_identity


def test_tf32_fp16_same_mantissa():
    # Paper Section IV-B.2: TF32 and FP16 share 10 mantissa bits, hence
    # nearly identical error bounds.
    assert TF32.mantissa_bits == FP16.mantissa_bits == 10
    assert BF16.mantissa_bits == 7


def test_fp16_saturates_at_max():
    assert FP16.quantize(np.array([1e6]))[0] == pytest.approx(65504.0)
    assert FP16.quantize(np.array([-1e6]))[0] == pytest.approx(-65504.0)


def test_fp16_subnormal_grid():
    # below 2^-14 the grid pitch is fixed at 2^-24
    tiny = np.array([2.0**-20])
    quantized = FP16.quantize(tiny)
    assert quantized[0] % 2.0**-24 == 0.0


def test_zero_preserved():
    for fmt in (*_FLOAT_FORMATS, INT8):
        assert fmt.quantize(np.zeros(5)).tolist() == [0.0] * 5


def test_int8_error_within_half_step(rng):
    values = rng.standard_normal(500) * 3.0
    quantized = INT8.quantize(values)
    step = (values.max() - values.min()) / 255
    assert np.max(np.abs(quantized - values)) <= step / 2 + 1e-12


def test_int8_constant_tensor_unchanged():
    values = np.full(10, 3.7)
    assert np.array_equal(INT8.quantize(values), values)


def test_degenerate_formats_rejected():
    with pytest.raises(QuantizationError):
        FloatFormat(name="bad", storage_bits=8, exponent_bits=1, mantissa_bits=4)
    with pytest.raises(QuantizationError):
        IntFormat(name="bad", storage_bits=1, bits=1)


def test_memory_ratio():
    assert FP16.memory_ratio() == 0.5
    assert INT8.memory_ratio() == 0.25
    assert TF32.memory_ratio() == pytest.approx(19 / 32)


# -- Table I step sizes ---------------------------------------------------------


def test_step_size_single_binade():
    # all weights in [1, 2): floor(log2|w|) = 0 everywhere
    weights = np.array([1.0, 1.25, 1.5, 1.9])
    assert average_step_size(weights, FP16) == pytest.approx(2.0**-10)
    assert average_step_size(weights, BF16) == pytest.approx(2.0**-7)
    assert average_step_size(weights, TF32) == pytest.approx(2.0**-10)


def test_step_size_is_rms_across_binades():
    weights = np.array([1.0, 2.0])  # binades 0 and 1
    expected = 2.0**-10 * np.sqrt((1.0 + 4.0) / 2.0)
    assert average_step_size(weights, FP16) == pytest.approx(expected)


def test_step_size_int8_formula(rng):
    weights = rng.standard_normal(64)
    expected = (weights.max() - weights.min()) / 256
    assert average_step_size(weights, INT8) == pytest.approx(expected)


def test_step_size_fp16_clamps_exponent():
    weights = np.array([2.0**-30])  # below the FP16 normal range
    expected = 2.0 ** (-14 - 10)
    assert average_step_size(weights, FP16) == pytest.approx(expected)
    # TF32 keeps the float32 exponent range: no clamp at -14
    assert average_step_size(weights, TF32) == pytest.approx(2.0 ** (-30 - 10))


def test_step_size_scales_with_weights(rng):
    weights = rng.standard_normal(128)
    small = average_step_size(weights * 0.25, FP16)
    large = average_step_size(weights, FP16)
    assert small == pytest.approx(large / 4.0)


def test_step_size_empty_and_zero():
    assert average_step_size(np.array([]), FP16) == 0.0
    assert average_step_size(np.zeros(8), FP16) == 0.0


def test_elementwise_step_unknown_format():
    class Weird:
        pass

    with pytest.raises(QuantizationError):
        elementwise_step_size(np.ones(3), Weird())
