"""Tests for the end-to-end inference pipeline and sensitivity probing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import ErrorBoundMode, MGARDCompressor, SZCompressor, ZFPCompressor
from repro.core import ErrorFlowAnalyzer, InferencePipeline, TolerancePlanner, probe_sensitivity


@pytest.fixture
def fields(rng):
    """A (5, 32, 32) normalized variable-plane field feeding the MLP."""
    x = np.linspace(0, 2 * np.pi, 32)
    xx, yy = np.meshgrid(x, x)
    planes = [np.sin((i + 1) * xx) * np.cos(yy) * 0.8 for i in range(5)]
    return np.stack(planes).astype(np.float32)


@pytest.fixture
def planner(trained_spectral_mlp):
    return TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp))


@pytest.mark.parametrize("codec_cls", [SZCompressor, ZFPCompressor, MGARDCompressor])
def test_pipeline_honours_linf_tolerance(codec_cls, trained_spectral_mlp, planner, fields):
    tolerance = 1e-2
    plan = planner.plan(tolerance, norm="linf", quant_fraction=0.5)
    pipeline = InferencePipeline(trained_spectral_mlp, codec_cls(), plan)
    result = pipeline.execute(fields)
    assert result.qoi_error("linf", relative=False) <= tolerance
    assert result.input_error_linf <= plan.input_tolerance
    assert result.compression_ratio > 1.0


@pytest.mark.parametrize("codec_cls", [SZCompressor, MGARDCompressor, ZFPCompressor])
def test_pipeline_honours_l2_tolerance(codec_cls, trained_spectral_mlp, planner, fields):
    """An L2 plan asks every codec, ZFP included, for the pointwise budget
    tau / sqrt(n_0), which holds each sample's L2 error within tau."""
    tolerance = 5e-2
    plan = planner.plan(tolerance, norm="l2", quant_fraction=0.5)
    pipeline = InferencePipeline(trained_spectral_mlp, codec_cls(), plan)
    result = pipeline.execute(fields)
    assert result.blob.mode is ErrorBoundMode.ABS
    assert result.blob.tolerance == plan.codec_tolerance
    assert result.input_error_linf <= plan.codec_tolerance
    assert result.input_error_l2_max <= plan.input_tolerance
    assert result.qoi_error("l2", relative=False) <= tolerance


@given(
    seed=st.integers(0, 2**31 - 1),
    codec_index=st.integers(0, 2),
    log_tolerance=st.floats(-3.0, -1.0),
    roughness=st.floats(0.0, 1.0),
)
@settings(max_examples=30, deadline=None)
def test_l2_plans_hold_every_sample_on_every_codec(
    trained_spectral_mlp, seed, codec_index, log_tolerance, roughness
):
    """Property: on random fields, an L2 plan's codec run keeps every
    sample's input error within the plan's per-sample budget, and the
    QoI's per-sample L2 error within the tolerance."""
    rng = np.random.default_rng(seed)
    x = np.linspace(0, 2 * np.pi, 24)
    xx, yy = np.meshgrid(x, x)
    phases = rng.uniform(0, 2 * np.pi, (5, 1, 1))
    smooth = np.sin(xx + phases) * np.cos(yy - phases)
    noise = rng.uniform(-1, 1, smooth.shape)
    fields = np.clip((1 - roughness) * smooth + roughness * noise, -1, 1).astype(np.float32)
    tolerance = 10.0**log_tolerance
    plan = TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp)).plan(tolerance, norm="l2")
    codec = (SZCompressor, ZFPCompressor, MGARDCompressor)[codec_index]()
    result = InferencePipeline(trained_spectral_mlp, codec, plan).execute(fields)
    assert result.input_error_l2_max <= plan.input_tolerance
    assert result.qoi_error("l2", relative=False) <= tolerance


def test_pipeline_records_timings(trained_spectral_mlp, planner, fields):
    plan = planner.plan(1e-2)
    pipeline = InferencePipeline(trained_spectral_mlp, SZCompressor(), plan)
    result = pipeline.execute(fields)
    assert result.compress_seconds > 0
    assert result.decompress_seconds > 0
    assert result.inference_seconds > 0


def test_pipeline_tighter_tolerance_lower_ratio(trained_spectral_mlp, planner, fields):
    loose = InferencePipeline(
        trained_spectral_mlp, SZCompressor(), planner.plan(3e-2)
    ).execute(fields)
    tight = InferencePipeline(
        trained_spectral_mlp, SZCompressor(), planner.plan(1e-4)
    ).execute(fields)
    assert loose.compression_ratio >= tight.compression_ratio
    assert loose.qoi_error("linf", relative=False) <= 3e-2
    assert tight.qoi_error("linf", relative=False) <= 1e-4


def test_pipeline_store_load_roundtrip(trained_spectral_mlp, planner, fields):
    plan = planner.plan(1e-3)
    pipeline = InferencePipeline(trained_spectral_mlp, SZCompressor(), plan)
    blob = pipeline.store(fields)
    reconstructed = pipeline.load(blob)
    assert reconstructed.shape == fields.shape
    assert np.abs(reconstructed - fields).max() <= plan.input_tolerance


# -- sensitivity ------------------------------------------------------------------


def test_sensitivity_report_fields(trained_spectral_mlp, rng):
    inputs = rng.uniform(-1, 1, (64, 5)).astype(np.float32)
    report = probe_sensitivity(trained_spectral_mlp, inputs, perturbation=1e-3, rng=rng)
    assert report.qoi_change_l2_max >= report.qoi_change_l2_mean > 0
    assert report.amplification > 0
    assert "amplification" in report.describe()


def test_sensitivity_scales_roughly_linearly(trained_spectral_mlp, rng):
    inputs = rng.uniform(-1, 1, (64, 5)).astype(np.float32)
    small = probe_sensitivity(trained_spectral_mlp, inputs, 1e-5, rng=rng)
    large = probe_sensitivity(trained_spectral_mlp, inputs, 1e-3, rng=rng)
    ratio = large.qoi_change_l2_mean / small.qoi_change_l2_mean
    assert 20 < ratio < 500  # ~100x for a smooth model


def test_sensitivity_below_analyzer_gain(trained_spectral_mlp, rng):
    """Empirical amplification can never exceed the spectral gain bound."""
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    inputs = rng.uniform(-1, 1, (64, 5)).astype(np.float32)
    report = probe_sensitivity(trained_spectral_mlp, inputs, 1e-4, rng=rng)
    eps_l2 = 1e-4 * np.sqrt(5)
    assert report.qoi_change_l2_max <= analyzer.compression_bound(eps_l2)


def test_empirical_lipschitz_matches_gain_on_linear_model(rng):
    """On a pure linear map, the probe approaches the spectral norm."""
    from repro.core.sensitivity import empirical_lipschitz
    from repro.nn import Identity, Linear, Sequential

    layer = Linear(6, 6, bias=False, rng=rng)
    model = Sequential(layer, Identity())
    model.eval()
    sigma = np.linalg.svd(layer.weight.data, compute_uv=False)[0]
    inputs = rng.uniform(-1, 1, (4, 6)).astype(np.float32)
    estimate = empirical_lipschitz(model, inputs, rng=rng, n_probes=200)
    assert estimate <= sigma * (1 + 1e-3)
    assert estimate > 0.5 * sigma
