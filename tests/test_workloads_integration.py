"""Integration tests: trained workloads + codecs + quantization end to end.

These exercise the paper's full Fig. 1 pipeline on the three scientific
tasks and assert its headline claims:

* the Eq. (3) bound covers the achieved QoI error for every format;
* the end-to-end pipeline keeps the QoI error inside the user tolerance;
* PSN training yields a dramatically tighter bound than the baselines.
"""

import numpy as np
import pytest

from repro import InferencePipeline, TolerancePlanner, load_workload
from repro.compress import MGARDCompressor, SZCompressor, ZFPCompressor
from repro.quant import BF16, FP16, INT8, TF32, materialize, quantize_model

pytestmark = pytest.mark.integration


@pytest.fixture(scope="module")
def h2():
    return load_workload("h2combustion")


@pytest.fixture(scope="module")
def borghesi():
    return load_workload("borghesi")


def test_workload_training_converged(h2):
    assert h2.final_train_loss < 5e-2
    assert h2.variant == "psn"


def test_workload_cache_roundtrip(h2):
    again = load_workload("h2combustion")
    assert np.array_equal(
        h2.model.state_dict()["0.raw_weight"], again.model.state_dict()["0.raw_weight"]
    )


def test_psn_gain_much_tighter_than_plain(h2):
    plain = load_workload("h2combustion", variant="plain")
    assert h2.analyzer.gain() < plain.analyzer.gain()


@pytest.mark.parametrize("fmt", [TF32, FP16, BF16, INT8], ids=lambda f: f.name)
def test_quantization_bound_holds_on_h2(h2, fmt):
    model = h2.qoi_model()
    model.eval()
    x = h2.dataset.test_inputs[:128]
    reference = materialize(model)(x)
    quantized = quantize_model(model, fmt)
    achieved = np.linalg.norm(quantized(x) - reference, axis=1).max()
    bound = h2.analyzer.quantization_bound(fmt)
    assert achieved <= bound
    # the paper reports roughly one order of magnitude of slack
    assert bound <= achieved * 50


@pytest.mark.parametrize("fmt", [FP16, INT8], ids=lambda f: f.name)
def test_quantization_bound_holds_on_borghesi(borghesi, fmt):
    model = borghesi.qoi_model()
    model.eval()
    x = borghesi.dataset.test_inputs[:128]
    reference = materialize(model)(x)
    quantized = quantize_model(model, fmt)
    achieved = np.linalg.norm(quantized(x) - reference, axis=1).max()
    assert achieved <= borghesi.analyzer.quantization_bound(fmt)


def test_borghesi_more_sensitive_than_h2(h2, borghesi):
    """Paper Section IV-B.2: BorghesiFlame amplifies input error ~10x more."""
    from repro.core import probe_sensitivity

    rng = np.random.default_rng(3)
    h2_report = probe_sensitivity(h2.model, h2.dataset.test_inputs[:200], 1e-3, rng=rng)
    bf_report = probe_sensitivity(
        borghesi.model, borghesi.dataset.test_inputs[:200], 1e-3, rng=rng
    )
    assert bf_report.amplification > h2_report.amplification


@pytest.mark.parametrize(
    "codec_cls", [SZCompressor, ZFPCompressor, MGARDCompressor], ids=lambda c: c.name
)
def test_end_to_end_pipeline_within_tolerance(h2, codec_cls):
    tolerance = 1e-2
    plan = TolerancePlanner(h2.analyzer).plan(tolerance, norm="linf", quant_fraction=0.5)
    pipeline = InferencePipeline(h2.model, codec_cls(), plan)
    result = pipeline.execute(h2.dataset.fields)
    assert result.qoi_error("linf") <= tolerance
    assert result.compression_ratio > 1.0


def test_pipeline_l2_mode_end_to_end(borghesi):
    tolerance = 5e-2
    plan = TolerancePlanner(borghesi.analyzer).plan(tolerance, norm="l2", quant_fraction=0.3)
    pipeline = InferencePipeline(borghesi.model, SZCompressor(), plan)
    result = pipeline.execute(borghesi.dataset.fields)
    assert result.qoi_error("l2") <= tolerance


def test_compression_bound_holds_on_real_codec_errors(h2):
    """Feed actual SZ reconstructions (not synthetic noise) through Eq. (5)."""
    from repro.compress import ErrorBoundMode

    codec = SZCompressor()
    fields = h2.dataset.fields
    reconstruction, __ = codec.roundtrip(fields, 1e-3, ErrorBoundMode.ABS)
    samples_ref = fields.reshape(fields.shape[0], -1).T.astype(np.float32)
    samples_new = reconstruction.reshape(fields.shape[0], -1).T.astype(np.float32)
    h2.model.eval()
    delta_y = h2.model(samples_new) - h2.model(samples_ref)
    achieved = np.linalg.norm(delta_y, axis=1).max()
    input_l2 = np.linalg.norm(samples_new - samples_ref, axis=1).max()
    assert achieved <= h2.analyzer.compression_bound(input_l2)


def test_workload_unknown_name():
    from repro.exceptions import ConfigurationError

    with pytest.raises(ConfigurationError):
        load_workload("mnist")
    with pytest.raises(ConfigurationError):
        load_workload("h2combustion", variant="dropout")
