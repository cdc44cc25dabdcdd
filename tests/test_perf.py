"""Tests for the performance models (hardware, I/O, execution)."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.models import mlp_small, model_flops
from repro.perf import (
    CodecSpeed,
    ExecutionModel,
    GPU_PROFILES,
    IOModel,
    MI250X,
    RTX3080TI,
    V100,
    measure_inference_seconds,
)


# -- hardware profiles ------------------------------------------------------------


def test_only_rtx_supports_tf32():
    """Paper Fig. 5: TF32/BF16 results exist only on the RTX 3080 Ti."""
    assert RTX3080TI.supports("tf32")
    assert not V100.supports("tf32")
    assert not MI250X.supports("tf32")


def test_bf16_emulated_on_v100_and_mi250x():
    for gpu in (V100, MI250X):
        assert gpu.supports("bf16")
        assert not gpu.is_native("bf16")
        # emulation is slower than FP32
        assert gpu.speedup("bf16") < 1.0
    assert RTX3080TI.is_native("bf16")


def test_fp16_speedup_up_to_4_5x():
    """Paper: up to 4.5x computation throughput for FP16."""
    best = max(gpu.speedup("fp16") for gpu in GPU_PROFILES.values())
    assert best == pytest.approx(4.5)


def test_speedup_unknown_format_raises():
    with pytest.raises(ConfigurationError):
        V100.speedup("fp4")


# -- I/O model ---------------------------------------------------------------------


def test_io_baseline_is_2_8_gbps():
    assert IOModel().baseline_gbps == pytest.approx(2.8)


def test_io_throughput_grows_with_ratio():
    model = IOModel()
    low = model.throughput_gbps("sz", 1.5)
    high = model.throughput_gbps("sz", 20.0)
    assert high > low


def test_sz_mgard_dip_below_baseline_at_low_ratio():
    """Paper Fig. 7: at tight tolerances SZ and MGARD fall below 2.8 GB/s."""
    model = IOModel()
    for codec in ("sz", "mgard"):
        assert model.throughput_gbps(codec, 1.05) < model.baseline_gbps


def test_zfp_stays_stable():
    """Paper Fig. 7: ZFP throughput is comparatively stable."""
    model = IOModel()
    near = model.throughput_gbps("zfp", 1.2)
    far = model.throughput_gbps("zfp", 16.0)
    assert near > 0.7 * model.baseline_gbps
    assert far / near < 6.0


def test_io_tenfold_gain_achievable():
    """Paper: up to ~10x I/O throughput at a QoI tolerance of 1e-3."""
    model = IOModel()
    assert model.speedup("sz", 30.0) > 7.0


def test_io_model_validation():
    with pytest.raises(ConfigurationError):
        IOModel(disk_bandwidth_gbps=0.0)
    with pytest.raises(ConfigurationError):
        IOModel().throughput_gbps("lz4", 2.0)
    with pytest.raises(ConfigurationError):
        CodecSpeed(base_rate_gbps=10.0).rate(0.0)


# -- execution model ------------------------------------------------------------------


def test_exec_throughput_scales_with_format():
    model = ExecutionModel(RTX3080TI)
    fp32 = model.data_throughput_gbps(int(1e6), 1024, "fp32")
    fp16 = model.data_throughput_gbps(int(1e6), 1024, "fp16")
    assert fp16 == pytest.approx(fp32 * 4.5)


def test_exec_throughput_inverse_in_flops_when_compute_bound():
    model = ExecutionModel(RTX3080TI, overhead_flops=0.0)
    cheap = model.samples_per_second(int(1e5))
    costly = model.samples_per_second(int(1e7))
    assert cheap == pytest.approx(costly * 100)


def test_exec_overhead_caps_tiny_model_throughput():
    """Tiny MLPs are launch-overhead-bound, not FLOP-bound."""
    model = ExecutionModel(RTX3080TI, overhead_flops=2e5)
    tiny = model.samples_per_second(int(1e3))
    tinier = model.samples_per_second(int(1e2))
    assert tinier / tiny < 1.05  # throughput saturates


def test_exec_model_validation():
    with pytest.raises(ConfigurationError):
        ExecutionModel(V100, efficiency=0.0)
    with pytest.raises(ConfigurationError):
        ExecutionModel(V100).samples_per_second(0)


def test_stage_breakdown_fractions_sum_to_one():
    model = ExecutionModel(RTX3080TI)
    breakdown = model.stage_breakdown(int(4e6), 4096, n_samples=1000)
    fractions = breakdown.fractions()
    assert sum(fractions.values()) == pytest.approx(1.0)
    assert all(v >= 0 for v in fractions.values())


def test_bigger_model_shifts_time_to_execute():
    """Fig. 2: deeper models spend a larger share in model execution."""
    model = ExecutionModel(RTX3080TI)
    small = model.stage_breakdown(int(5e5), 1024, 100).fractions()["execute"]
    large = model.stage_breakdown(int(3.4e7), 1024, 100).fractions()["execute"]
    assert large > small


def test_measure_inference_seconds_positive(rng):
    model = mlp_small(rng=rng)
    seconds = measure_inference_seconds(model, (256,), batch_size=8, repeats=2, rng=rng)
    assert seconds > 0
