"""Execution-throughput model (paper Figs. 2 and 9).

Maps a model's per-sample FLOPs and a weight format onto predicted
execution throughput for a GPU profile, and provides real wall-clock
measurement of the numpy substrate for the FP32 reference point.

The paper expresses execution throughput as *data ingestion* GB/s — how
many bytes of input data the model chews through per second — so the
model converts via the per-sample input footprint.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..nn.module import Module
from ..obs import get_tracer
from .hardware import GPUProfile

__all__ = ["ExecutionModel", "StageBreakdown", "measure_inference_seconds"]


@dataclass(frozen=True)
class StageBreakdown:
    """Per-stage share of inference time (Fig. 2)."""

    load_seconds: float
    preprocess_seconds: float
    execute_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.load_seconds + self.preprocess_seconds + self.execute_seconds

    def fractions(self) -> dict[str, float]:
        total = self.total_seconds
        return {
            "load": self.load_seconds / total,
            "preprocess": self.preprocess_seconds / total,
            "execute": self.execute_seconds / total,
        }

    @classmethod
    def from_phases(cls, phases: dict[str, float]) -> "StageBreakdown":
        """Build a breakdown from measured phase durations.

        ``phases`` maps a stage name to seconds, e.g. summed span
        durations (``{"execute": tracer.total_seconds("execute")}``), so
        the Fig. 2 figure path can consume real telemetry instead of only
        the analytic model.  Missing stages count as zero.
        """
        return cls(
            load_seconds=float(phases.get("load", 0.0)),
            preprocess_seconds=float(phases.get("preprocess", 0.0)),
            execute_seconds=float(phases.get("execute", 0.0)),
        )


class ExecutionModel:
    """Analytic throughput model for one GPU profile.

    Parameters
    ----------
    gpu:
        Hardware profile supplying FP32 TFLOPs and per-format speedups.
    efficiency:
        Fraction of peak sustained by small-batch inference kernels.
    preprocess_rate_gbps:
        Host-side preprocessing bandwidth (normalization, layout).
    """

    def __init__(
        self,
        gpu: GPUProfile,
        efficiency: float = 0.35,
        preprocess_rate_gbps: float = 12.0,
        overhead_flops: float = 4e5,
    ) -> None:
        if not 0 < efficiency <= 1:
            raise ConfigurationError(f"efficiency must be in (0, 1], got {efficiency}")
        self.gpu = gpu
        self.efficiency = float(efficiency)
        self.preprocess_rate_gbps = float(preprocess_rate_gbps)
        # Per-sample fixed cost (kernel launch, memory traffic) expressed
        # in FLOP equivalents: tiny MLPs are overhead-bound, so their
        # throughput does not scale with 1/FLOPs — the effect that makes
        # model execution the H2 pipeline bottleneck in the paper's Fig. 10.
        self.overhead_flops = float(overhead_flops)

    def samples_per_second(self, flops_per_sample: int, fmt_name: str = "fp32") -> float:
        """Predicted inference rate for a model of the given cost."""
        if flops_per_sample <= 0:
            raise ConfigurationError("flops_per_sample must be positive")
        sustained = self.gpu.fp32_tflops * 1e12 * self.efficiency
        effective_flops = flops_per_sample + self.overhead_flops
        return sustained * self.gpu.speedup(fmt_name) / effective_flops

    def data_throughput_gbps(
        self, flops_per_sample: int, bytes_per_sample: int, fmt_name: str = "fp32"
    ) -> float:
        """Input-data ingestion rate (the y-axis of Fig. 9)."""
        rate = self.samples_per_second(flops_per_sample, fmt_name)
        return rate * bytes_per_sample / 1e9

    def stage_breakdown(
        self,
        flops_per_sample: int,
        bytes_per_sample: int,
        n_samples: int,
        disk_bandwidth_gbps: float = 2.8,
        fmt_name: str = "fp32",
    ) -> StageBreakdown:
        """Load / preprocess / execute time split (Fig. 2)."""
        total_bytes = bytes_per_sample * n_samples
        load = total_bytes / (disk_bandwidth_gbps * 1e9)
        preprocess = total_bytes / (self.preprocess_rate_gbps * 1e9)
        execute = n_samples / self.samples_per_second(flops_per_sample, fmt_name)
        return StageBreakdown(load, preprocess, execute)


def measure_inference_seconds(
    model: Module,
    input_shape: tuple[int, ...],
    batch_size: int = 16,
    repeats: int = 3,
    rng: np.random.Generator | None = None,
) -> float:
    """Wall-clock seconds per batch on the numpy substrate (median).

    This is the real measured cost of the reference implementation; the
    analytic model handles format speedups (numpy executes every format
    in float arithmetic, so formats do not change its wall-clock).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    model.eval()
    tracer = get_tracer()
    with tracer.span(
        "perf.measure_inference", batch_size=batch_size, repeats=repeats
    ) as span:
        batch = rng.uniform(-1.0, 1.0, size=(batch_size,) + input_shape).astype(np.float32)
        model(batch)  # warm-up
        timings = []
        for repeat in range(repeats):
            with tracer.span("execute", repeat=repeat):
                start = time.perf_counter()
                model(batch)
                timings.append(time.perf_counter() - start)
        median = float(np.median(timings))
        span.set(median_seconds=median)
    return median
