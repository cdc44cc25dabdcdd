"""GPU hardware profiles for the execution-throughput model.

The paper benchmarks on NVIDIA V100 (Summit), AMD MI250X (Frontier) and
an RTX 3080 Ti (the only device with native TF32/BF16).  The numpy
substrate cannot reproduce tensor-core silicon, so per-format execution
speedups are encoded as calibrated profiles reflecting the paper's
Fig. 9 observations: FP16 up to ~4.5x, INT8 similar, TF32/BF16 marginal,
and emulated formats slightly *slower* than FP32.

Numerical behaviour (what the error bounds consume) is bit-exact in
:mod:`repro.quant.formats` regardless of profile; profiles only drive the
throughput axes of the figures.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ConfigurationError

__all__ = ["GPUProfile", "V100", "RTX3080TI", "MI250X", "GPU_PROFILES"]


@dataclass(frozen=True)
class GPUProfile:
    """Execution characteristics of one accelerator.

    Attributes
    ----------
    name:
        Device name.
    fp32_tflops:
        Effective sustained FP32 throughput (TFLOP/s) for these
        inference workloads.
    format_speedup:
        Relative execution speedup per numeric format (FP32 = 1.0).
        Formats absent from the map are unsupported on the device.
    native_formats:
        Formats with hardware support; others in ``format_speedup`` are
        emulated (the paper notes V100/MI250X emulate BF16).
    """

    name: str
    fp32_tflops: float
    format_speedup: dict[str, float] = field(default_factory=dict)
    native_formats: frozenset[str] = frozenset()

    def supports(self, fmt_name: str) -> bool:
        return fmt_name in self.format_speedup

    def is_native(self, fmt_name: str) -> bool:
        return fmt_name in self.native_formats

    def speedup(self, fmt_name: str) -> float:
        try:
            return self.format_speedup[fmt_name]
        except KeyError:
            raise ConfigurationError(
                f"format {fmt_name!r} is not supported on {self.name}"
            ) from None


V100 = GPUProfile(
    name="V100",
    fp32_tflops=14.0,
    format_speedup={"fp32": 1.0, "fp16": 3.9, "bf16": 0.85, "int8": 3.6},
    native_formats=frozenset({"fp32", "fp16", "int8"}),
)

RTX3080TI = GPUProfile(
    name="RTX3080Ti",
    fp32_tflops=30.0,
    format_speedup={"fp32": 1.0, "tf32": 1.25, "fp16": 4.5, "bf16": 1.3, "int8": 4.2},
    native_formats=frozenset({"fp32", "tf32", "fp16", "bf16", "int8"}),
)

MI250X = GPUProfile(
    name="MI250X",
    fp32_tflops=24.0,
    format_speedup={"fp32": 1.0, "fp16": 3.4, "bf16": 0.9, "int8": 3.5},
    native_formats=frozenset({"fp32", "fp16", "int8"}),
)

GPU_PROFILES: dict[str, GPUProfile] = {
    profile.name.lower(): profile for profile in (V100, RTX3080TI, MI250X)
}
