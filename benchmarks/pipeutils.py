"""Shared pipeline-sweep driver for Figs. 10-15."""

from __future__ import annotations

import numpy as np

from repro import InferencePipeline, TolerancePlanner, TrainedWorkload
from repro.compress import MGARDCompressor, SZCompressor, ZFPCompressor
from repro.models import model_flops
from repro.perf import ExecutionModel, IOModel, RTX3080TI
from repro.quant import materialize

CODEC_CLASSES = {"sz": SZCompressor, "zfp": ZFPCompressor, "mgard": MGARDCompressor}

_INPUT_SHAPES = {"h2combustion": (9,), "borghesi": (13,), "eurosat": (13, 24, 24)}


def exec_throughput_gbps(workload: TrainedWorkload, fmt_name: str) -> float:
    """Model-execution data throughput for the workload's surrogate."""
    shape = _INPUT_SHAPES[workload.name]
    flops = model_flops(materialize(workload.model), shape)
    bytes_per_sample = int(np.prod(shape)) * 4
    return ExecutionModel(RTX3080TI).data_throughput_gbps(flops, bytes_per_sample, fmt_name)


def pipeline_sweep(
    workload: TrainedWorkload,
    codec_name: str,
    norm: str,
    tolerances: np.ndarray,
    fractions: tuple[float, ...] = (0.1, 0.5, 0.9),
) -> list[dict]:
    """Run the full planned pipeline across tolerances and allocations.

    Returns one record per (tolerance, fraction): the chosen format, the
    predicted Eq. (3) bound, the achieved QoI error, the measured
    compression ratio, and modeled I/O / execution / total throughput.
    """
    planner = TolerancePlanner(workload.qoi_analyzer())
    io_model = IOModel()
    records = []
    for tolerance in tolerances:
        for fraction in fractions:
            plan = planner.plan(float(tolerance), norm=norm, quant_fraction=fraction)
            pipeline = InferencePipeline(
                workload.qoi_model(), CODEC_CLASSES[codec_name](), plan
            )
            result = pipeline.execute(
                workload.dataset.fields,
                samples_from_fields=workload.dataset.fields_as_samples,
            )
            io_gbps = io_model.throughput_gbps(codec_name, result.compression_ratio)
            exec_gbps = exec_throughput_gbps(workload, plan.fmt.name)
            fmt = None if plan.fmt.is_identity else plan.fmt
            analyzer = workload.qoi_analyzer()
            if norm == "linf":
                predicted = analyzer.combined_bound_linf(plan.input_tolerance, fmt)
            else:  # the plan's per-sample L2 budget
                predicted = analyzer.combined_bound(plan.input_tolerance, fmt)
            records.append(
                {
                    "tolerance": float(tolerance),
                    "fraction": float(fraction),
                    "fmt": plan.fmt.name,
                    "predicted_bound": predicted,
                    "achieved": result.certificate.qoi_error,
                    "ratio": result.compression_ratio,
                    "io_gbps": io_gbps,
                    "exec_gbps": exec_gbps,
                    "total_gbps": min(io_gbps, exec_gbps),
                }
            )
    return records


def baseline_total_gbps(workload: TrainedWorkload) -> float:
    """Uncompressed FP32 pipeline throughput (the 1x reference)."""
    return min(IOModel().baseline_gbps, exec_throughput_gbps(workload, "fp32"))


def sweep_rows(records: list[dict]) -> list[list]:
    return [
        [
            r["tolerance"],
            r["fraction"],
            r["fmt"],
            r["predicted_bound"],
            r["achieved"],
            r["ratio"],
            r["io_gbps"],
            r["exec_gbps"],
            r["total_gbps"],
        ]
        for r in records
    ]


SWEEP_HEADER = [
    "qoi tol",
    "quant frac",
    "format",
    "pred bound",
    "achieved",
    "ratio",
    "io GB/s",
    "exec GB/s",
    "total GB/s",
]


def assert_sweep_contract(records: list[dict]) -> None:
    """Invariants every pipeline sweep must satisfy."""
    for record in records:
        assert record["achieved"] <= record["tolerance"] * (1 + 1e-9), (
            f"tolerance violated at {record['tolerance']:.1e} "
            f"(achieved {record['achieved']:.3e})"
        )
        assert record["achieved"] <= record["predicted_bound"] * (1 + 1e-9)
        assert record["predicted_bound"] <= record["tolerance"] * (1 + 1e-9)
    # total throughput is non-decreasing in tolerance at fixed fraction
    fractions = sorted({r["fraction"] for r in records})
    for fraction in fractions:
        series = [r for r in records if r["fraction"] == fraction]
        series.sort(key=lambda r: r["tolerance"])
        totals = [r["total_gbps"] for r in series]
        assert totals[-1] >= totals[0] * 0.99
