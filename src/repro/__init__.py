"""repro — error propagation estimation for neural-network inference on
reduced scientific data.

A from-scratch reproduction of *"Understanding and Estimating Error
Propagation in Neural Networks for Scientific Data Analysis"*
(ICDE 2025): theoretical QoI error bounds when network inputs pass
through error-bounded lossy compression (SZ/ZFP/MGARD-like codecs) and
weights through post-training quantization (TF32/FP16/BF16/INT8), plus a
planner that allocates a user tolerance across both to maximize inference
throughput.

Quick start::

    from repro import load_workload, TolerancePlanner, InferencePipeline
    from repro.compress import SZCompressor

    wl = load_workload("h2combustion")
    plan = TolerancePlanner(wl.analyzer).plan(qoi_tolerance=1e-3)
    pipe = InferencePipeline(wl.model, SZCompressor(), plan)
    result = pipe.execute(wl.dataset.fields)
    assert result.certificate.holds  # observed QoI error <= 1e-3
"""

import importlib

__version__ = "1.0.0"

# Subpackages and re-exported names load on first access (PEP 562), so
# ``import repro`` costs nothing and a process imports only what it runs.
_SUBPACKAGES = frozenset(
    {"compress", "core", "datasets", "distrib", "io", "models", "nn", "obs", "perf",
     "physics", "quant", "resilience"}
)
_EXPORTS = {
    ".core": ("ErrorFlowAnalyzer", "InferencePipeline", "InferencePlan", "PipelineResult",
              "TolerancePlanner", "probe_sensitivity"),
    ".exceptions": ("CompressionError", "ConfigurationError", "ContractViolation",
                    "IntegrityError", "PlanningError", "QuantizationError", "ReproError",
                    "ShapeError", "ToleranceError", "TrainingError"),
    ".workloads": ("VARIANTS", "WORKLOAD_NAMES", "TrainedWorkload", "load_workload"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_HOME[name], __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))


__all__ = [
    "CompressionError",
    "ConfigurationError",
    "ContractViolation",
    "ErrorFlowAnalyzer",
    "IntegrityError",
    "InferencePipeline",
    "InferencePlan",
    "PipelineResult",
    "PlanningError",
    "QuantizationError",
    "ReproError",
    "ShapeError",
    "ToleranceError",
    "TolerancePlanner",
    "TrainedWorkload",
    "TrainingError",
    "VARIANTS",
    "WORKLOAD_NAMES",
    "__version__",
    "compress",
    "core",
    "datasets",
    "distrib",
    "io",
    "load_workload",
    "models",
    "nn",
    "obs",
    "perf",
    "physics",
    "probe_sensitivity",
    "quant",
    "resilience",
]
