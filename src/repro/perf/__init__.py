"""Performance layer: hardware models and parallel execution.

* throughput models (:class:`IOModel`, :class:`ExecutionModel`) feed the
  planner's Fig. 10 trade-off;
* :mod:`~repro.perf.parallel` counts the CPUs a run may use (the size of
  ``execute_chunked``'s supervised process pool) and keeps the side lane
  that ``InferencePipeline.execute`` and the split forward run beside
  their caller.
"""

from .execmodel import ExecutionModel, StageBreakdown, measure_inference_seconds
from .hardware import GPU_PROFILES, MI250X, RTX3080TI, V100, GPUProfile
from .iomodel import CodecSpeed, IOModel
from .parallel import resolve_workers


def reset_compile_cache() -> None:
    """No-op: there is no compile cache; ``benchmarks/e2e/e2e_ledger.py``
    still imports this name, and it goes when that import does."""


__all__ = [
    "CodecSpeed",
    "ExecutionModel",
    "GPUProfile",
    "GPU_PROFILES",
    "IOModel",
    "MI250X",
    "RTX3080TI",
    "StageBreakdown",
    "V100",
    "measure_inference_seconds",
    "reset_compile_cache",
    "resolve_workers",
]
