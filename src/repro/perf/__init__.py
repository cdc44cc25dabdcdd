"""Performance layer: hardware models, timers and parallel execution.

* throughput models (:class:`IOModel`, :class:`ExecutionModel`) feed the
  planner's Fig. 10 trade-off;
* :class:`Timer` and :class:`Stopwatch` time phases as spans;
* :mod:`~repro.perf.parallel` counts the CPUs a run may use (the size of
  ``execute_chunked``'s supervised process pool) and keeps the side lane
  that ``InferencePipeline.execute`` and the split forward run beside
  their caller.
"""

from .execmodel import ExecutionModel, StageBreakdown, measure_inference_seconds
from .hardware import GPU_PROFILES, MI250X, RTX3080TI, V100, GPUProfile, get_gpu
from .iomodel import CodecSpeed, IOModel
from .parallel import resolve_workers
from .timer import Stopwatch, Timer


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
    "Stopwatch",
    "Timer",
    "V100",
    "get_gpu",
    "measure_inference_seconds",
    "reset_compile_cache",
    "resolve_workers",
]
