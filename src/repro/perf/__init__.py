"""Performance layer: hardware models, caching and parallel execution.

* throughput models (:class:`IOModel`, :class:`ExecutionModel`) feed the
  planner's Fig. 10 trade-off;
* :mod:`~repro.perf.cache` memoizes the repeatedly evaluated analysis
  kernels (spectral norms, step sizes, Huffman decode tables);
* :mod:`~repro.perf.parallel` counts the CPUs a run may use (the size of
  ``execute_chunked``'s supervised process pool) and keeps the side lane
  that ``InferencePipeline.execute`` and the split forward run beside
  their caller.
"""

from .cache import (
    Memo,
    array_fingerprint,
    cached_average_step_size,
    cached_spectral_norm,
    clear_all_caches,
    get_memo,
    registered_memos,
)
from .execmodel import ExecutionModel, StageBreakdown, measure_inference_seconds
from .hardware import GPU_PROFILES, MI250X, RTX3080TI, V100, GPUProfile, get_gpu
from .iomodel import DEFAULT_CODEC_SPEEDS, CodecSpeed, IOModel
from .parallel import resolve_workers
from .timer import Stopwatch, Timer


def reset_compile_cache() -> None:
    """No-op: there is no compile cache; ``benchmarks/e2e/e2e_ledger.py``
    still imports this name, and it goes when that import does."""


__all__ = [
    "DEFAULT_CODEC_SPEEDS",
    "CodecSpeed",
    "ExecutionModel",
    "GPUProfile",
    "GPU_PROFILES",
    "IOModel",
    "MI250X",
    "Memo",
    "RTX3080TI",
    "StageBreakdown",
    "Stopwatch",
    "Timer",
    "V100",
    "array_fingerprint",
    "cached_average_step_size",
    "cached_spectral_norm",
    "clear_all_caches",
    "get_gpu",
    "get_memo",
    "measure_inference_seconds",
    "registered_memos",
    "reset_compile_cache",
    "resolve_workers",
]
