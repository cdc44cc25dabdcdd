"""Compiled execution backends for the neural-network layer.

Lower a module tree once per weight version
(:mod:`~repro.nn.backend.lowering`), compile it to a single fused
callable (:mod:`~repro.nn.backend.fused`), and run everything through
:class:`CompiledForward`, which falls back to the interpreted reference
path whenever compiled execution could change observable behavior.
"""

from .base import (
    BACKEND_NAMES,
    CompiledForward,
    resolve_backend_name,
)
from .fused import (
    FusedKernel,
    compile_fused,
    generate_fused_source,
    instrumented_op_labels,
)
from .lowering import LoweredOp, LoweredProgram, constant_bindings, lower

__all__ = [
    "BACKEND_NAMES",
    "CompiledForward",
    "FusedKernel",
    "LoweredOp",
    "LoweredProgram",
    "compile_fused",
    "constant_bindings",
    "generate_fused_source",
    "instrumented_op_labels",
    "lower",
    "resolve_backend_name",
]
