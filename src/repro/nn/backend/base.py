"""Backend selection and the :class:`CompiledForward` execution front-end.

A *backend* turns a lowered program into one fused callable:

===========  =================================================================
reference    the interpreted per-module dispatch (``model(x)``), unchanged
fused        generated pure-numpy closure, preallocated buffers, in-place ops
===========  =================================================================

``auto`` (the default, also via ``REPRO_BACKEND``) resolves to ``fused``.

:class:`CompiledForward` wraps a model with a chosen backend and keeps
the kernel honest on every call:

* **staleness** — the sum of cached parameter version counters is
  compared per call (a few µs); an optimizer step or re-quantization
  changes it and forces a recompile.  In-place
  ``param.data[...] = ...`` writes bypass the version counters — the
  same caveat as every version-keyed memo (the error-flow analyzer's,
  a PSN layer's deployed weight).
* **both CPUs** — a kernel runs a large batch as two halves, one on the
  process's side lane, where a first-call probe found the same bytes in
  no more time; ``stats["splits"]`` and ``last_split`` say when.
* **transparent fallback** — forward hooks (audit lockstep mode),
  training mode, unsupported modules, or inputs outside the compiled
  shape/dtype envelope route the call through the reference
  interpreter, counting it in ``stats["fallbacks"]`` and recording the
  reason in :attr:`CompiledForward.last_fallback_reason`.

A compile is ``lower`` → generate → bind, about a millisecond, so the
only kernel kept is the wrapper's own (docs/PERFORMANCE.md, "Why there
is no compile cache").  Compiles are traced as ``backend.compile`` spans.
"""

from __future__ import annotations

import os

import numpy as np

from ...exceptions import ConfigurationError, LoweringError
from ...obs import get_tracer
from ..module import Module
from .fused import compile_fused
from .lowering import lower

__all__ = [
    "BACKEND_NAMES",
    "CompiledForward",
    "resolve_backend_name",
]

BACKEND_NAMES = ("auto", "reference", "fused")


def resolve_backend_name(name: "str | None" = None) -> str:
    """Validated concrete backend name for a requested one.

    ``None`` consults ``REPRO_BACKEND`` and defaults to ``auto``;
    ``auto`` resolves to ``fused``.  Unknown names raise
    :class:`ConfigurationError`, matching the CLI's validation
    conventions.
    """
    if name is None:
        name = os.environ.get("REPRO_BACKEND") or "auto"
    if not isinstance(name, str) or name.strip().lower() not in BACKEND_NAMES:
        raise ConfigurationError(
            f"backend must be auto|reference|fused, got {name!r}"
        )
    key = name.strip().lower()
    return "fused" if key == "auto" else key


class CompiledForward:
    """A model bound to a backend, safe to call wherever ``model(x)`` was.

    ``backend=None`` resolves via ``REPRO_BACKEND``/``auto``.  With the
    reference backend this is a zero-overhead passthrough.  Compiled
    backends lower once per weight version (asserted by
    ``stats["lowerings"]``) and fall back to the interpreter whenever
    running the kernel could change observable behavior.
    ``instrument=True`` compiles the per-op-timing variant of the fused
    kernel (``None`` means off).
    """

    def __init__(
        self,
        model: Module,
        backend: "str | None" = None,
        instrument: "bool | None" = None,
    ) -> None:
        self.model = model
        self.backend_name = resolve_backend_name(backend)
        # per-op timing exists only in the fused codegen; on reference
        # there is no kernel
        self.instrument = bool(instrument) and self.backend_name == "fused"
        self._modules = list(model.modules())
        self._params = list(model.parameters())
        self._kernel = None
        self._kernel_version: "int | None" = None
        #: (weight version, detail) of the latest failed lowering
        self._unsupported: "tuple[int, str] | None" = None
        self.last_fallback_reason: "str | None" = None
        #: rows of the two halves the latest call ran as (``None``: whole)
        self.last_split: "tuple | None" = None
        self.stats = {"calls": 0, "lowerings": 0, "compiles": 0, "fallbacks": 0, "splits": 0}

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.backend_name == "reference":
            return self.model(x)
        self.stats["calls"] += 1
        self.last_fallback_reason = self.last_split = None
        for module in self._modules:
            if module._forward_hooks:
                return self._fallback(x, "forward-hooks")
            if module.training:
                return self._fallback(x, "training-mode")
        version = 0
        for param in self._params:
            version += param.version
        if self._unsupported is not None and self._unsupported[0] == version:
            return self._fallback(x, "unsupported-module", self._unsupported[1])
        if self._kernel is None or self._kernel_version != version:
            try:
                self._kernel = self._compile(version)
            except LoweringError as exc:
                self._unsupported = (version, str(exc))
                return self._fallback(x, "unsupported-module", str(exc))
            self._kernel_version = version
        reason = self._input_guard(x)
        if reason is not None:
            return self._fallback(x, reason)
        out = self._kernel(x)
        self.last_split = self._kernel.last_split
        if self.last_split is not None:
            self.stats["splits"] += 1
        return out

    @property
    def last_op_seconds(self) -> "list | None":
        """Per-op seconds of the latest instrumented call (else ``None``)."""
        return getattr(self._kernel, "last_op_seconds", None)

    @property
    def op_labels(self) -> "list | None":
        """Labels matching :attr:`last_op_seconds` slots (else ``None``)."""
        return getattr(self._kernel, "op_labels", None)

    # -- internals -----------------------------------------------------

    def _fallback(self, x: np.ndarray, reason: str, detail: "str | None" = None) -> np.ndarray:
        self.last_fallback_reason = detail or reason
        self.stats["fallbacks"] += 1
        return self.model(x)

    def _input_guard(self, x: np.ndarray) -> "str | None":
        if not isinstance(x, np.ndarray) or not np.issubdtype(x.dtype, np.floating):
            return "input-dtype"
        kind, width = self._kernel.program.input_spec
        if kind == "2d":
            if x.ndim != 2 or (width is not None and x.shape[1] != width):
                return "input-shape"
        elif kind == "4d":
            if x.ndim != 4 or (width is not None and x.shape[1] != width):
                return "input-shape"
        elif kind == "flat":
            if x.ndim < 2 or (
                width is not None and int(np.prod(x.shape[1:])) != width
            ):
                return "input-shape"
        return None

    def _compile(self, version: int):
        program = lower(self.model)
        self.stats["lowerings"] += 1
        label = "fused-instr" if self.instrument else "fused"
        with get_tracer().span("backend.compile", backend=label, weight_version=version):
            kernel = compile_fused(program, instrument=self.instrument)
        self.stats["compiles"] += 1
        return kernel
