"""Observability: tracing, auditing and structured logging.

An always-available, **off-by-default** telemetry layer.  Hot paths are
instrumented unconditionally but route through a process-global tracer
that defaults to the no-op :class:`~repro.obs.trace.NullTracer`, so the
disabled cost is one attribute lookup and a couple of no-op method calls
per stage — no allocation, no branching in user code.  Every count a run
has lives in one record: a span attribute, a result summary or the
checkpoint journal (docs/OBSERVABILITY.md, "Where each number lives").

Usage::

    from repro import obs

    tracer = obs.enable()
    pipeline.execute(fields)
    print(tracer.render_tree())
    tracer.export_jsonl("trace.jsonl")
    obs.disable()

or scoped (restores the previous tracer, used throughout the tests)::

    with obs.capture() as (tracer, _):
        pipeline.execute(fields)

The CLI exposes the same switchboard via ``repro --trace FILE
--log-level LEVEL <command>``.
"""

from __future__ import annotations

from contextlib import contextmanager

from .log import LEVELS, Logger, get_logger, set_log_level
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    json_default,
    new_span_id,
    new_trace_id,
)
from .registry import RunRegistry

# The audit layer is the one part that needs numpy: its names load on
# first access (PEP 562), so ``import repro.obs`` stays numpy-free.
_AUDIT_NAMES = frozenset(
    "NULL_AUDITOR AuditRecord Auditor LayerAudit LayerwiseErrorRecorder NullAuditor "
    "audit_capture disable_audit enable_audit get_auditor set_auditor".split()
)


def __getattr__(name: str):
    if name not in _AUDIT_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import audit

    return getattr(audit, name)


__all__ = [
    "AuditRecord",
    "Auditor",
    "LayerAudit",
    "LayerwiseErrorRecorder",
    "LEVELS",
    "Logger",
    "NullAuditor",
    "NullTracer",
    "RunRegistry",
    "Span",
    "Tracer",
    "audit_capture",
    "capture",
    "disable",
    "disable_audit",
    "enable",
    "enable_audit",
    "get_auditor",
    "get_logger",
    "get_tracer",
    "json_default",
    "new_span_id",
    "new_trace_id",
    "set_auditor",
    "set_log_level",
    "set_tracer",
]

_tracer = NULL_TRACER


def get_tracer():
    """The process-global tracer (a no-op unless :func:`enable` ran)."""
    return _tracer


def set_tracer(tracer) -> None:
    global _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER


def enable() -> Tracer:
    """Install a fresh live tracer globally; returns it."""
    set_tracer(Tracer())
    return _tracer


def disable() -> None:
    """Restore the no-op tracer."""
    set_tracer(NULL_TRACER)


@contextmanager
def capture():
    """Scoped :func:`enable`; restores whatever tracer was installed before.

    Yields ``(tracer, None)``: the second item is kept only because
    ``benchmarks/e2e/e2e_ledger.py`` unpacks two items.
    """
    previous = _tracer
    try:
        yield enable(), None
    finally:
        set_tracer(previous)
