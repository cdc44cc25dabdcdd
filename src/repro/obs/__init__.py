"""Observability: tracing, metrics and structured logging.

An always-available, **off-by-default** telemetry layer.  Hot paths are
instrumented unconditionally but route through process-global singletons
that default to no-op implementations (:class:`~repro.obs.trace.NullTracer`,
:class:`~repro.obs.metrics.NullMetrics`), so the disabled cost is one
attribute lookup and a couple of no-op method calls per stage — no
allocation, no branching in user code.

Usage::

    from repro import obs

    tracer, metrics = obs.enable()
    pipeline.execute(fields)
    print(tracer.render_tree())
    print(metrics.render())
    tracer.export_jsonl("trace.jsonl")
    obs.disable()

or scoped (restores the previous state, used throughout the tests)::

    with obs.capture() as (tracer, metrics):
        pipeline.execute(fields)

The CLI exposes the same switchboard via ``repro --trace FILE
--metrics FILE --log-level LEVEL <command>``.
"""

from __future__ import annotations

from contextlib import contextmanager

from .log import LEVELS, Logger, get_logger, set_log_level
from .metrics import NULL_METRICS, Counter, MetricsRegistry, NullMetrics, render_metrics_json
from .trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    json_default,
    new_span_id,
    new_trace_id,
    read_jsonl,
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
    "Counter",
    "LayerAudit",
    "LayerwiseErrorRecorder",
    "LEVELS",
    "Logger",
    "MetricsRegistry",
    "NullAuditor",
    "NullMetrics",
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
    "enabled",
    "get_auditor",
    "get_logger",
    "get_metrics",
    "get_tracer",
    "json_default",
    "new_span_id",
    "new_trace_id",
    "read_jsonl",
    "render_metrics_json",
    "set_auditor",
    "set_log_level",
    "set_metrics",
    "set_tracer",
]

_tracer = NULL_TRACER
_metrics = NULL_METRICS


def get_tracer():
    """The process-global tracer (a no-op unless :func:`enable` ran)."""
    return _tracer


def get_metrics():
    """The process-global metrics registry (no-op unless enabled)."""
    return _metrics


def set_tracer(tracer) -> None:
    global _tracer
    _tracer = tracer if tracer is not None else NULL_TRACER


def set_metrics(metrics) -> None:
    global _metrics
    _metrics = metrics if metrics is not None else NULL_METRICS


def enabled() -> bool:
    """True when either tracing or metrics collection is live."""
    return _tracer.enabled or _metrics.enabled


def enable(tracer=None, metrics=None):
    """Install live observability globally; returns ``(tracer, metrics)``.

    Fresh instances are created unless explicit ones are passed.
    """
    set_tracer(tracer if tracer is not None else Tracer())
    set_metrics(metrics if metrics is not None else MetricsRegistry())
    return _tracer, _metrics


def disable() -> None:
    """Restore the no-op tracer and registry."""
    set_tracer(NULL_TRACER)
    set_metrics(NULL_METRICS)


@contextmanager
def capture(tracer=None, metrics=None):
    """Scoped :func:`enable`; restores whatever was installed before."""
    previous = (_tracer, _metrics)
    try:
        yield enable(tracer=tracer, metrics=metrics)
    finally:
        set_tracer(previous[0])
        set_metrics(previous[1])
