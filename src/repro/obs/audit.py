"""Error-budget audit: layerwise predicted-vs-observed bound telemetry.

The paper's Inequality (3) predicts how far a quantized model run on
lossily-compressed inputs may drift from the clean FP32 run.  The rest
of the codebase *uses* that prediction (the planner allocates budgets
with it); this module *checks* it, continuously, on live pipeline
executions:

* :class:`LayerwiseErrorRecorder` walks the clean and the quantized
  model through the same batch in lockstep (forward hooks on the
  top-level :class:`~repro.nn.sequential.Sequential` children of both),
  measures the observed L2/L-infinity activation error at every segment
  end — just before the next weight-bearing layer, exactly the points
  the recurrence of :func:`~repro.core.bounds.propagate_chain_trajectory`
  bounds — and compares each against the predicted cumulative envelope
  from :meth:`~repro.core.errorflow.ErrorFlowAnalyzer.layer_bounds`,
  seeded with the *observed* per-sample input error.
* :class:`AuditRecord` aggregates one run's per-layer verdicts plus a
  QoI-level verdict with full provenance (codec, the run's
  :class:`~repro.core.pipeline.Certificate`, weight version) for
  persistence and diffing.
* :class:`Auditor` is the process-global switchboard, off by default
  through the same null-object pattern as tracing/metrics: pipeline hot
  paths pay one attribute check when auditing is disabled.  When
  enabled it appends every record to a
  :class:`~repro.obs.registry.RunRegistry`, counts
  ``audit_runs_total`` / ``audit_violations_total``, and mirrors
  violations into the resilience layer's ``contract_violations_total``
  family.  Tightness lives on the record itself
  (:attr:`AuditRecord.qoi_tightness`, :attr:`LayerAudit.tightness`).

Verdicts per comparison point: ``VIOLATION`` when observed error exceeds
the predicted bound beyond numerical slack (the theory failed — this
should never happen for the deterministic compression term and is a
red-alert for the CLT quantization estimate), ``loose`` when the bound
overshoots reality by more than ``1/loose_below`` (tightness below 5 %
by default — the bound is sound but wasteful), ``ok`` otherwise.

Residual/graph models (no pure chain of linears) fall back to a
QoI-only audit: the end-to-end bound is still checked, the per-layer
table is empty and ``layerwise`` is ``False``.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .log import get_logger
from .registry import RunRegistry

__all__ = [
    "AuditRecord",
    "Auditor",
    "LayerAudit",
    "LayerwiseErrorRecorder",
    "NULL_AUDITOR",
    "NullAuditor",
    "VERDICT_LOOSE",
    "VERDICT_OK",
    "VERDICT_VIOLATION",
    "audit_capture",
    "classify",
    "disable_audit",
    "enable_audit",
    "get_auditor",
    "set_auditor",
]

VERDICT_OK = "ok"
VERDICT_LOOSE = "loose"
VERDICT_VIOLATION = "VIOLATION"

#: relative slack before an observed > predicted comparison is a
#: violation — covers float64 reduction noise, not modelling error
VIOLATION_REL_EPS = 1e-6
#: absolute floor below which observed error counts as zero
VIOLATION_ABS_EPS = 1e-12
#: tightness below this is flagged "loose" (bound > 20x reality)
DEFAULT_LOOSE_BELOW = 0.05

_LOG = get_logger("audit")


def classify(
    observed: float, predicted: float, loose_below: float = DEFAULT_LOOSE_BELOW
) -> tuple[float, str]:
    """``(tightness, verdict)`` for one observed-vs-predicted comparison.

    Tightness is ``observed / predicted`` — 1.0 means the bound is
    exactly attained, small values mean a slack (sound but pessimistic)
    bound, values above 1 mean the prediction was wrong.
    """
    observed = float(observed)
    predicted = float(predicted)
    if predicted <= 0.0:
        if observed <= VIOLATION_ABS_EPS:
            return 0.0, VERDICT_OK
        return float("inf"), VERDICT_VIOLATION
    tightness = observed / predicted
    if tightness > 1.0 + VIOLATION_REL_EPS:
        return tightness, VERDICT_VIOLATION
    if tightness < loose_below:
        return tightness, VERDICT_LOOSE
    return tightness, VERDICT_OK


@dataclass
class LayerAudit:
    """Predicted-vs-observed comparison at one segment end."""

    index: int
    name: str
    observed_l2: float
    observed_linf: float
    predicted_bound: float
    tightness: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "name": self.name,
            "observed_l2": self.observed_l2,
            "observed_linf": self.observed_linf,
            "predicted_bound": self.predicted_bound,
            "tightness": self.tightness,
            "verdict": self.verdict,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "LayerAudit":
        return cls(
            index=int(payload["index"]),
            name=str(payload["name"]),
            observed_l2=float(payload["observed_l2"]),
            observed_linf=float(payload["observed_linf"]),
            predicted_bound=float(payload["predicted_bound"]),
            tightness=float(payload["tightness"]),
            verdict=str(payload["verdict"]),
        )


@dataclass
class AuditRecord:
    """One audited pipeline execution: measurements plus provenance.

    The measurement fields (errors, bounds, verdicts) are filled by
    :meth:`LayerwiseErrorRecorder.audit`; the provenance fields (codec,
    label, the run's certificate) by whoever owns the run context —
    :meth:`~repro.core.pipeline.InferencePipeline.execute` or the CLI.
    """

    qoi_predicted: float
    qoi_observed: float
    qoi_tightness: float
    verdict: str
    input_error_l2: float
    input_error_linf: float
    weight_version: int = 0
    layers: list[LayerAudit] = field(default_factory=list)
    layerwise: bool = True
    run_id: str = ""
    label: str = ""
    codec: str = ""
    certificate: "Certificate | None" = None
    created_unix: float = 0.0
    metadata: dict = field(default_factory=dict)

    @property
    def violations(self) -> list[str]:
        """Names of every comparison point whose bound was exceeded."""
        names = [layer.name for layer in self.layers if layer.verdict == VERDICT_VIOLATION]
        if self.verdict == VERDICT_VIOLATION and not self.layers:
            names.append("qoi")
        return names

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "label": self.label,
            "codec": self.codec,
            "certificate": None if self.certificate is None else self.certificate.to_dict(),
            "weight_version": self.weight_version,
            "input_error_l2": self.input_error_l2,
            "input_error_linf": self.input_error_linf,
            "qoi_predicted": self.qoi_predicted,
            "qoi_observed": self.qoi_observed,
            "qoi_tightness": self.qoi_tightness,
            "verdict": self.verdict,
            "layerwise": self.layerwise,
            "layers": [layer.to_dict() for layer in self.layers],
            "created_unix": self.created_unix,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AuditRecord":
        """The inverse of :meth:`to_dict`; a malformed certificate is an
        :class:`~repro.exceptions.IntegrityError`."""
        from ..core.pipeline import Certificate  # obs imports before core

        certificate = payload.get("certificate")
        return cls(
            qoi_predicted=float(payload["qoi_predicted"]),
            qoi_observed=float(payload["qoi_observed"]),
            qoi_tightness=float(payload["qoi_tightness"]),
            verdict=str(payload["verdict"]),
            input_error_l2=float(payload["input_error_l2"]),
            input_error_linf=float(payload["input_error_linf"]),
            weight_version=int(payload.get("weight_version", 0)),
            layers=[LayerAudit.from_dict(l) for l in payload.get("layers", [])],
            layerwise=bool(payload.get("layerwise", True)),
            run_id=str(payload.get("run_id", "")),
            label=str(payload.get("label", "")),
            codec=str(payload.get("codec", "")),
            certificate=None if certificate is None else Certificate.from_dict(certificate),
            created_unix=float(payload.get("created_unix", 0.0)),
            metadata=dict(payload.get("metadata", {})),
        )


def _flat(samples: np.ndarray) -> np.ndarray:
    samples = np.asarray(samples, dtype=np.float64)
    return samples.reshape(len(samples), -1)


def _max_errors(clean: np.ndarray, perturbed: np.ndarray) -> tuple[float, float]:
    """Worst per-sample ``(L2, L-infinity)`` difference of two batches."""
    delta = _flat(clean) - _flat(perturbed)
    if not delta.size:
        return 0.0, 0.0
    return (
        float(np.linalg.norm(delta, axis=1).max()),
        float(np.abs(delta).max()),
    )


def _collect_child_outputs(sequential, samples: np.ndarray) -> list:
    """Every top-level child output of one observed forward of ``samples``,
    in execution order, which for a ``Sequential`` is child order."""
    outputs: list[np.ndarray] = []
    sequential.observe(
        samples, lambda module, inputs, output: outputs.append(output), sequential
    )
    return outputs


def _weight_positions(sequential) -> list[int]:
    """Indices of the weight-bearing top-level children, forward order."""
    from ..nn.conv import Conv2d, SpectralConv2d
    from ..nn.linear import Linear, SpectralLinear

    weight_types = (Linear, SpectralLinear, Conv2d, SpectralConv2d)
    return [
        index
        for index, child in enumerate(sequential)
        if isinstance(child, weight_types)
    ]


class LayerwiseErrorRecorder:
    """Dual-path lockstep recorder for one (model, quantized model) pair.

    Parameters
    ----------
    model:
        The clean trained network (spectral layers allowed).
    quantized:
        Its :class:`~repro.quant.quantizer.QuantizedModel` — supplies the
        per-layer formats for the predicted envelope and the perturbed
        forward path.
    input_shape:
        Per-sample input shape; defaults to the first dense layer's
        ``(in_features,)`` (pass ``samples.shape[1:]`` for conv models).
    quant_safety:
        Forwarded to :class:`~repro.core.errorflow.ErrorFlowAnalyzer`.
    """

    def __init__(
        self,
        model,
        quantized,
        input_shape: "tuple[int, ...] | None" = None,
        quant_safety: float = 1.0,
    ) -> None:
        self.model = model
        self.quantized = quantized
        self.input_shape = input_shape
        self.quant_safety = float(quant_safety)
        self._analyzer = None

    @property
    def analyzer(self):
        """Lazily-built bound analyzer (core import deferred: obs must
        stay importable before core)."""
        if self._analyzer is None:
            from ..core.errorflow import ErrorFlowAnalyzer

            self._analyzer = ErrorFlowAnalyzer(
                self.model, self.input_shape, quant_safety=self.quant_safety
            )
        return self._analyzer

    def supports_layerwise(self) -> bool:
        """Whether per-layer envelopes are well-defined for this model.

        Requires a flat ``Sequential`` whose weight-bearing children map
        one-to-one onto the spec's linear chain (residual graphs and
        nested containers fall back to the QoI-only audit).
        """
        from ..nn.sequential import Sequential

        if not isinstance(self.model, Sequential):
            return False
        if not isinstance(self.quantized.model, Sequential):
            return False
        if not self.analyzer.spec.is_chain:
            return False
        n_linears = len(self.analyzer.spec.linear_specs())
        return (
            len(_weight_positions(self.model)) == n_linears
            and len(_weight_positions(self.quantized.model)) == n_linears
        )

    def audit(
        self,
        clean_samples: np.ndarray,
        perturbed_samples: np.ndarray,
        loose_below: float = DEFAULT_LOOSE_BELOW,
    ) -> AuditRecord:
        """Run both paths on one batch and score every comparison point.

        ``clean_samples`` are the reference model inputs, ``perturbed_samples``
        the same batch after the lossy round-trip; their difference seeds
        the predicted envelope, so the comparison isolates *propagation*
        (did the recurrence cover how the network amplified this exact
        input error?) from the codec's own contract, which the
        resilience guards check separately.
        """
        clean = np.asarray(clean_samples, dtype=np.float32)
        perturbed = np.asarray(perturbed_samples, dtype=np.float32)
        if clean.shape != perturbed.shape:
            from ..exceptions import ShapeError

            raise ShapeError(
                f"audit batches disagree: clean {clean.shape} vs "
                f"perturbed {perturbed.shape}"
            )
        input_l2, input_linf = _max_errors(clean, perturbed)
        formats = self.quantized.formats

        self.model.eval()
        self.quantized.model.eval()
        if self.supports_layerwise():
            layers = self._audit_layerwise(clean, perturbed, input_l2, loose_below)
            qoi_predicted = layers[-1].predicted_bound
            qoi_observed = layers[-1].observed_l2
            layerwise = True
        else:
            layers = []
            qoi_predicted = float(self.analyzer.combined_bound(input_l2, formats))
            reference = self.model(clean)
            outputs = self.quantized(perturbed)
            qoi_observed, _ = _max_errors(reference, outputs)
            layerwise = False

        tightness, verdict = classify(qoi_observed, qoi_predicted, loose_below)
        return AuditRecord(
            qoi_predicted=qoi_predicted,
            qoi_observed=qoi_observed,
            qoi_tightness=tightness,
            verdict=verdict,
            input_error_l2=input_l2,
            input_error_linf=input_linf,
            weight_version=int(self.model.weight_version()),
            layers=layers,
            layerwise=layerwise,
        )

    def _audit_layerwise(
        self,
        clean: np.ndarray,
        perturbed: np.ndarray,
        input_l2: float,
        loose_below: float,
    ) -> list[LayerAudit]:
        bounds = self.analyzer.layer_bounds(input_l2, self.quantized.formats)
        clean_outputs = _collect_child_outputs(self.model, clean)
        quant_outputs = _collect_child_outputs(self.quantized.model, perturbed)
        positions = _weight_positions(self.model)
        # The trajectory state after linear spec l bounds the activation
        # error at the *segment end*: the output feeding the next weight
        # layer (or the network output for the last spec).
        points = [positions[l + 1] - 1 for l in range(len(positions) - 1)]
        points.append(len(self.model) - 1)
        names = self.quantized.layer_names
        layers: list[LayerAudit] = []
        for index, (point, bound) in enumerate(zip(points, bounds)):
            observed_l2, observed_linf = _max_errors(
                clean_outputs[point], quant_outputs[point]
            )
            tightness, verdict = classify(observed_l2, bound, loose_below)
            layers.append(
                LayerAudit(
                    index=index,
                    name=names[index] if index < len(names) else str(index),
                    observed_l2=observed_l2,
                    observed_linf=observed_linf,
                    predicted_bound=float(bound),
                    tightness=tightness,
                    verdict=verdict,
                )
            )
        return layers


class Auditor:
    """Process-global audit switchboard (live implementation).

    Thread-safe: parallel chunked execution audits every chunk from its
    worker thread; record appends (memory and registry) are serialized
    by a lock, and the registry write itself is a single ``O_APPEND``
    syscall.
    """

    enabled = True

    def __init__(
        self,
        registry: "RunRegistry | None" = None,
        loose_below: float = DEFAULT_LOOSE_BELOW,
        quant_safety: float = 1.0,
        label: str = "",
    ) -> None:
        self.registry = registry
        self.loose_below = float(loose_below)
        self.quant_safety = float(quant_safety)
        self.label = label
        self.records: list[AuditRecord] = []
        self._lock = threading.Lock()

    def detached(self) -> "Auditor":
        """A registry-less clone with the same thresholds.

        Forked workers must keep auditing (the per-chunk record rides
        back to the parent inside ``PipelineResult.extra``) but must not
        write the shared run registry — concurrent appends from several
        processes would race on run-id assignment.  The parent re-records
        each reconstructed record through its own auditor instead.
        """
        return Auditor(
            registry=None,
            loose_below=self.loose_below,
            quant_safety=self.quant_safety,
            label=self.label,
        )

    def adopt(self, record: AuditRecord) -> AuditRecord:
        """Store a record under this auditor without emitting its metrics.

        This is the one storing body; :meth:`record_run` adds the metrics
        for a record produced here.  Its one other caller is a chunked
        run's parent: forked pool workers audit with a :meth:`detached`
        clone and ship the record back, and it gets a fresh sequential run
        id here and is stored in memory + registry, but its metrics are
        **not** re-emitted — the worker emitted them once (its counter
        deltas merge separately).  Replay adopts nothing: a journaled or
        remote chunk is audited afresh as ``execute`` replays it.
        """
        record.run_id = ""
        if not record.created_unix:
            record.created_unix = time.time()
        if not record.label:
            record.label = self.label
        with self._lock:
            if self.registry is not None:
                payload = self.registry.append(record)
                record.run_id = payload["run_id"]
            self.records.append(record)
        return record

    def record_run(self, record: AuditRecord) -> AuditRecord:
        """Persist one record produced here (:meth:`adopt`) and emit its
        metrics; returns the record with its registry-assigned ``run_id``
        backfilled."""
        self._emit(self.adopt(record))
        return record

    def _emit(self, record: AuditRecord) -> None:
        from . import get_metrics

        metrics = get_metrics()
        metrics.counter("audit_runs_total").inc()
        violations = record.violations
        if violations:
            metrics.counter("audit_violations_total").inc(len(violations))
            metrics.counter(
                "contract_violations_total", stage="audit", codec=record.codec or "pipeline"
            ).inc(len(violations))
            _LOG.warning(
                "audit bound VIOLATION: observed error exceeded the predicted envelope",
                run_id=record.run_id or "-",
                at=",".join(violations),
                qoi_tightness=record.qoi_tightness,
                fmt=record.certificate.fmt if record.certificate else "?",
            )

    @property
    def violation_count(self) -> int:
        with self._lock:
            return sum(len(record.violations) for record in self.records)


class NullAuditor:
    """No-op stand-in installed by default: one attribute check on the
    hot path, nothing else."""

    enabled = False
    registry = None
    loose_below = DEFAULT_LOOSE_BELOW
    quant_safety = 1.0
    label = ""

    @property
    def records(self) -> list:
        return []

    def record_run(self, record: AuditRecord) -> AuditRecord:
        return record

    @property
    def violation_count(self) -> int:
        return 0


NULL_AUDITOR = NullAuditor()

_auditor = NULL_AUDITOR


def get_auditor():
    """The process-global auditor (a no-op unless :func:`enable_audit` ran)."""
    return _auditor


def set_auditor(auditor) -> None:
    global _auditor
    _auditor = auditor if auditor is not None else NULL_AUDITOR


def enable_audit(
    registry: "RunRegistry | str | None" = None,
    loose_below: float = DEFAULT_LOOSE_BELOW,
    quant_safety: float = 1.0,
    label: str = "",
) -> Auditor:
    """Install a live auditor globally; returns it.

    ``registry`` may be a :class:`~repro.obs.registry.RunRegistry` or a
    path string (a registry is built around it); ``None`` keeps records
    in memory only.
    """
    if isinstance(registry, str):
        registry = RunRegistry(registry)
    auditor = Auditor(
        registry=registry,
        loose_below=loose_below,
        quant_safety=quant_safety,
        label=label,
    )
    set_auditor(auditor)
    return auditor


def disable_audit() -> None:
    """Restore the no-op auditor."""
    set_auditor(NULL_AUDITOR)


@contextmanager
def audit_capture(
    registry: "RunRegistry | str | None" = None,
    loose_below: float = DEFAULT_LOOSE_BELOW,
    quant_safety: float = 1.0,
    label: str = "",
):
    """Scoped :func:`enable_audit`; restores the previous auditor."""
    previous = _auditor
    try:
        yield enable_audit(
            registry=registry,
            loose_below=loose_below,
            quant_safety=quant_safety,
            label=label,
        )
    finally:
        set_auditor(previous)
