"""End-to-end error-bounded inference pipeline (paper Fig. 1).

``store -> (compressed blob) -> load -> decompress -> quantized model``

The pipeline wires a plan from :class:`~repro.core.planner.TolerancePlanner`
to a codec and a quantized model, measures wall-clock stage timings and
achieved errors, and verifies that the end-to-end QoI error stays inside
the user's tolerance — the paper's central claim.

Runtime guards make that claim *checked*, not assumed: decompressed
inputs and QoI outputs are screened for NaN/Inf, and the achieved input
error is compared against the codec's pointwise budget, raising a
structured :class:`~repro.exceptions.ContractViolation` on breach.  What
a run certifies is one :class:`Certificate` on ``result.certificate``:
the plan's tolerances and bound beside the errors measured once, in
``execute``, on the one reconstruction it stored.  Every
plan asks the codec for a pointwise (ABS) bound: an L2 plan's per-sample
budget ``tau`` becomes ``tau / sqrt(n_0)`` (``plan.codec_tolerance``),
which holds ``||Delta x_i||_2 <= tau`` for every sample and so composes
across chunks.  ``execute`` makes one attempt and raises the typed error;
recovery — retry, then a lossless rerun of the chunk — is the supervised
pool's, which is what ``execute_chunked`` runs on every single-host
executor.
"""

from __future__ import annotations

import dataclasses
import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..compress.base import CompressedBlob, Compressor, ErrorBoundMode
from ..exceptions import ConfigurationError, IntegrityError, ReproError
from ..nn.backend import CompiledForward, resolve_backend_name
from ..nn.module import Module
from ..obs import get_auditor, get_logger, get_metrics, get_tracer
from ..perf.parallel import side_lane
from ..quant.quantizer import QuantizedModel, quantize_model
from ..resilience.guards import check_contract, screen_finite
from .planner import InferencePlan

__all__ = ["PipelineResult", "InferencePipeline"]


def _field_samples(fields: np.ndarray) -> np.ndarray:
    """Default ``samples_from_fields``: axis 0 is the variable axis."""
    return fields.reshape(fields.shape[0], -1).T.astype(np.float32)


_NORMS = ("linf", "l2")
_MEASURED = ("qoi_error", "input_error_linf", "input_error_l2_max", "codec_error")


def _plan_terms(plan: InferencePlan) -> dict:
    """A plan's promise, as a certificate and a run fingerprint name it."""
    return {
        "norm": plan.norm,
        "qoi_tolerance": float(plan.qoi_tolerance),
        "fmt": plan.fmt.name,
        "quant_bound": float(plan.quant_bound),
        "input_tolerance": float(plan.input_tolerance),
        "codec_tolerance": float(plan.codec_tolerance),
    }


def _qoi_error(outputs: np.ndarray, reference: np.ndarray, norm: str) -> float:
    """Worst per-sample absolute QoI error in ``norm``, reduced in one buffer."""
    if norm not in _NORMS:
        raise ValueError(f"norm must be 'linf' or 'l2', got {norm!r}")
    delta = np.subtract(outputs, reference)
    if norm == "linf" or not delta.size:  # the largest per-sample maximum is the global one
        return float(np.abs(delta, out=delta).max(initial=0.0))
    return float(np.linalg.norm(delta.reshape(len(delta), -1), axis=1).max(initial=0.0))


@dataclass(frozen=True)
class Certificate:
    """What one run certifies: the plan's terms (:func:`_plan_terms`) and
    the errors ``execute`` measured on the reconstruction it stored — the
    worst per-sample QoI error in ``norm``, the worst per-sample input
    errors and the largest pointwise field error, which ``codec_tolerance``
    bounds.  Each is a maximum, so :meth:`combine` of a run's chunks is
    exactly the whole run's."""

    norm: str
    qoi_tolerance: float
    fmt: str
    quant_bound: float
    input_tolerance: float
    codec_tolerance: float
    qoi_error: float
    input_error_linf: float
    input_error_l2_max: float
    codec_error: float

    @property
    def holds(self) -> bool:
        return self.qoi_error <= self.qoi_tolerance

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload) -> "Certificate":
        """The one reader: exactly the fields, ``norm`` linf or l2, ``fmt``
        a name and finite non-negative floats, or :class:`IntegrityError`."""
        names = [f.name for f in dataclasses.fields(cls)]
        if not isinstance(payload, dict) or set(payload) != set(names):
            raise IntegrityError(f"certificate {payload!r} does not name exactly {names}")
        for name, value in payload.items():
            if name == "norm":
                valid = value in _NORMS
            elif name == "fmt":
                valid = isinstance(value, str) and value != ""
            else:  # NaN compares false
                valid = isinstance(value, float) and 0.0 <= value < np.inf
            if not valid:
                raise IntegrityError(f"certificate field {name} is {value!r}")
        return cls(**payload)

    @classmethod
    def combine(cls, certificates) -> "Certificate":
        """A run's certificate from its chunks': one plan, each largest error."""
        certificates = list(certificates)
        worst = {name: max(getattr(c, name) for c in certificates) for name in _MEASURED}
        combined = dataclasses.replace(certificates[0], **worst)
        if any(dataclasses.replace(c, **worst) != combined for c in certificates):
            raise IntegrityError("chunk certificates name different plans")
        return combined


@dataclass
class PipelineResult:
    """Everything measured in one pipeline execution."""

    outputs: np.ndarray
    reference_outputs: np.ndarray
    blob: CompressedBlob
    plan: InferencePlan
    compress_seconds: float
    decompress_seconds: float
    inference_seconds: float
    certificate: Certificate
    extra: dict = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        return self.blob.compression_ratio

    @property
    def input_error_linf(self) -> float:
        return self.certificate.input_error_linf

    def qoi_error(self, norm: str = "linf") -> float:
        """Worst per-sample absolute QoI error of this run."""
        return _qoi_error(self.outputs, self.reference_outputs, norm)


class InferencePipeline:
    """Error-bounded inference with lossy input reduction + weight quant.

    Parameters
    ----------
    model:
        Trained full-precision network.
    codec:
        Error-bounded compressor for the input data.
    plan:
        Allocation produced by the planner; fixes the weight format and
        the compressor tolerance.
    backend:
        Execution backend for the forward passes: ``"auto"`` (default,
        resolves to ``"fused"``), ``"reference"`` or ``"fused"``; ``None``
        consults ``REPRO_BACKEND``.  The compiled backend is bit-identical
        to the reference interpreter and falls back to it transparently
        (audit hooks, unsupported modules, off-envelope inputs),
        recording the reason in ``result.extra["backend"]``.
    instrument_ops:
        Compile the fused backend's per-op timing variant
        (``CompiledForward(instrument=True)``): the quantized forward
        additionally reports per-op wall time as
        ``result.extra["backend"]["op_labels"/"op_seconds"]`` and as the
        same-named attributes of the ``pipeline.inference`` span.
        ``None`` (default) means off; only meaningful on the fused
        backend.
    """

    def __init__(
        self,
        model: Module,
        codec: Compressor,
        plan: InferencePlan,
        backend: "str | None" = None,
        instrument_ops: "bool | None" = None,
    ) -> None:
        self.model = model
        self.codec = codec
        self.plan = plan
        self.backend = resolve_backend_name(backend)
        self.instrument_ops = instrument_ops
        self.quantized: QuantizedModel = quantize_model(model, plan.fmt)
        self._forward_quant = CompiledForward(
            self.quantized.model, self.backend, instrument=instrument_ops
        )
        self._forward_ref = CompiledForward(
            self.model, self.backend, instrument=instrument_ops
        )
        self._audit_recorder = None
        self._audit_lock = threading.Lock()

    def store(self, fields: np.ndarray) -> CompressedBlob:
        """Compress normalized input fields under the codec's pointwise budget."""
        return self.codec.compress(fields, self.plan.codec_tolerance, ErrorBoundMode.ABS)

    def load(self, blob: CompressedBlob) -> np.ndarray:
        """Decompress fields back into network-ready arrays (screened)."""
        return self.codec.safe_decompress(blob)

    def _store_and_load(
        self, fields: np.ndarray, force_lossless: bool = False,
        blob: "CompressedBlob | None" = None,
    ) -> tuple[CompressedBlob, np.ndarray, float, float, dict]:
        """Compress (unless ``blob`` is the one already stored) +
        decompress once; a failed screen raises.

        Returns ``(blob, reconstruction, compress_s, decompress_s,
        spans)``; ``spans`` holds the compress/decompress trace spans for
        post-hoc attribute enrichment (observed errors are only
        measurable once the reconstruction is compared to the source).

        ``force_lossless`` skips the codec entirely and stores the fields
        losslessly — the rerun of a chunk the supervised pool quarantined,
        counted as a ``fallback-lossless`` recovery.
        """
        tracer = get_tracer()
        predicted = float(self.plan.codec_tolerance)
        spans: dict = {}
        compress_seconds = 0.0
        if force_lossless:
            blob = self.codec._lossless_blob(
                np.asarray(fields), predicted, ErrorBoundMode.ABS
            )
            blob.metadata["degraded"] = True
        elif blob is None:
            start = time.perf_counter()
            with tracer.span(
                "pipeline.compress", codec=self.codec.name, predicted_bound=predicted
            ) as span:
                blob = self.store(fields)
                span.set(compression_ratio=blob.compression_ratio)
            spans["compress"] = span
            compress_seconds = time.perf_counter() - start
        start = time.perf_counter()
        with tracer.span(
            "pipeline.decompress", codec=self.codec.name, predicted_bound=predicted,
            degraded=bool(blob.metadata.get("degraded", False)),
        ) as span:
            reconstructed = self.load(blob)
        spans["decompress"] = span
        if force_lossless:
            get_metrics().counter(
                "recoveries_total", policy="fallback-lossless", component="pipeline"
            ).inc()
        return blob, reconstructed, compress_seconds, time.perf_counter() - start, spans

    def execute(
        self,
        fields: np.ndarray,
        samples_from_fields=None,
        force_lossless: bool = False,
        stored: "CompressedBlob | None" = None,
    ) -> PipelineResult:
        """Run the full pipeline on a normalized field array.

        The reference forward the certificate needs depends on ``fields``
        only; when this process may use two CPUs and the field is not
        tiny, it is handed to the process-wide side lane while compress,
        decompress and the quantized forward run here, and is joined
        before the guard.  Otherwise (or if the lane, busy with another
        caller's work, has not started it by then) it runs inline after
        them.  The quantized forward queues half of its batch behind it.
        Results are bit-identical every way.

        Parameters
        ----------
        fields:
            Input data as stored (e.g. ``(V, H, W)`` variable planes or
            image batches).
        samples_from_fields:
            Callable reshaping fields into model-input samples; defaults
            to treating axis 0 as the variable axis of a field workload.
        force_lossless:
            Skip the lossy codec and store the fields losslessly — the
            degraded mode quarantined chunks fall back to.  Without it a
            corrupt decompression raises its typed error.
        stored:
            The blob a run already stored for ``fields`` (a journaled or
            remote chunk): it is decoded in place of a fresh compress.

        Returns
        -------
        PipelineResult
            Outputs, reference (uncompressed FP32) outputs, timings and
            the run's :class:`Certificate`.  ``extra["integrity"]``
            records whether the blob is a degraded lossless one;
            ``extra["audit"]`` holds the layerwise predicted-vs-observed
            record when auditing is enabled.
        """
        if samples_from_fields is None:
            samples_from_fields = _field_samples

        tracer, metrics = get_tracer(), get_metrics()
        with tracer.span(
            "pipeline.execute",
            codec=self.codec.name,
            norm=self.plan.norm,
            fmt=self.plan.fmt.name,
        ) as root:
            screen_finite(fields, stage="source", name="fields")
            self.model.eval()
            execute_context = tracer.inject(root)

            def reference_side() -> "tuple[np.ndarray, np.ndarray]":
                """The certificate's half: it reads ``fields`` only, so it
                runs beside the data path when the lane takes it.  On the
                lane thread the span stack is empty and the explicit
                parent applies; inline the span nests by itself."""
                with tracer.span("pipeline.reference", remote_parent=execute_context):
                    reference_samples = samples_from_fields(fields)
                    reference = self._forward_ref(reference_samples)
                return reference_samples, reference

            with side_lane().beside(
                reference_side, nbytes=getattr(fields, "nbytes", 0)
            ) as reference_result:
                blob, reconstructed, compress_seconds, decompress_seconds, spans = (
                    self._store_and_load(fields, force_lossless, stored)
                )

                samples = samples_from_fields(reconstructed)
                with tracer.span(
                    "pipeline.inference",
                    fmt=self.plan.fmt.name,
                    samples=int(len(samples)),
                    predicted_bound=float(self.plan.quant_bound),
                    backend=self.backend,
                ) as inference_span:
                    start = time.perf_counter()
                    outputs = self._forward_quant(samples)
                    inference_seconds = time.perf_counter() - start
                    inference_span.set(lanes=1 if self._forward_quant.last_split is None else 2)

            # the join: everything below needs both sides
            reference_samples, reference = reference_result()
            # before the field delta, so its buffer is free again by then
            qoi_error = _qoi_error(outputs, reference, self.plan.norm)
            delta = reference_samples - samples
            input_error_l2_max = (
                float(np.linalg.norm(delta, axis=1).max()) if delta.size else 0.0
            )
            input_error_linf = float(np.abs(delta, out=delta).max()) if delta.size else 0.0

            # The codec's pointwise contract is over the stored field array
            # in its native dtype — measure it there, not after the sample
            # cast.  The certificate's per-sample error is input_error_*.
            field_delta = np.subtract(fields, reconstructed, dtype=np.float64)
            np.abs(field_delta, out=field_delta)
            achieved = float(field_delta.max()) if field_delta.size else 0.0
            budget = float(self.plan.codec_tolerance)
            with tracer.span(
                "pipeline.guard",
                codec=self.codec.name,
                norm=self.plan.norm,
                predicted_bound=budget,
                observed_error=achieved,
                contract_slack=budget - achieved,
            ) as guard_span:
                screen_finite(outputs, stage="qoi", name="outputs")
                check_contract(
                    achieved,
                    budget,
                    codec=self.codec.name,
                    stage="decompress",
                    norm="linf",
                    slack=1e-9,
                )

            backend_info: dict = {"name": self.backend}
            if self._forward_quant.last_fallback_reason is not None:
                backend_info["fallback_quant"] = self._forward_quant.last_fallback_reason
            if self._forward_ref.last_fallback_reason is not None:
                backend_info["fallback_reference"] = self._forward_ref.last_fallback_reason
            if self._forward_quant.last_split is not None:
                backend_info["split"] = list(self._forward_quant.last_split)
            if self._forward_quant.last_op_seconds is not None:
                backend_info["op_labels"] = list(self._forward_quant.op_labels or [])
                backend_info["op_seconds"] = list(self._forward_quant.last_op_seconds)
                inference_span.set(
                    op_labels=backend_info["op_labels"], op_seconds=backend_info["op_seconds"]
                )

            result = PipelineResult(
                outputs=outputs,
                reference_outputs=reference,
                blob=blob,
                plan=self.plan,
                compress_seconds=compress_seconds,
                decompress_seconds=decompress_seconds,
                inference_seconds=inference_seconds,
                certificate=Certificate(
                    **_plan_terms(self.plan),
                    qoi_error=qoi_error,
                    input_error_linf=input_error_linf,
                    input_error_l2_max=input_error_l2_max,
                    codec_error=achieved,
                ),
                extra={
                    "integrity": {"degraded": bool(blob.metadata.get("degraded", False))},
                    "backend": backend_info,
                },
            )

            if tracer.enabled or metrics.enabled:
                # the observed errors complete the stage spans opened before them
                certificate = result.certificate
                for span in spans.values():  # compress (if it ran), decompress
                    span.set(observed_error=achieved)
                inference_span.set(observed_error=certificate.qoi_error)
                guard_span.set(
                    qoi_predicted_bound=certificate.qoi_tolerance,
                    qoi_observed_error=certificate.qoi_error,
                )
                root.set(
                    compression_ratio=result.compression_ratio,
                    predicted_bound=certificate.qoi_tolerance,
                    observed_error=certificate.qoi_error,
                    input_error=(
                        input_error_linf if self.plan.norm == "linf" else input_error_l2_max
                    ),
                    degraded=result.extra["integrity"]["degraded"],
                )
                metrics.counter("pipeline_executions_total", codec=self.codec.name).inc()
            auditor = get_auditor()
            if auditor.enabled:
                self._audit_execution(auditor, result, reference_samples, samples)
        return result

    def _audit_execution(
        self,
        auditor,
        result: PipelineResult,
        reference_samples: np.ndarray,
        samples: np.ndarray,
    ) -> None:
        """Layerwise predicted-vs-observed audit of one execution.

        Only reached when a live auditor is installed (the disabled cost
        is one attribute check in :meth:`execute`).  Runs both models
        again with capture hooks — roughly doubling inference cost for
        the audited run — and never kills the run it observes: audit
        failures degrade to a warning.
        """
        try:
            # One audit at a time: the recorder attaches capture hooks to
            # the shared model, so concurrent chunk workers would observe
            # each other's activations.
            with self._audit_lock:
                if self._audit_recorder is None:  # spec extraction pays once per pipeline
                    from ..obs.audit import LayerwiseErrorRecorder

                    self._audit_recorder = LayerwiseErrorRecorder(
                        self.model, self.quantized, np.shape(reference_samples)[1:],
                        quant_safety=auditor.quant_safety,
                    )
                record = self._audit_recorder.audit(
                    reference_samples, samples, loose_below=auditor.loose_below
                )
            record.codec = self.codec.name
            record.certificate = result.certificate
            record.metadata = {
                "compression_ratio": float(result.compression_ratio),
                "degraded": result.extra["integrity"]["degraded"],
                "samples": int(len(samples)),
            }
            auditor.record_run(record)
            result.extra["audit"] = record.to_dict()
        except ReproError as exc:
            get_logger("pipeline").warning(
                "audit skipped: could not evaluate the layerwise envelope",
                error=str(exc),
            )

    def execute_chunked(
        self,
        fields: np.ndarray,
        chunk_size: int,
        workers: int | None = None,
        chunk_axis: int = 0,
        samples_from_fields=None,
        *,
        executor: str = "auto",
        checkpoint: "str | None" = None,
        resume: bool = False,
        task_timeout: "float | None" = None,
        max_task_retries: int = 2,
        chaos=None,
        distrib=None,
    ) -> PipelineResult:
        """Run the pipeline over chunks of ``fields``, optionally in parallel:
        a :class:`~repro.core.chunked.ChunkRun` splits ``fields`` along
        ``chunk_axis`` into slabs of ``chunk_size`` and
        :meth:`~repro.core.chunked.ChunkRun.execute` (which documents the
        other arguments) runs each through :meth:`execute`'s path on the
        chosen executor.  ``chunk_axis`` must map slabs to contiguous blocks
        of samples under ``samples_from_fields``: axis 1 for the default
        ``(V, H, W)`` mapping, axis 0 for image batches.  The result holds
        the assembled outputs, in input order whatever the completion
        order, and the chunks' combined :class:`Certificate`.
        """
        if resume and checkpoint is None:
            raise ConfigurationError("resume=True requires a checkpoint directory")
        from .chunked import ChunkRun

        return ChunkRun(self, fields, chunk_size, chunk_axis, samples_from_fields).execute(
            workers=workers, executor=executor, checkpoint=checkpoint, resume=resume,
            task_timeout=task_timeout, max_task_retries=max_task_retries, chaos=chaos,
            distrib=distrib,
        )
