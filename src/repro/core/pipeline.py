"""End-to-end error-bounded inference pipeline (paper Fig. 1).

``store -> (compressed blob) -> load -> decompress -> quantized model``

The pipeline wires a plan from :class:`~repro.core.planner.TolerancePlanner`
to a codec and a quantized model, measures wall-clock stage timings and
achieved errors, and verifies that the end-to-end QoI error stays inside
the user's tolerance — the paper's central claim.

Runtime guards make that claim *checked*, not assumed: decompressed
inputs and QoI outputs are screened for NaN/Inf, and the achieved input
error is compared against the codec's pointwise budget, raising a
structured :class:`~repro.exceptions.ContractViolation` on breach.  Every
plan asks the codec for a pointwise (ABS) bound: an L2 plan's per-sample
budget ``tau`` becomes ``tau / sqrt(n_0)`` (``plan.codec_tolerance``),
which holds ``||Delta x_i||_2 <= tau`` for every sample and so composes
across chunks.  ``execute`` makes one attempt and raises the typed error;
recovery — retry, then a lossless rerun of the chunk — is the supervised
pool's, which is what ``execute_chunked`` runs on every single-host
executor.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..compress.base import CompressedBlob, Compressor, ErrorBoundMode
from ..exceptions import ConfigurationError, ReproError
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
    input_error_linf: float
    input_error_l2_max: float
    extra: dict = field(default_factory=dict)

    @property
    def compression_ratio(self) -> float:
        return self.blob.compression_ratio

    def qoi_error(self, norm: str = "linf", relative: bool = True) -> float:
        """Worst per-sample QoI error of this run."""
        if norm not in ("linf", "l2"):
            raise ValueError(f"norm must be 'linf' or 'l2', got {norm!r}")
        delta = (self.outputs - self.reference_outputs).reshape(len(self.outputs), -1)
        if norm == "linf":  # the largest per-sample maximum is the global one
            worst = float(np.abs(delta).max(initial=0.0))
        else:
            worst = float(np.linalg.norm(delta, axis=1).max(initial=0.0))
        if not relative:
            return worst
        reference = self.reference_outputs.reshape(len(self.reference_outputs), -1)
        if norm == "linf":
            scale = np.abs(reference).max()
        else:
            scale = float(np.linalg.norm(reference, axis=1).max())
        return worst / scale if scale > 0 else worst


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
    screen:
        Disable to skip NaN/Inf screening and contract checking
        (measurement-only runs on data known to be dirty).
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
        screen: bool = True,
        backend: "str | None" = None,
        instrument_ops: "bool | None" = None,
    ) -> None:
        self.model = model
        self.codec = codec
        self.plan = plan
        self.screen = screen
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
        return self.codec.safe_decompress(blob, screen=self.screen)

    def _store_and_load(
        self, fields: np.ndarray, force_lossless: bool = False
    ) -> tuple[CompressedBlob, np.ndarray, float, float, dict]:
        """Compress + decompress once; a failed screen raises.

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
        else:
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
            degraded=force_lossless,
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

        Returns
        -------
        PipelineResult
            Outputs, reference (uncompressed FP32) outputs, timings and
            achieved input errors.  ``extra["integrity"]`` records what
            the guards observed; ``extra["audit"]`` holds the layerwise
            predicted-vs-observed record when auditing is enabled.
        """
        if samples_from_fields is None:
            samples_from_fields = _field_samples

        tracer = get_tracer()
        metrics = get_metrics()
        with tracer.span(
            "pipeline.execute",
            codec=self.codec.name,
            norm=self.plan.norm,
            fmt=self.plan.fmt.name,
        ) as root:
            if self.screen:
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
                    self._store_and_load(fields, force_lossless=force_lossless)
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
            delta = reference_samples - samples
            input_error_linf = float(np.abs(delta).max()) if delta.size else 0.0
            input_error_l2_max = (
                float(np.linalg.norm(delta, axis=1).max()) if delta.size else 0.0
            )

            integrity: dict = {
                "screened": self.screen,
                "degraded": bool(blob.metadata.get("degraded", False)),
            }
            # The codec's pointwise contract is over the stored field array
            # in its native dtype — measure it there, not after the sample
            # cast.  The certificate's per-sample error is input_error_*.
            if self.screen or tracer.enabled:
                field_delta = np.subtract(fields, reconstructed, dtype=np.float64)
                np.abs(field_delta, out=field_delta)
                achieved = float(field_delta.max()) if field_delta.size else 0.0
            else:
                achieved = float("nan")
            budget = float(self.plan.codec_tolerance)
            with tracer.span(
                "pipeline.guard",
                codec=self.codec.name,
                norm=self.plan.norm,
                predicted_bound=budget,
                observed_error=achieved,
                contract_slack=budget - achieved,
                screened=self.screen,
            ) as guard_span:
                if self.screen:
                    screen_finite(outputs, stage="qoi", name="outputs")
                    integrity["input_contract"] = {
                        "norm": "linf",
                        "expected": budget,
                        "achieved": achieved,
                    }
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
                input_error_linf=input_error_linf,
                input_error_l2_max=input_error_l2_max,
                extra={"integrity": integrity, "backend": backend_info},
            )

            if tracer.enabled or metrics.enabled:
                self._record_telemetry(
                    tracer, metrics, result, spans, inference_span, guard_span, root,
                    observed_input_error=achieved,
                )
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
                record = self._audit_recorder_for(reference_samples, auditor).audit(
                    reference_samples, samples, loose_below=auditor.loose_below
                )
            record.codec = self.codec.name
            record.fmt = self.plan.fmt.name
            record.norm = self.plan.norm
            record.qoi_tolerance = float(self.plan.qoi_tolerance)
            record.input_tolerance = float(self.plan.input_tolerance)
            integrity = result.extra.get("integrity", {})
            record.metadata = {
                "compression_ratio": float(result.compression_ratio),
                "degraded": bool(integrity.get("degraded", False)),
                "samples": int(len(samples)),
            }
            auditor.record_run(record)
            result.extra["audit"] = record.to_dict()
        except ReproError as exc:
            get_logger("pipeline").warning(
                "audit skipped: could not evaluate the layerwise envelope",
                error=str(exc),
            )

    def _audit_recorder_for(self, reference_samples: np.ndarray, auditor):
        """Cached lockstep recorder (spec extraction pays once per
        pipeline).  Caller must hold ``_audit_lock``."""
        if self._audit_recorder is None:
            from ..obs.audit import LayerwiseErrorRecorder

            self._audit_recorder = LayerwiseErrorRecorder(
                self.model,
                self.quantized,
                np.shape(reference_samples)[1:],
                quant_safety=auditor.quant_safety,
            )
        return self._audit_recorder

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
        """Run the pipeline over chunks of ``fields``, optionally in parallel.

        ``fields`` is split along ``chunk_axis`` into slabs of
        ``chunk_size``; each slab runs the full compress → decompress →
        infer path independently (a :class:`~repro.core.chunked.ChunkRun`
        owns the split, the run's identity and the path a chunk takes).
        Results come back in input order regardless of completion order,
        so the assembled outputs are deterministic.

        Both norms compose per chunk: the codec's budget is pointwise and
        the certificate's input errors are per-sample maxima, so the max
        over slab-wise maxima equals the global one.

        With auditing on (:func:`repro.obs.enable_audit`) every chunk is
        audited as its own run; records from pool workers, remote workers
        or a replayed checkpoint are adopted into the parent auditor, so
        record list and run registry end up with one entry per chunk.

        Parameters
        ----------
        fields:
            Input data as stored (same contract as :meth:`execute`).
        chunk_size:
            Slab extent along ``chunk_axis``.
        workers:
            ``None``/1 = serial, ``0`` = one per usable CPU, else literal.
        chunk_axis:
            Axis to split: the one whose slabs map to contiguous blocks
            of model samples under ``samples_from_fields`` (axis 1 for
            the default ``(V, H, W)`` mapping, axis 0 for image batches).
        samples_from_fields:
            Same reshaping callable as :meth:`execute`, applied per chunk.
        executor:
            ``"serial"`` — the :class:`~repro.resilience.supervisor.
            SupervisedPool`'s in-process loop (retry/backoff,
            quarantine); ``"process"`` — the same pool over forked
            workers (plus deadlines, respawn, breaker);
            ``"distributed"`` — chunks leased to remote workers by a
            :class:`~repro.distrib.coordinator.ShardCoordinator`,
            degrading to the local pool if no worker joins; ``"auto"``
            (default) — :func:`~repro.core.chunked.resolve_executor`.
            ``extra["chunked"]`` records the one requested and the one used.
        checkpoint:
            Directory of a :class:`~repro.io.checkpoint.CheckpointJournal`:
            every certified-complete chunk is persisted (atomic artifact
            of outputs + blob, then its journal line) as it finishes, by
            the process that computed it.  ``None`` disables.
        resume:
            Verify that ``checkpoint`` journals this exact computation
            (plan fingerprint + per-chunk input digests), replay its
            chunks — reference outputs are recomputed and must reproduce
            the journaled QoI error — and compute only the rest.
        task_timeout:
            Per-chunk deadline in seconds (forked workers only), from when
            a worker starts the chunk; expiry kills it and retries the chunk.
        max_task_retries:
            Retry budget per chunk before quarantine, on every executor;
            a quarantined chunk re-runs in the parent in degraded
            lossless mode instead of failing the run.
        chaos:
            Optional :class:`~repro.resilience.inject.ChaosInjector` for
            the pool workers (tests/CI; default: the ``REPRO_CHAOS`` spec).
            In distributed mode chaos belongs to the worker processes.
        distrib:
            Optional :class:`~repro.distrib.coordinator.DistribConfig`
            for the distributed executor.

        Returns
        -------
        PipelineResult
            Concatenated outputs; stage timings summed over chunks, input
            errors slab-wise maxima (exact: both are per-sample), ``blob``
            the first chunk's, and ``extra`` with ``"chunked"`` (pool
            configuration + aggregate ratio), ``"supervision"`` (whenever
            a chunk was computed here), ``"distrib"`` and ``"checkpoint"``
            (path + replay counts).
        """
        if resume and checkpoint is None:
            raise ConfigurationError("resume=True requires a checkpoint directory")
        from .chunked import ChunkRun

        return ChunkRun(self, fields, chunk_size, chunk_axis, samples_from_fields).execute(
            workers=workers, executor=executor, checkpoint=checkpoint, resume=resume,
            task_timeout=task_timeout, max_task_retries=max_task_retries, chaos=chaos,
            distrib=distrib,
        )

    def _record_telemetry(
        self,
        tracer,
        metrics,
        result: PipelineResult,
        spans: dict,
        inference_span,
        guard_span,
        root,
        observed_input_error: float,
    ) -> None:
        """Post-hoc span enrichment + the execution counter (observability
        on only).

        Observed errors are only known once the reconstruction and the
        reference outputs exist, so the stage spans created earlier are
        completed here — every stage span carries both its predicted
        bound and the error actually observed.
        """
        qoi_error = result.qoi_error(self.plan.norm, relative=False)
        input_error = (
            result.input_error_linf if self.plan.norm == "linf" else result.input_error_l2_max
        )
        if "compress" in spans:
            spans["compress"].set(observed_error=observed_input_error)
        if "decompress" in spans:
            spans["decompress"].set(observed_error=observed_input_error)
        inference_span.set(observed_error=qoi_error)
        guard_span.set(qoi_predicted_bound=float(self.plan.qoi_tolerance), qoi_observed_error=qoi_error)
        root.set(
            compression_ratio=result.compression_ratio,
            predicted_bound=float(self.plan.qoi_tolerance),
            observed_error=qoi_error,
            input_error=input_error,
            degraded=result.extra["integrity"]["degraded"],
        )
        metrics.counter("pipeline_executions_total", codec=self.codec.name).inc()
