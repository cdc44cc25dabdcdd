"""Chunked execution: one run identity, one chunk path, three executors.

A :class:`ChunkRun` binds a pipeline to one field array and one chunking.
It owns what makes two chunked runs *the same computation* (split,
per-chunk input digests, manifest fingerprint), the run's output slab
and the single path a chunk takes to a
:class:`~repro.core.pipeline.PipelineResult`: :meth:`~ChunkRun.run_chunk`
computes it, :meth:`~ChunkRun.commit` makes it durable where it was
computed, :meth:`~ChunkRun.place` lands its rows in the slab and
:meth:`~ChunkRun.result_from_record` rebuilds it from a journaled or
remote record.  Pool tasks, the quarantine rerun, checkpoint replay and
the replay of remote results are these calls; :func:`run_supervised` (inline
for the serial executor, forked workers for the process one) and
:func:`run_distributed` only decide *where* they run, and the run's
outputs are the slab itself.  Every chunk computed on this host goes
through the supervised pool, so retry and quarantine are the same on
every single-host executor.
``InferencePipeline.execute_chunked`` and
:class:`~repro.distrib.worker.ShardWorker` build the same ``ChunkRun``,
which is why a coordinator and its workers agree on the manifest.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import mmap
import time

import numpy as np

from ..exceptions import ConfigurationError, IntegrityError, PlanningError
from ..io.checkpoint import CheckpointJournal, digest_array, digest_model
from ..io.serialization import blob_from_bytes, blob_to_bytes
from ..obs import get_auditor, get_logger, get_tracer
from ..obs.audit import AuditRecord
from ..perf.parallel import resolve_workers, usable_cpus
from ..resilience.guards import screen_finite
from ..resilience.inject import ChaosInjector
from ..resilience.retry import RetryPolicy
from ..resilience.supervisor import SupervisedPool, fork_available
from .pipeline import Certificate, PipelineResult, _field_samples, _plan_terms

__all__ = ["ChunkRun", "resolve_executor", "run_supervised", "split_chunks"]


def split_chunks(fields: np.ndarray, chunk_size: int, chunk_axis: int = 0) -> "list[np.ndarray]":
    """Split ``fields`` along ``chunk_axis`` into contiguous slabs.

    The one canonical chunking: ``execute_chunked`` and every
    distributed worker must produce identical slabs (and therefore
    identical per-chunk digests) or they are not running the same
    computation.
    """
    fields = np.asarray(fields)
    chunk_size = int(chunk_size)
    if chunk_size <= 0:
        raise PlanningError(f"chunk_size must be positive, got {chunk_size}")
    extent = fields.shape[chunk_axis]
    if extent == 0:
        raise PlanningError("cannot chunk an empty field array")
    return [
        np.ascontiguousarray(
            np.take(fields, np.arange(lo, min(lo + chunk_size, extent)), axis=chunk_axis)
        )
        for lo in range(0, extent, chunk_size)
    ]


def resolve_executor(executor: str, n_workers: int) -> str:
    """The concrete executor for a requested one.

    ``auto`` is serial for one worker or one usable CPU (forked workers
    sharing a core measured 0.52x serial), else the process pool where
    fork exists; ``distributed`` stays explicit.  There is no thread
    executor — docs/PERFORMANCE.md, "Worker pools and chunked
    execution", has the measurement.
    """
    if executor not in ("auto", "serial", "process", "distributed"):
        raise ConfigurationError(
            f"executor must be auto|serial|process|distributed, got {executor!r}"
        )
    if executor != "auto":
        return executor
    if n_workers <= 1 or usable_cpus() <= 1:
        return "serial"
    return "process" if fork_available() else "serial"


class ChunkRun:
    """One pipeline over one chunked field array.

    Parameters are ``execute_chunked``'s chunking arguments; whoever
    passes the same five builds the same run — same slabs, same digests,
    same manifest.
    """

    def __init__(
        self, pipeline, fields: np.ndarray, chunk_size: int, chunk_axis: int = 0,
        samples_from_fields=None,
    ) -> None:
        self.pipeline = pipeline
        self.chunk_size = int(chunk_size)
        self.chunk_axis = int(chunk_axis)
        self.samples_from_fields = samples_from_fields
        with get_tracer().span("chunked.prepare", step="split"):
            self.chunks = split_chunks(fields, self.chunk_size, self.chunk_axis)
        self._digests: "list[str] | None" = None
        self._slab: "tuple[np.ndarray, np.ndarray] | None" = None
        self._offsets: "list[int]" = []

    # -- identity ----------------------------------------------------------

    @property
    def digests(self) -> "list[str]":
        """Per-chunk input digests, computed on first use: only a journal
        or the distributed executor reads them."""
        if self._digests is None:
            self._digests = [digest_array(chunk) for chunk in self.chunks]
        return self._digests

    @property
    def manifest(self) -> dict:
        """Run identity for the checkpoint journal and the distributed
        handshake: every decision that makes two runs 'the same computation'
        — plan, codec and the arithmetic of its streams, chunking — plus
        per-chunk input digests."""
        codec = self.pipeline.codec
        return {
            "fingerprint": {
                "codec": codec.name,
                "precision": codec.stream_precision(self.chunks[0].dtype),
                **_plan_terms(self.pipeline.plan),
                "chunk_size": self.chunk_size,
                "chunk_axis": self.chunk_axis,
                "n_chunks": len(self.chunks),
            },
            "chunk_digests": list(self.digests),
        }

    # -- the output slab ---------------------------------------------------

    @property
    def slab(self) -> "tuple[np.ndarray, np.ndarray]":
        """The run's ``outputs`` and ``reference_outputs`` in anonymous
        shared mappings made on first use, chunk ``i`` in rows
        ``offsets[i]:offsets[i + 1]``: a pool worker forked after that
        writes its rows where the parent reads them.  Sizes come from the
        chunks' sample counts and both compiled forwards' output for one
        sample: both kernels compile here, before any pool worker forks."""
        if self._slab is None:
            to_samples = self.samples_from_fields or _field_samples
            first, last = self.chunks[0], self.chunks[-1]
            probe = to_samples(first)
            rows = [len(probe)] * (len(self.chunks) - 1)
            rows.append(len(probe if last.shape == first.shape else to_samples(last)))
            self._offsets = [0, *np.cumsum(rows).tolist()]
            self._slab = tuple(
                np.ndarray(shape, out.dtype, mmap.mmap(-1, max(1, out.itemsize * math.prod(shape))))
                for forward in (self.pipeline._forward_quant, self.pipeline._forward_ref)
                for out in [forward(probe[:1])]
                for shape in [(self._offsets[-1], *out.shape[1:])]
            )
        return self._slab

    def rows(self, index: int) -> "tuple[np.ndarray, np.ndarray]":
        """Chunk ``index``'s rows of the slab: outputs, reference outputs."""
        outputs, reference = self.slab
        lo, hi = self._offsets[index], self._offsets[index + 1]
        return outputs[lo:hi], reference[lo:hi]

    def place(self, index: int, result: PipelineResult) -> PipelineResult:
        """Land chunk ``index``'s rows in the slab; returns ``result`` over
        them.  A pool worker's report carries none (:meth:`pack` wrote
        them), so its rows are only attached."""
        outputs, reference = self.rows(index)
        if result.outputs is not None:
            for rows, values in ((outputs, result.outputs), (reference, result.reference_outputs)):
                if values.shape != rows.shape or values.dtype != rows.dtype:
                    raise PlanningError(f"chunk {index} rows are {values.dtype}{values.shape}, "
                                        f"its slab rows {rows.dtype}{rows.shape}")
                rows[...] = values
        return dataclasses.replace(result, outputs=outputs, reference_outputs=reference)

    def pack(self, index: int, result: PipelineResult) -> PipelineResult:
        """What a pool worker reports for chunk ``index``: ``result``
        without its rows, which go to the slab here — behind the chaos
        hooks and the commit, so the parent screens what landed."""
        self.place(index, result)
        return dataclasses.replace(result, outputs=None, reference_outputs=None)

    # -- the chunk path ----------------------------------------------------

    def run_chunk(self, index: int, force_lossless: bool = False) -> PipelineResult:
        """Compute one chunk.  ``force_lossless`` is the degraded mode a
        quarantined chunk falls back to."""
        chunk = self.chunks[index]
        with get_tracer().span("pipeline.chunk", rows=int(chunk.shape[self.chunk_axis])):
            return self.pipeline.execute(
                chunk, self.samples_from_fields, force_lossless=force_lossless
            )

    def screen(self, index: int, result: PipelineResult) -> None:
        """Re-screen a chunk result wherever it changes hands: execute's
        own guard ran before the chaos hooks, the commit and the pipe.  A
        packed result is screened in the slab rows its worker wrote."""
        outputs = self.rows(index)[0] if result.outputs is None else result.outputs
        screen_finite(outputs, stage="chunk", name="outputs")

    def commit(
        self,
        journal: "CheckpointJournal | None",
        index: int,
        result: PipelineResult,
        attempts: int = 1,
        quarantined: bool = False,
    ) -> "dict | None":
        """Make one certified-complete chunk durable: artifact, then its
        journal line — the commit record — in the process that computed it.

        The line holds what replay reads and nothing else: the input
        digest, attempts, quarantine flag and certificate, plus the chunk,
        artifact path and digest :meth:`CheckpointJournal.record` adds.
        Returns the journal entry as written (``None`` without a
        journal): a shard worker resends exactly this entry plus the
        artifact bytes.
        """
        if journal is None:
            return None
        self.screen(index, result)
        entry = {
            "input_digest": self.digests[index],
            "attempts": int(attempts),
            "quarantined": bool(quarantined),
            "certificate": result.certificate.to_dict(),
        }
        return journal.record(index, blob_bytes=blob_to_bytes(result.blob), entry=entry)

    def result_from_record(self, blob_bytes: bytes, entry: dict) -> PipelineResult:
        """A :class:`PipelineResult` from a journaled or remote chunk.

        ``blob_bytes`` is what the artifact stores, the chunk's serialized
        blob; ``entry`` the journal metadata, which names the chunk.  The
        blob runs through ``execute``'s post-store half on that chunk —
        the input the manifest digest pins: decode (CRC check, screen),
        quantized and reference forwards, input errors, contract guard,
        and the audit when one is live — and its certificate must be the
        entry's: the QoI error within the round-off of a reference
        recomputed on another host or backend, every other field exactly.
        Its timings and ``AuditRecord`` are this replay's, so a resumed
        run's registry holds what an uninterrupted one measured.  The
        rows land in the slab.
        """
        index = int(entry["chunk"])
        journaled = Certificate.from_dict(entry.get("certificate"))
        result = self.pipeline.execute(
            self.chunks[index], self.samples_from_fields, stored=blob_from_bytes(blob_bytes)
        )
        replayed = result.certificate
        slack = 1e-5 * max(1.0, float(np.abs(result.reference_outputs).max()))
        if (
            dataclasses.replace(replayed, qoi_error=journaled.qoi_error) != journaled
            or not abs(replayed.qoi_error - journaled.qoi_error) <= slack
        ):
            raise IntegrityError(
                f"chunk {index} replays with certificate {replayed} but its "
                f"journal entry certifies {journaled}: the entry and the "
                "artifact do not describe the same computation"
            )
        return self.place(index, result)

    # -- the whole run -----------------------------------------------------

    def execute(
        self,
        *,
        workers: "int | None" = None,
        executor: str = "auto",
        checkpoint: "str | None" = None,
        resume: bool = False,
        task_timeout: "float | None" = None,
        max_task_retries: int = 2,
        chaos=None,
        distrib=None,
    ) -> PipelineResult:
        """What ``InferencePipeline.execute_chunked`` delegates to: replay
        what ``checkpoint`` already holds, run the rest on the resolved
        executor, assemble: outputs over the slab, stage timings summed
        over chunks, the chunks' :meth:`Certificate.combine`, ``blob`` the
        first chunk's, and ``extra`` with ``"chunked"``, ``"supervision"``
        (whenever a chunk was computed here), ``"distrib"`` and
        ``"checkpoint"``.  With auditing on every chunk is audited as its
        own run where it is computed or replayed, and records from forked
        pool workers are stored by the parent auditor: one registry entry
        per chunk.

        Parameters
        ----------
        workers:
            ``None``/1 = serial, ``0`` = one per usable CPU, else literal.
        executor:
            ``"serial"`` — the :class:`~repro.resilience.supervisor.
            SupervisedPool`'s in-process loop (retry/backoff, quarantine);
            ``"process"`` — the same pool over forked workers (plus
            deadlines, respawn, breaker); ``"distributed"`` — chunks leased
            to remote workers by a :class:`~repro.distrib.coordinator.
            ShardCoordinator`, degrading to the local pool if no worker
            joins; ``"auto"`` (default) — :func:`resolve_executor`.
        checkpoint:
            Directory of a :class:`~repro.io.checkpoint.CheckpointJournal`:
            each certified-complete chunk is persisted (its serialized
            blob, then its journal line) by the process that computed it.
            The distributed executor refuses one: each shard worker
            journals what it computes.
        resume:
            Verify that ``checkpoint`` journals this exact computation,
            replay its chunks (:meth:`result_from_record`) and compute only
            the rest.
        task_timeout:
            Per-chunk deadline in seconds (forked workers only), from when
            a worker starts the chunk; expiry kills it and retries it.
        max_task_retries:
            Retry budget per chunk before quarantine, on every executor; a
            quarantined chunk re-runs in the parent in degraded lossless mode.
        chaos:
            Optional :class:`~repro.resilience.inject.ChaosInjector` for the
            pool workers (default: the ``REPRO_CHAOS`` spec); process
            executor only.
        distrib:
            Optional :class:`~repro.distrib.coordinator.DistribConfig`.
        """
        pipeline = self.pipeline
        n_workers = resolve_workers(workers)
        requested_executor = executor
        executor = resolve_executor(executor, n_workers)
        if distrib is not None and executor != "distributed":
            raise ConfigurationError(
                f"distrib configuration requires executor='distributed', got {executor!r}"
            )
        if executor == "distributed" and checkpoint is not None:
            raise ConfigurationError(
                "the distributed executor keeps no checkpoint journal: each "
                "shard worker journals what it computes"
            )
        if chaos is None:
            chaos = ChaosInjector.from_env()
        if chaos is not None and executor != "process":
            raise ConfigurationError(
                "chaos injection simulates worker faults and requires the "
                f"process executor (resolved executor: {executor!r})"
            )
        # eval() once up front: workers must not mutate module state.
        pipeline.model.eval()

        tracer = get_tracer()
        journal = None
        completed_entries: dict = {}
        with tracer.span("chunked.prepare", step="journal" if checkpoint else "slab"):
            if checkpoint is not None:
                journal = CheckpointJournal(checkpoint)
                completed_entries = journal.begin(self.manifest, resume=resume)
            outputs, reference = self.slab
        wall_start = time.perf_counter()
        with tracer.span(
            "pipeline.execute_chunked",
            codec=pipeline.codec.name,
            chunks=len(self.chunks),
            chunk_size=self.chunk_size,
            workers=n_workers,
            executor=executor,
            resumed=len(completed_entries),
        ) as root:
            results: "dict[int, PipelineResult]" = {
                index: self.result_from_record(journal.load(entry), entry)
                for index, entry in sorted(completed_entries.items())
            }
            pending = [i for i in range(len(self.chunks)) if i not in results]

            supervision = None
            distrib_summary = None
            if executor == "distributed":
                distrib_summary, remote = run_distributed(self, distrib)
                results.update(remote)
                pending = [i for i in pending if i not in results]
            if pending or executor != "distributed":
                # serial, process, or what a distributed run with no
                # (surviving) workers left behind (chaos is None there by
                # construction)
                supervision, outcomes = run_supervised(
                    self, pending, journal, workers=1 if executor == "serial" else n_workers,
                    chaos=chaos, task_timeout=task_timeout,
                    max_task_retries=max_task_retries,
                )
                auditor = get_auditor()
                for index, outcome in outcomes.items():
                    audit = outcome.result.extra.get("audit")
                    if auditor.enabled and audit and not outcome.inline:
                        # audited in a forked worker: register it here
                        outcome.result.extra["audit"] = auditor.record_run(
                            AuditRecord.from_dict(audit)
                        ).to_dict()
                    results[index] = outcome.result

            wall_seconds = time.perf_counter() - wall_start
            ordered = [results[index] for index in range(len(self.chunks))]

            raw_total = sum(
                int(np.prod(r.blob.shape)) * np.dtype(r.blob.dtype).itemsize for r in ordered
            )
            compressed_total = sum(len(r.blob.payload) for r in ordered)
            aggregate_ratio = raw_total / compressed_total if compressed_total else float("inf")
            root.set(compression_ratio=aggregate_ratio, wall_seconds=wall_seconds)

        extra = {
            "integrity": {"degraded": any(r.extra["integrity"]["degraded"] for r in ordered)},
            "chunked": {
                "n_chunks": len(self.chunks),
                "chunk_size": self.chunk_size,
                "chunk_axis": self.chunk_axis,
                "workers": n_workers,
                "executor": executor,
                "requested_executor": requested_executor,
                "wall_seconds": wall_seconds,
                "compression_ratio": aggregate_ratio,
            },
        }
        if supervision is not None:
            extra["supervision"] = supervision
        if distrib_summary is not None:
            extra["distrib"] = distrib_summary
        if journal is not None:
            extra["checkpoint"] = {
                "path": journal.path,
                "resumed": bool(resume),
                "replayed_chunks": len(completed_entries),
                "computed_chunks": len(self.chunks) - len(completed_entries),
            }

        return PipelineResult(
            outputs=outputs,
            reference_outputs=reference,
            blob=ordered[0].blob,
            plan=pipeline.plan,
            compress_seconds=sum(r.compress_seconds for r in ordered),
            decompress_seconds=sum(r.decompress_seconds for r in ordered),
            inference_seconds=sum(r.inference_seconds for r in ordered),
            certificate=Certificate.combine(r.certificate for r in ordered),
            extra=extra,
        )


# -- executors: where the chunk path runs -------------------------------------


def run_supervised(
    run: ChunkRun,
    pending: "list[int]",
    journal: "CheckpointJournal | None" = None,
    *,
    workers: "int | None" = None,
    task_timeout: "float | None" = None,
    max_task_retries: int = 2,
    chaos=None,
    label: str = "pipeline",
) -> "tuple[dict, dict]":
    """Compute ``pending`` chunks on the supervised pool, keyed by chunk
    index: inline for ``workers <= 1``, else on forked workers.

    Each worker commits its own chunks (:meth:`ChunkRun.commit` runs in
    the child, which inherited the chunks and the slab by fork), then
    writes their rows to the slab: only the chunk index and the packed
    result — blob, scalars, audit — cross a pipe, and the parent
    re-screens the rows where they landed.  A failed chunk is retried
    under ``max_task_retries``; a quarantined one re-runs in the parent
    in degraded lossless mode — every chunk ends up certified, some at
    compression ratio 1.  Returns the supervision summary and one
    :class:`~repro.resilience.supervisor.TaskOutcome` per chunk index:
    ``result`` is the chunk's result over its slab rows, ``committed``
    its journal entry.
    """

    pool = SupervisedPool(
        run.run_chunk,
        workers=workers,
        task_timeout=task_timeout,
        retry=RetryPolicy(max_retries=max_task_retries),
        chaos=chaos,
        validate=run.screen,
        commit=functools.partial(run.commit, journal) if journal is not None else None,
        pack=run.pack,
        label=label,
    )
    run.slab  # mapped before the pool forks
    report = pool.run(pending)
    outcomes = report.outcomes
    for index, outcome in outcomes.items():
        if not outcome.quarantined:
            outcome.result = run.place(index, outcome.result)

    for index in report.quarantined:
        outcome = outcomes[index]  # errored, quarantined: give it a result
        get_logger("pipeline").warning(
            "quarantined chunk degrading to fallback-lossless in-process",
            pool=label, chunk=index, attempts=outcome.attempts, reason=outcome.error,
        )
        outcome.result = run.place(index, run.run_chunk(index, force_lossless=True))
        outcome.inline = True
        outcome.committed = run.commit(
            journal, index, outcome.result, attempts=outcome.attempts, quarantined=True
        )

    return report.summary(), outcomes


def run_distributed(run: ChunkRun, config=None) -> "tuple[dict, dict[int, PipelineResult]]":
    """Serve every chunk of ``run`` as leases to shard workers.

    Blocks until the coordinator run resolves and returns its summary
    plus every accepted remote result, replayed from the coordinator's
    in-memory artifacts; chunks missing from it are the caller's to
    degrade to the local supervised pool.
    """
    from ..distrib.coordinator import DistribConfig, ShardCoordinator

    coordinator = ShardCoordinator(
        run.manifest,
        weights=digest_model(run.pipeline.model),
        config=config if config is not None else DistribConfig(),
    )
    summary = coordinator.run()
    results = {
        index: run.result_from_record(coordinator.payload(index), entry)
        for index, entry in sorted(coordinator.accepted.items())
    }
    remaining = len(run.chunks) - len(results)
    if remaining:
        get_logger("pipeline").warning(
            "distributed run left chunks unfinished; degrading to the local supervised pool",
            outcome=summary.get("outcome"),
            remaining=remaining,
        )
    return summary, results
