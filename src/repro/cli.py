"""Command-line interface: ``python -m repro <command>``.

Commands mirror the paper's workflow:

* ``analyze``     — spectral norms, Eq. (5) gain and per-format bounds of
                    a trained workload;
* ``plan``        — allocate a QoI tolerance between quantization and
                    compression;
* ``pipeline``    — run the full error-bounded inference pipeline;
* ``compress`` /
  ``decompress``  — error-bounded (de)compression of ``.npy`` arrays;
* ``store``       — summarize a :class:`~repro.io.DatasetStore` directory;
* ``audit``       — predicted-vs-observed error audits: ``report``
                    summarizes a registry and checks drift, ``diff``
                    compares the bound tightness of two runs;

Observability is wired through global flags: ``--trace FILE`` writes a
JSONL span trace of the run, ``--trace-summary`` prints the span tree to
stderr, ``--audit FILE`` audits every pipeline execution into a JSONL
run registry (``pipeline`` then logs each record's verdict and exits 1
on a violation), and ``--log-level`` adjusts verbosity.  All
human-readable output goes through the structured logger; at the default
level its ``plain`` format matches the historical ``print()`` output
byte for byte.

Telemetry files are flushed even when a command raises: export and
teardown run in nested ``finally`` blocks, so a crashed run still
leaves its trace and audit registry on disk and the process never exits
with live observability singletons installed.
"""

import argparse
import sys

from . import __version__

__all__ = ["main", "build_parser"]


class _CliLogger:
    """The ``cli`` logger, resolved on first use, so that ``--help`` and
    ``--version`` load no telemetry."""

    def __getattr__(self, name: str):
        from .obs import get_logger

        return getattr(get_logger("cli"), name)


_LOG = _CliLogger()

# Choices and defaults whose homes import numpy or the telemetry layer, as
# literals, so building the parser imports neither; tests/test_cold_start.py
# pins each to its home (workloads, quant, compress, obs.registry).
_WORKLOADS = tuple("h2combustion borghesi eurosat".split())
_FORMATS = tuple("fp32 tf32 fp16 bf16 int8".split())
_BOUND_MODES = tuple("abs rel l2_abs l2_rel".split())
_DRIFT_THRESHOLD = 0.2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Error-controlled neural inference on reduced scientific data",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    parser.add_argument(
        "--trace", metavar="FILE", default=None,
        help="record a span trace of the run and write it as JSONL",
    )
    parser.add_argument(
        "--trace-summary", action="store_true",
        help="print the span tree to stderr after the command",
    )
    parser.add_argument(
        "--audit", metavar="FILE", default=None,
        help="audit every pipeline execution (predicted-vs-observed "
        "layerwise bounds) into this JSONL run registry, labelled with "
        "the workload; a violated bound exits 1",
    )
    parser.add_argument(
        "--instrument-ops", action="store_true",
        help="compile the fused backend's per-op timing variant: the "
        "pipeline.inference span carries op_labels and op_seconds "
        "(fused backend only)",
    )
    parser.add_argument(
        "--log-level", choices=("debug", "info", "warning", "error"), default="info",
        help="minimum severity printed (default: info)",
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="forward-pass execution backend: auto|reference|fused "
        "(default: env REPRO_BACKEND, else auto = fused; the compiled "
        "backend is bit-identical to reference and falls back to it "
        "when hooks or unsupported modules appear)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    analyze = commands.add_parser("analyze", help="error-flow analysis of a workload")
    analyze.set_defaults(handler=_cmd_analyze)
    analyze.add_argument("workload", choices=_WORKLOADS)
    analyze.add_argument("--calibrate", action="store_true",
                         help="tighten bounds with measured signal norms")
    analyze.add_argument("--verbose", action="store_true",
                         help="include the per-layer model report")

    plan = commands.add_parser("plan", help="allocate a QoI tolerance")
    plan.set_defaults(handler=_cmd_plan)
    plan.add_argument("workload", choices=_WORKLOADS)
    plan.add_argument("--tolerance", type=float, required=True)
    plan.add_argument("--norm", choices=("linf", "l2"), default="linf")
    plan.add_argument("--fraction", type=float, default=0.5,
                      help="share of the tolerance allocated to quantization")

    pipeline = commands.add_parser("pipeline", help="run the full pipeline")
    pipeline.set_defaults(handler=_cmd_pipeline)
    pipeline.add_argument("workload", choices=_WORKLOADS)
    pipeline.add_argument("--tolerance", type=float, required=True)
    pipeline.add_argument("--norm", choices=("linf", "l2"), default="linf")
    pipeline.add_argument("--codec", choices=("sz", "zfp", "mgard"), default="sz")
    pipeline.add_argument("--fraction", type=float, default=0.5,
                          help="share of the tolerance allocated to quantization")
    pipeline.add_argument("--fmt", choices=_FORMATS, default=None,
                          help="force a weight format instead of letting the "
                          "planner rank candidates")
    pipeline.add_argument(
        "--chunk-size", type=int, default=None,
        help="run chunked: split the fields into slabs of this extent "
        "(positive integer; default: sized so every worker gets one slab)",
    )
    pipeline.add_argument(
        "--workers", type=int, default=None,
        help="worker count for chunked execution (positive integer; "
        "default: 1 = serial); implies chunked mode when --chunk-size "
        "is omitted",
    )
    pipeline.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-chunk deadline in the supervised process pool; a worker "
        "exceeding it is killed and the chunk retried (default: none)",
    )
    pipeline.add_argument(
        "--max-retries", type=int, default=2,
        help="retry budget per chunk before quarantine, on every executor "
        "(quarantined chunks degrade to fallback-lossless in-process; "
        "default: 2)",
    )
    pipeline.add_argument(
        "--executor", choices=("auto", "serial", "process"),
        default="auto",
        help="chunked execution engine (default: auto = supervised "
        "process pool when --workers > 1 and fork is available)",
    )
    pipeline.add_argument(
        "--checkpoint", metavar="DIR", default=None,
        help="journal every certified-complete chunk into this directory "
        "so a killed run can be resumed; implies chunked mode",
    )
    pipeline.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint DIR: verify the journal against "
        "this run's plan and inputs, replay completed chunks, recompute "
        "only the rest",
    )

    compress = commands.add_parser("compress", help="compress a .npy array")
    compress.set_defaults(handler=_cmd_compress)
    compress.add_argument("input", help="path to a .npy file")
    compress.add_argument("--out", required=True, help="output .rblob path")
    compress.add_argument("--codec", choices=("sz", "zfp", "mgard"), default="sz")
    compress.add_argument("--tolerance", type=float, required=True)
    compress.add_argument(
        "--mode", choices=_BOUND_MODES, default="abs"
    )

    decompress = commands.add_parser("decompress", help="decompress an .rblob")
    decompress.set_defaults(handler=_cmd_decompress)
    decompress.add_argument("input", help="path to an .rblob file")
    decompress.add_argument("--out", required=True, help="output .npy path")

    store = commands.add_parser("store", help="summarize a DatasetStore directory")
    store.set_defaults(handler=_cmd_store)
    store.add_argument("directory")

    audit = commands.add_parser(
        "audit", help="predicted-vs-observed error audits and drift reports"
    )
    audit_cmds = audit.add_subparsers(dest="audit_command", required=True)

    report = audit_cmds.add_parser(
        "report", help="summarize a run registry and detect tightness drift"
    )
    report.set_defaults(handler=_cmd_audit_report)
    report.add_argument("registry", help="JSONL registry written by --audit")
    report.add_argument("--last", type=int, default=10,
                        help="number of most recent runs to list")
    report.add_argument("--threshold", type=float, default=_DRIFT_THRESHOLD,
                        help="relative tightness increase flagged as drift "
                        f"(default: {_DRIFT_THRESHOLD})")

    diff = audit_cmds.add_parser(
        "diff", help="compare the bound tightness of two registered runs"
    )
    diff.set_defaults(handler=_cmd_audit_diff)
    diff.add_argument("run_a", help="baseline run id (e.g. run-0001) or index")
    diff.add_argument("run_b", help="candidate run id or index")
    diff.add_argument("--registry", required=True,
                      help="JSONL registry holding both runs")
    diff.add_argument("--threshold", type=float, default=_DRIFT_THRESHOLD,
                      help="relative tightness increase flagged as regression "
                      f"(default: {_DRIFT_THRESHOLD})")

    return parser


def _cmd_analyze(args) -> int:
    from .quant import STANDARD_FORMATS
    from .workloads import load_workload

    workload = load_workload(args.workload)
    analyzer = workload.qoi_analyzer()
    if args.calibrate:
        analyzer.calibrate(workload.dataset.test_inputs)
    sigmas = [f"{s:.3f}" for s in analyzer.layer_sigmas()]
    _LOG.info(f"workload: {workload.name} (variant {workload.variant})")
    _LOG.info(f"layers: {len(sigmas)}  sigmas: {', '.join(sigmas)}")
    _LOG.info(f"Eq. (5) gain: {analyzer.gain():.3f}")
    calibrated = " (calibrated)" if analyzer.is_calibrated else ""
    _LOG.info(f"quantization bounds{calibrated}:")
    for name in ("tf32", "fp16", "bf16", "int8"):
        bound = analyzer.quantization_bound(STANDARD_FORMATS[name])
        _LOG.info(f"  {name:>5s}: {bound:.4e}")
    if args.verbose:
        from .reporting import describe_model

        _LOG.info("")
        _LOG.info(describe_model(workload.qoi_model()))
    return 0


def _cmd_plan(args) -> int:
    from .core import TolerancePlanner
    from .workloads import load_workload

    workload = load_workload(args.workload)
    planner = TolerancePlanner(workload.qoi_analyzer())
    plan = planner.plan(args.tolerance, norm=args.norm, quant_fraction=args.fraction)
    _LOG.info(plan.describe())
    _LOG.info(f"compression budget: {plan.compression_budget:.4e}")
    return 0


def _validate_chunk_flags(args) -> None:
    """Reject malformed chunking flags with a clear typed error instead
    of a deep traceback from the execution layers."""
    from .exceptions import ConfigurationError

    if args.chunk_size is not None and args.chunk_size <= 0:
        raise ConfigurationError(
            f"--chunk-size must be a positive integer, got {args.chunk_size}"
        )
    if args.workers is not None and args.workers <= 0:
        raise ConfigurationError(
            f"--workers must be a positive integer, got {args.workers}"
        )
    if args.max_retries < 0:
        raise ConfigurationError(
            f"--max-retries must be >= 0, got {args.max_retries}"
        )
    if args.task_timeout is not None and args.task_timeout <= 0:
        raise ConfigurationError(
            f"--task-timeout must be positive, got {args.task_timeout}"
        )
    if args.resume and not args.checkpoint:
        raise ConfigurationError("--resume requires --checkpoint DIR")


def _build_pipeline(args):
    """``(workload, pipeline)`` from the plan flags.  ``--fmt`` forces the
    weight format: the planner may rank only that one, and falling back
    to another is refused, because an audit of a format the planner
    would have rejected is exactly the point of forcing it."""
    from .compress import get_compressor
    from .core import InferencePipeline, TolerancePlanner
    from .nn.backend import resolve_backend_name
    from .workloads import load_workload

    # validate eagerly so a typo fails before any work starts, with the
    # same typed error the execution layers would raise
    resolve_backend_name(args.backend)
    workload = load_workload(args.workload)
    _LOG.debug("workload loaded", workload=workload.name, variant=workload.variant)
    analyzer = workload.qoi_analyzer()
    fmt = args.fmt
    if fmt is None:
        planner, fraction = TolerancePlanner(analyzer), args.fraction
    else:
        planner, fraction = TolerancePlanner(analyzer, format_ranking=(fmt,)), 1.0
    plan = planner.plan(args.tolerance, norm=args.norm, quant_fraction=fraction)
    if fmt is not None and plan.fmt.name != fmt:  # the planner fell back to fp32
        from .exceptions import ToleranceError
        from .quant import STANDARD_FORMATS

        bound = analyzer.quantization_bound(STANDARD_FORMATS[fmt], args.norm)
        raise ToleranceError(
            f"quantization bound {bound:.3e} exceeds the QoI tolerance "
            f"{args.tolerance:.3e}; no compression budget remains"
        )
    pipeline = InferencePipeline(
        workload.qoi_model(), get_compressor(args.codec), plan,
        backend=args.backend, instrument_ops=args.instrument_ops,
    )
    return workload, pipeline


def _tolerance_verdict(result) -> int:
    """Log the run's certificate against ``--tolerance``; the exit code."""
    cert = result.certificate
    _LOG.info(f"achieved QoI error: {cert.qoi_error:.4e} (tolerance {cert.qoi_tolerance:.1e})")
    if not cert.holds:
        _LOG.error("TOLERANCE VIOLATED")
        return 1
    _LOG.info("tolerance honoured")
    return 0


def _cmd_pipeline(args) -> int:
    _validate_chunk_flags(args)
    workload, pipeline = _build_pipeline(args)
    dataset = workload.dataset
    chunked_mode = (
        args.chunk_size is not None
        or args.workers is not None
        or args.checkpoint is not None
    )
    if chunked_mode:
        from .perf.parallel import resolve_workers

        extent = dataset.fields.shape[dataset.chunk_axis]
        workers = resolve_workers(args.workers)
        chunk_size = args.chunk_size or max(1, -(-extent // max(workers, 2)))
        result = pipeline.execute_chunked(
            dataset.fields,
            chunk_size=chunk_size,
            workers=args.workers,
            chunk_axis=dataset.chunk_axis,
            samples_from_fields=dataset.fields_as_samples,
            executor=args.executor,
            checkpoint=args.checkpoint,
            resume=args.resume,
            task_timeout=args.task_timeout,
            max_task_retries=args.max_retries,
        )
        chunked = result.extra["chunked"]
        _LOG.info(
            f"chunked run: {chunked['n_chunks']} chunks of {chunked['chunk_size']} "
            f"on {chunked['workers']} worker(s) [{chunked['executor']}], "
            f"wall {chunked['wall_seconds']:.3f}s"
        )
        supervision = result.extra.get("supervision")
        if supervision is not None and (
            supervision["retries"]
            or supervision["respawns"]
            or supervision["quarantined"]
        ):
            _LOG.info(
                f"supervision: {supervision['retries']} retries, "
                f"{supervision['respawns']} worker respawns, "
                f"quarantined chunks {supervision['quarantined'] or 'none'}"
                + (" (circuit breaker tripped)" if supervision["breaker_tripped"] else "")
            )
        checkpoint = result.extra.get("checkpoint")
        if checkpoint is not None:
            _LOG.info(
                f"checkpoint: {checkpoint['path']} "
                f"({checkpoint['replayed_chunks']} replayed, "
                f"{checkpoint['computed_chunks']} computed)"
            )
        ratio = chunked["compression_ratio"]
    else:
        result = pipeline.execute(dataset.fields, samples_from_fields=dataset.fields_as_samples)
        ratio = result.compression_ratio
    _LOG.info(pipeline.plan.describe())
    _LOG.info(f"compression ratio: {ratio:.2f}x")
    return max(_tolerance_verdict(result), _audit_verdict())


def _audit_verdict() -> int:
    """Log each record the live auditor holds; 1 on any violated bound."""
    from .obs import get_auditor

    violated = 0
    for record in get_auditor().records:
        _LOG.info(
            f"audit {record.run_id or '(unregistered)'}: {record.verdict} "
            f"(fmt={record.certificate.fmt}, qoi tightness {record.qoi_tightness:.3f})"
        )
        if record.violations:
            violated = 1
            _LOG.error(
                f"AUDIT VIOLATION: observed error exceeded the predicted bound "
                f"at {', '.join(record.violations)}"
            )
    return violated


def _cmd_compress(args) -> int:
    import numpy as np

    from .compress import ErrorBoundMode, get_compressor
    from .io import blob_to_bytes

    array = np.load(args.input)
    codec = get_compressor(args.codec)
    blob = codec.compress(array, args.tolerance, ErrorBoundMode(args.mode))
    with open(args.out, "wb") as handle:
        handle.write(blob_to_bytes(blob))
    _LOG.info(
        f"{args.input}: {array.nbytes} B -> {blob.nbytes} B "
        f"(ratio {blob.compression_ratio:.2f}x, codec {blob.codec}, "
        f"{blob.mode.value} tol {blob.tolerance:.2e})"
    )
    return 0


def _cmd_decompress(args) -> int:
    import numpy as np

    from .compress import get_compressor
    from .io import blob_from_bytes

    with open(args.input, "rb") as handle:
        blob = blob_from_bytes(handle.read())
    codec = get_compressor(blob.codec)
    array = codec.decompress(blob)
    np.save(args.out, array)
    _LOG.info(f"{args.input} -> {args.out} shape={array.shape} dtype={array.dtype}")
    return 0


def _cmd_store(args) -> int:
    from .io import DatasetStore

    store = DatasetStore(args.directory)
    rows = store.summary()
    if not rows:
        _LOG.info(f"{args.directory}: empty store")
        return 0
    _LOG.info(f"{'name':20s} {'codec':6s} {'shape':>16s} {'tol':>10s} {'ratio':>7s}")
    for name, codec, shape, tolerance, ratio in rows:
        _LOG.info(f"{name:20s} {codec:6s} {str(shape):>16s} {tolerance:10.2e} {ratio:7.2f}")
    return 0


def _cmd_audit_report(args) -> int:
    from .obs import RunRegistry
    from .obs.registry import diff_runs
    from .reporting import describe_audit_diff

    registry = RunRegistry(args.registry)
    runs = registry.runs()
    if not runs:
        _LOG.info(f"{args.registry}: empty registry")
        return 0
    _LOG.info(
        f"{'run':10s} {'label':16s} {'fmt':>5s} {'codec':>6s} "
        f"{'qoi tight':>10s} {'verdict':>9s}"
    )
    for run in runs[-args.last:]:
        _LOG.info(
            f"{run.get('run_id', '?'):10s} {run.get('label', '')[:16]:16s} "
            f"{(run.get('certificate') or {}).get('fmt', '?'):>5s} {run.get('codec', '?'):>6s} "
            f"{run.get('qoi_tightness', 0.0):10.3f} {run.get('verdict', '?'):>9s}"
        )
    if len(runs) >= 2:
        drift = diff_runs(runs[-2], runs[-1], threshold=args.threshold)
        _LOG.info("")
        _LOG.info(describe_audit_diff(drift))
        if drift["regressions"] or drift["new_violations"]:
            return 1
    return 0


def _cmd_audit_diff(args) -> int:
    from .obs import RunRegistry
    from .obs.registry import diff_runs
    from .reporting import describe_audit_diff

    registry = RunRegistry(args.registry)
    try:
        diff = diff_runs(
            registry.get(args.run_a), registry.get(args.run_b), threshold=args.threshold
        )
    except KeyError as exc:
        _LOG.error(f"error (KeyError): {exc.args[0]}")
        return 1
    _LOG.info(describe_audit_diff(diff))
    return 1 if diff["regressions"] or diff["new_violations"] else 0


def _flush_observability(args) -> None:
    """Write the trace file and print the span tree; the tree is printed
    even when writing the trace raises."""
    from .obs import get_tracer

    tracer = get_tracer()
    try:
        if args.trace:
            tracer.export_jsonl(args.trace)
            _LOG.debug("trace written", file=args.trace, spans=len(tracer.finished))
    finally:
        if args.trace_summary:
            tree = tracer.render_tree()
            if tree:
                sys.stderr.write(tree + "\n")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    from . import obs
    from .exceptions import ReproError

    obs.set_log_level(args.log_level)
    observing = bool(args.trace or args.trace_summary)
    if observing:
        obs.enable()
    if args.audit:
        obs.enable_audit(registry=args.audit, label=getattr(args, "workload", ""))
    try:
        try:
            return args.handler(args)
        except ReproError as exc:
            _LOG.error(f"error ({type(exc).__name__}): {exc}")
            return 1
    finally:
        # Nested so teardown always runs: a raising export (or a raising
        # command) must still restore the no-op singletons and must not
        # lose the other telemetry files.
        try:
            if observing:
                _flush_observability(args)
        finally:
            if args.audit:
                auditor = obs.get_auditor()
                if auditor.enabled:
                    _LOG.debug(
                        "audit registry written",
                        file=args.audit,
                        runs=len(auditor.records),
                        violations=auditor.violation_count,
                    )
                obs.disable_audit()
            obs.disable()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
