"""Per-layer ledger: the benchmark's own span recorder and the timed
calls into each layer's public functions.

Nothing here instruments the program.  A traced iteration is the
workload's iteration re-made from the public calls it consists of, each
wrapped in a span; the ledger then times every layer on the workload's
own field and climbs the overhead ladder stacked on ``execute`` (bare
``execute`` -> chunked serial -> +journal -> resume replay -> process
pool -> loopback distributed).
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import contextmanager

import numpy as np

from repro import TolerancePlanner, obs
from repro.compress import ErrorBoundMode, get_compressor, huffman_decode, huffman_encode
from repro.distrib import DistribConfig, ShardWorker
from repro.io import DatasetStore, blob_from_bytes, blob_to_bytes
from repro.nn.backend import CompiledForward
from repro.perf import reset_compile_cache
from repro.quant import quantize_model
from repro.resilience import RetryPolicy, check_contract, screen_finite

from e2e_cases import CODECS, Case, Op, workers

_FAST_CONNECT = RetryPolicy(max_retries=6, base_delay=0.02, max_delay=0.2, jitter=0.0)


class SpanRecorder:
    """In-memory spans: ``name, layer, workload, iteration, start_ns,
    end_ns, parent`` (parent = index of the enclosing span or None)."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.iteration: "int | None" = None
        self.spans: "list[list]" = []
        self._stack: "list[int]" = []

    @contextmanager
    def span(self, name: str, layer: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [name, layer, self.iteration, 0, 0, parent]
        self.spans.append(record)
        self._stack.append(index)
        record[3] = time.perf_counter_ns()
        try:
            yield
        finally:
            record[4] = time.perf_counter_ns()
            self._stack.pop()

    def child_ns(self) -> "list[int]":
        """Per span, the time its direct children cover."""
        covered = [0] * len(self.spans)
        for span in self.spans:
            if span[5] is not None:
                covered[span[5]] += span[4] - span[3]
        return covered

    def self_seconds_by_layer(self) -> "dict[str, float]":
        """Self time (span minus children) of iteration spans, per layer."""
        child_ns = self.child_ns()
        layers: "dict[str, float]" = {}
        for index, span in enumerate(self.spans):
            if span[2] is None:
                continue
            layers[span[1]] = layers.get(span[1], 0.0) + (span[4] - span[3] - child_ns[index]) / 1e9
        return layers

    def write(self, path: str) -> None:
        keys = ("name", "layer", "iteration", "start_ns", "end_ns", "parent")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                row = dict(zip(keys, span))
                row["workload"] = self.workload
                handle.write(json.dumps(row) + "\n")


class Ledger:
    """Collects per-layer numbers and the rep times behind them."""

    def __init__(self, case: Case, recorder: SpanRecorder, reps: int) -> None:
        self.case = case
        self.rec = recorder
        self.reps = max(1, int(reps))
        self.metrics: "dict[str, tuple[float, str]]" = {}
        self.reps_s: "dict[str, list[float]]" = {}

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def timed(self, name: str, layer: str, fn, reps: "int | None" = None):
        """Median seconds of ``fn`` under a span; returns the last result."""
        times = []
        result = None
        for _ in range(reps or self.reps):
            with self.rec.span(name, layer):
                mark = time.perf_counter()
                result = fn()
                times.append(time.perf_counter() - mark)
        self.reps_s.setdefault(name, []).extend(times)
        self.put(name, statistics.median(self.reps_s[name]), "s")
        return result

    def median(self, name: str) -> float:
        return statistics.median(self.reps_s[name])


# -- traced iterations -----------------------------------------------------
def traced_execute(case: Case, rec: SpanRecorder, forwards) -> Op:
    """``InferencePipeline.execute`` re-made from its public calls."""
    pipe, fields = case.pipe, case.fields
    forward_quant, forward_ref = forwards
    with rec.span("execute[decomposed]", "core"):
        with rec.span("screen_finite[source]", "resilience"):
            screen_finite(fields, stage="source", name="fields")
        with rec.span("pipeline.store", "compress"):
            blob = pipe.store(fields)
        with rec.span("pipeline.load", "compress"):
            reconstructed = pipe.load(blob)
        with rec.span("forward[quantized]", "nn"):
            samples = case.samples(reconstructed)
            outputs = forward_quant(samples)
        with rec.span("forward[reference]", "nn"):
            reference_samples = case.samples(fields)
            reference = forward_ref(reference_samples)
        # the error measures execute takes itself (its own, `core`, time)
        delta = reference_samples - samples
        input_error = float(np.abs(delta).max())
        np.linalg.norm(delta.reshape(len(delta), -1), axis=1).max()
        achieved = float(
            np.abs(fields.astype(np.float64) - reconstructed.astype(np.float64)).max()
        )
        with rec.span("screen_finite[qoi]+check_contract", "resilience"):
            screen_finite(outputs, stage="qoi", name="outputs")
            check_contract(
                achieved, case.plan.input_tolerance, codec=pipe.codec.name,
                stage="decompress", norm="linf", slack=1e-9,
            )
    return Op(
        name="execute", outputs=outputs, reference=reference,
        input_error=input_error, stored_bytes=len(blob.payload),
    )


def traced_store_read(case, rec: SpanRecorder) -> "list[Op]":
    """``store.get`` + forward, with ``get`` split into its public parts."""
    ops = []
    for codec in CODECS:
        with rec.span(f"read[{codec}]", "core"):
            with rec.span("store.get_blob", "io"):
                blob = case.store.get_blob(codec)
            with rec.span(f"codec.decompress[{codec}]", "compress"):
                data = get_compressor(blob.codec).safe_decompress(blob, screen=False)
            with rec.span("screen_finite[decompress]", "resilience"):
                screen_finite(data, stage="decompress")
            with rec.span("forward[quantized]", "nn"):
                outputs = case.forward(case.samples(data))
            input_error = float(
                np.abs(data.astype(np.float64) - case.fields.astype(np.float64)).max()
            )
        ops.append(Op(
            name=codec, outputs=outputs, reference=case.reference,
            input_error=input_error, stored_bytes=case.stored[codec],
        ))
    return ops


def traced_iteration(case: Case, rec: SpanRecorder, forwards) -> "list[Op]":
    """One iteration of ``case`` under the recorder."""
    with rec.span("iteration", "bench"):
        if case.name == "borghesi_store_read":
            return traced_store_read(case, rec)
        if case.name == "h2_chunked_pool":
            with rec.span("execute_chunked[process+journal]", "core"):
                return case.iterate()
        return [traced_execute(case, rec, forwards)]


def make_forwards(case: Case):
    """Compiled quantized and reference forwards, as the pipeline builds them."""
    return (
        CompiledForward(quantize_model(case.model, case.plan.fmt).model),
        CompiledForward(case.model),
    )


# -- the ledger ---------------------------------------------------------------
def _loopback(case: Case, checkpoint_root: str) -> None:
    """Coordinator + 2 in-process ``ShardWorker`` threads over loopback."""
    threads = []

    def launch(coordinator) -> None:
        host, port = coordinator.address
        for index in range(2):
            worker = ShardWorker(
                case.pipe, case.fields, case.chunk_size,
                chunk_axis=case.chunk_axis, samples_from_fields=case.reshape,
                name=f"w{index}", workers=1, connect_retry=_FAST_CONNECT,
                checkpoint=os.path.join(checkpoint_root, f"w{index}"),
            )
            thread = threading.Thread(target=worker.run, args=(host, port), daemon=True)
            threads.append(thread)
            thread.start()

    config = DistribConfig(port=0, expect_workers=2, worker_wait=30.0, on_start=launch)
    try:
        case.pipe.execute_chunked(
            case.fields, case.chunk_size, chunk_axis=case.chunk_axis,
            samples_from_fields=case.reshape, executor="distributed", distrib=config,
        )
    finally:
        for thread in threads:
            thread.join(timeout=30.0)


def _artifact_bytes(path: str) -> int:
    """Bytes of the chunk artifacts under a checkpoint directory.  Journal
    lines are left out: they carry wall times, whose text length varies."""
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _dirs, files in os.walk(path)
        for name in files
        if name.endswith(".npz")
    )


def measure_layers(led: Ledger, forwards) -> None:
    """Fill ``led`` with every per-layer metric except ``bench.*`` and
    ``core.certificate.*`` (both come from the workload's own passes)."""
    case, rec = led.case, led.rec
    fields, plan, pipe = case.fields, case.plan, case.pipe
    raw = case.raw_bytes
    scratch = os.path.join(case.scratch, f"ledger-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)

    for name in ("workloads.load_s", "datasets.generate_s", "core.planner.plan_cold_s"):
        led.put(name, case.setup_seconds[name], "s")

    # compress: every codec on the workload's own field
    blobs = {}
    for codec_name in CODECS:
        codec = get_compressor(codec_name)
        blobs[codec_name] = led.timed(
            f"compress.{codec_name}.compress_s", "compress",
            lambda: codec.compress(fields, plan.input_tolerance, ErrorBoundMode.ABS),
        )
        led.timed(
            f"compress.{codec_name}.decompress_s", "compress",
            lambda: codec.decompress(blobs[codec_name]),
        )
        led.put(
            f"compress.{codec_name}.stored_bytes_per_raw_byte",
            len(blobs[codec_name].payload) / raw, "ratio",
        )
    rng = np.random.default_rng(case.seed)
    n_symbols = 100_000 if case.quick else 1_000_000
    symbols = rng.geometric(0.3, n_symbols) - rng.geometric(0.3, n_symbols)
    encoded = led.timed("compress.huffman.encode_s", "compress", lambda: huffman_encode(symbols))
    decoded = led.timed("compress.huffman.decode_s", "compress", lambda: huffman_decode(encoded))
    if not np.array_equal(decoded, symbols):
        raise RuntimeError("huffman round trip is not lossless")

    # nn
    samples = case.samples(fields)
    forward_quant, forward_ref = forwards
    led.timed("nn.forward_quant_s", "nn", lambda: forward_quant(samples))
    led.timed("nn.forward_ref_s", "nn", lambda: forward_ref(samples))
    interpreter = CompiledForward(case.model, "reference")
    led.timed("nn.forward_interp_s", "nn", lambda: interpreter(samples))
    led.put("nn.backend.fallback", float(forward_ref.last_fallback_reason is not None), "count")
    saved = os.environ.get("REPRO_COMPILE_CACHE_DIR")
    os.environ["REPRO_COMPILE_CACHE_DIR"] = os.path.join(scratch, "kernels-cold")
    reset_compile_cache()
    try:
        cold_forward = CompiledForward(case.model)
        with rec.span("nn.backend.compile_cold_s", "nn"):
            mark = time.perf_counter()
            cold_forward(samples)
            first = time.perf_counter() - mark
        mark = time.perf_counter()
        cold_forward(samples)
        led.put("nn.backend.compile_cold_s", max(first - (time.perf_counter() - mark), 0.0), "s")
    finally:
        if saved is None:
            del os.environ["REPRO_COMPILE_CACHE_DIR"]
        else:
            os.environ["REPRO_COMPILE_CACHE_DIR"] = saved
        reset_compile_cache()

    # planner, quantizer
    planner = TolerancePlanner(case.analyzer)
    led.timed("core.planner.plan_warm_s", "core", lambda: planner.plan(case.tolerance, norm="linf"))
    led.timed("quant.quantize_model_s", "quant", lambda: quantize_model(case.model, plan.fmt))

    # io + guards
    payload = led.timed("io.serialization.to_bytes_s", "io", lambda: blob_to_bytes(blobs["sz"]))
    led.timed("io.serialization.from_bytes_s", "io", lambda: blob_from_bytes(payload))
    store = DatasetStore(os.path.join(scratch, "store"))
    led.timed(
        "io.store.put_s", "io",
        lambda: store.put("sz", fields, plan.input_tolerance, ErrorBoundMode.ABS, codec="sz"),
    )
    for codec_name in ("zfp", "mgard"):
        store.put(codec_name, fields, plan.input_tolerance, ErrorBoundMode.ABS, codec=codec_name)
    for codec_name in CODECS:
        led.timed(f"io.store.get_s.{codec_name}", "io", lambda: store.get(codec_name))
    led.timed("resilience.guards.screen_s", "resilience", lambda: screen_finite(fields, "source"))

    # the ladder stacked on execute; A/B pairs are interleaved so host
    # drift lands on both sides of every share
    def execute():
        return pipe.execute(fields, samples_from_fields=case.reshape)

    def chunked(**kwargs):
        return pipe.execute_chunked(
            fields, case.chunk_size, chunk_axis=case.chunk_axis,
            samples_from_fields=case.reshape, **kwargs,
        )

    journal_dir = os.path.join(scratch, "journal")
    pool_result = None
    for _ in range(led.reps):
        led.timed("core.pipeline.execute_s", "core", execute, reps=1)
        traced_execute(case, rec, forwards)
        led.timed("core.pipeline.chunked_serial_s", "core", lambda: chunked(executor="serial"), reps=1)
        shutil.rmtree(journal_dir, ignore_errors=True)
        led.timed(
            "io.checkpoint.journal_s", "io",
            lambda: chunked(executor="serial", checkpoint=journal_dir), reps=1,
        )
        led.timed(
            "io.checkpoint.resume_replay_s", "io",
            lambda: chunked(executor="serial", checkpoint=journal_dir, resume=True), reps=1,
        )
        pool_result = led.timed(
            "resilience.supervisor.pool_s", "resilience",
            lambda: chunked(executor="process", workers=workers()), reps=1,
        )
        with obs.capture() as (tracer, _metrics):
            led.timed("obs.execute_captured_s", "obs", execute, reps=1)
    # each bare execute is paired with the decomposed one that ran next to it
    layer_calls = [
        covered / 1e9
        for span, covered in zip(rec.spans, rec.child_ns())
        if span[0] == "execute[decomposed]" and span[2] is None
    ]
    execute_s = led.median("core.pipeline.execute_s")
    serial_s = led.median("core.pipeline.chunked_serial_s")
    self_s = statistics.median(
        bare - calls for bare, calls in zip(led.reps_s["core.pipeline.execute_s"], layer_calls)
    )
    led.put("core.pipeline.execute_self_s", self_s, "s")
    led.put("core.pipeline.unattributed_share", self_s / execute_s, "ratio")
    led.put("core.pipeline.chunk_overhead_share", serial_s / execute_s - 1.0, "ratio")
    led.put(
        "nn.forward_share",
        (led.median("nn.forward_quant_s") + led.median("nn.forward_ref_s")) / execute_s,
        "ratio",
    )
    led.put(
        "io.checkpoint.journal_overhead_share",
        led.median("io.checkpoint.journal_s") / serial_s - 1.0, "ratio",
    )
    led.put("io.checkpoint.bytes_per_raw_byte", _artifact_bytes(journal_dir) / raw, "ratio")
    led.put(
        "resilience.supervisor.speedup_vs_serial",
        serial_s / led.median("resilience.supervisor.pool_s"), "ratio",
    )
    supervision = pool_result.extra.get("supervision") or {}
    led.put("resilience.supervisor.retries", supervision.get("retries", 0), "count")
    led.put("resilience.supervisor.respawns", supervision.get("respawns", 0), "count")
    led.put("resilience.supervisor.quarantined", len(supervision.get("quarantined") or ()), "count")
    led.put(
        "obs.capture_overhead_share",
        led.median("obs.execute_captured_s") / execute_s - 1.0, "ratio",
    )
    root = tracer.find("pipeline.execute")[-1]
    covered = sum(span.duration_s for span in tracer.children(root))
    led.put("obs.span_coverage", covered / root.duration_s, "ratio")

    # distrib: ledger only
    for rep in range(max(1, led.reps - 1)):
        root_dir = os.path.join(scratch, f"loopback-{rep}")
        led.timed("distrib.loopback_s", "distrib", lambda: _loopback(case, root_dir), reps=1)
    led.put("distrib.overhead_vs_serial", led.median("distrib.loopback_s") / serial_s - 1.0, "ratio")

    # cli, as a user starts it
    def python(*argv):
        subprocess.run(
            [sys.executable, *argv], check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    led.timed("cli.import_s", "cli", lambda: python("-c", "import repro"))
    led.timed(
        "cli.pipeline_cmd_s", "cli",
        lambda: python("-m", "repro", "pipeline", case.workload, "--tolerance", repr(case.tolerance)),
        reps=1,
    )
    shutil.rmtree(scratch, ignore_errors=True)
