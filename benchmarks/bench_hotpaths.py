#!/usr/bin/env python
"""Micro-benchmarks for the chunked-execution hot paths.

Eleven paths are timed and written in the unified ``benchutils`` row
shape (``{path, config, seconds, reps_s, throughput_mb_s}``, which CI's
hot-path gates read; see docs/PERFORMANCE.md for how to read the
output):

* ``cold_start``          — median of 7 fresh ``import repro`` and
  ``python -m repro --help`` processes, with the resident set after the
  import, ``src/repro``'s line count and the summed subpackage ``__all__``;
* ``huffman_decode``      — lockstep lane decoder vs the scalar oracle in
  ``tests/oracles`` on a peaked 1M-symbol stream;
* ``huffman_decode_small`` — the same pair on an 18k-symbol stream, the
  size of one pool chunk, where per-call and per-step overhead shows;
* ``huffman_decode_field`` — the same pair on a 590k-symbol stream at
  8-9 bits a symbol with a 3 % escape tail, a whole H2 field's SZ codes,
  with the stream's ``lane`` and ``index_share`` (index bytes / stream
  bytes) in the config;
* ``huffman_encode``      — word-accumulating array encoder vs the scalar
  oracle on the 1M-symbol stream (identical bytes);
* ``sz_precision``        — one seeded float32 9x256x256 field against its
  float64 copy: ``compress`` and ``decompress`` in float32 and in float64
  arithmetic, with stored bytes and worst error / tolerance in the config;
* ``codec_decode``        — SZ, ZFP and MGARD ``decompress`` of one smooth
  3-D field at 1e-4, best of alternating reps, with each codec's
  ``speedup_vs_sz`` in the config;
* ``sz_roundtrip_faults`` — steady-state minor page faults, ``sys`` seconds
  and wall of one ``compress`` and one ``decompress`` of a 9x256x256 field
  (``resource.getrusage``; skipped where the module is missing): what the
  per-thread codec scratch removes;
* ``pipeline_chunked``    — ``InferencePipeline.execute_chunked`` serial
  vs the supervised 4-worker process pool;
* ``chunk_stack``         — what stands between ``execute`` on one chunk
  and a pool run: the per-chunk fixed cost split into Huffman table build
  / predictor / forward / guard, the commit of one chunk, an empty pool's
  spawn + shutdown, and a pool + journal run with the share of
  worker-seconds in which no chunk was executing;
* ``pipeline_execute_lanes`` — one ``execute`` in a fresh process
  confined to one CPU and in one with the full affinity mask: what the
  reference lane buys (``config.speedup_vs_one_cpu``).

Throughput numbers are hardware-dependent (the pool speedups in
particular require free cores — ``config.cpu_count`` records what was
available; on a 1-CPU host the process-pool row's ``overhead_vs_serial``
is the fault-free supervision+IPC cost instead of a speedup).  Usage::

    PYTHONPATH=src python benchmarks/bench_hotpaths.py [--quick] [--out BENCH_pr6.json]
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir))

from benchutils import ONE_BLAS_THREAD, best_of, finalize_rows, make_row, write_rows
from tests.oracles.entropy_reference import (
    huffman_decode_reference,
    huffman_encode_reference,
    read_sections_reference,
)
from repro.compress import ErrorBoundMode, get_compressor, huffman_decode, huffman_encode
from repro.compress.sz import SZCompressor
from repro.core.errorflow import ErrorFlowAnalyzer
from repro.core.pipeline import InferencePipeline
from repro.core.planner import TolerancePlanner
from repro.nn.activations import Tanh
from repro.nn.linear import SpectralLinear
from repro.nn.sequential import Sequential


def bench_huffman(n_symbols: int, n_small: int, n_field: int, reps: int) -> list[dict]:
    """Decode and encode rows, scalar oracle vs vectorized."""
    rng = np.random.default_rng(0)
    # Peaked residual-like distribution: what the predictor stages emit.
    symbols = np.round(rng.normal(0.0, 0.7, size=n_symbols)).astype(np.int32)
    # One pool chunk: few symbols, a few hundred distinct values.
    small = np.round(rng.normal(0.0, 40.0, size=n_small)).astype(np.int32)
    # A whole field's SZ codes: 8-9 bits a symbol and a 3 % tail of values
    # far outside the alphabet cap, each one escaped.
    field = np.round(rng.laplace(0.0, 40.0, size=n_field)).astype(np.int32)
    tail = rng.random(n_field) < 0.03
    field[tail] = rng.integers(-(2**20), 2**20, int(tail.sum()))
    blob, small_blob, field_blob = huffman_encode(symbols), huffman_encode(small), huffman_encode(field)

    assert blob == huffman_encode_reference(symbols)
    for stream, encoded in ((symbols, blob), (small, small_blob), (field, field_blob)):
        assert np.array_equal(huffman_decode(encoded), stream)
        assert np.array_equal(huffman_decode_reference(encoded), stream)
    sections = read_sections_reference(field_blob)
    index_bytes = sections["payload_at"] - sections["index_at"]
    field_config = {"lane": sections["lane"], "index_share": index_bytes / len(field_blob)}

    rows = []
    for path, stream, encoded, argument, scalar, vectorized in (
        ("huffman_decode", symbols, blob, blob, huffman_decode_reference, huffman_decode),
        ("huffman_decode_small", small, small_blob, small_blob, huffman_decode_reference, huffman_decode),
        ("huffman_decode_field", field, field_blob, field_blob, huffman_decode_reference, huffman_decode),
        ("huffman_encode", symbols, blob, symbols, huffman_encode_reference, huffman_encode),
    ):
        pair = []
        for impl, fn in (("scalar_reference", scalar), ("vectorized", vectorized)):
            seconds, reps_s = best_of(lambda fn=fn: fn(argument), reps)
            pair.append(
                make_row(
                    path,
                    {
                        "impl": impl,
                        "n_symbols": stream.size,
                        "reps": reps,
                        "compressed_bytes": len(encoded),
                        **(field_config if stream is field else {}),
                    },
                    seconds,
                    reps_s=reps_s,
                    throughput_mb_s=stream.nbytes / 1e6 / seconds,
                )
            )
        speedup = pair[0]["seconds"] / pair[1]["seconds"]
        for row in pair:
            row["config"]["speedup_vs_scalar"] = speedup
        print(f"{path}: scalar {pair[0]['seconds']*1e3:.1f} ms, "
              f"vectorized {pair[1]['seconds']*1e3:.2f} ms -> {speedup:.1f}x")
        rows += pair
    return rows


def _smooth_field(side: int) -> np.ndarray:
    x = np.linspace(0, 2 * np.pi, side)
    xx, yy = np.meshgrid(x, x)
    field = np.stack(
        [np.sin((i + 1) * xx) * np.cos(yy) * 0.8 for i in range(9)]
    ).astype(np.float32)
    field += 1e-3 * np.random.default_rng(3).standard_normal(field.shape).astype(np.float32)
    return field


def bench_sz_precision(reps: int) -> list[dict]:
    """One row per precision and direction (best wall time of alternating
    reps).  SZ works in the field's precision, so the float32 field runs
    float32 arithmetic and its float64 copy the float64 path."""
    field = _smooth_field(256)
    tolerance = 1e-4
    codec = SZCompressor()
    cases = {}
    for precision, data in (("float32", field), ("float64", field.astype(np.float64))):
        blob = codec.compress(data, tolerance)
        assert blob.metadata.get("precision", "float64") == precision
        restored = codec.decompress(codec.compress(data, tolerance))  # scratch grown
        error = float(np.abs(restored.astype(np.float64) - field).max()) / tolerance
        assert error <= 1.0, (precision, error)
        cases[precision] = (data, blob, error)
    times = {(precision, op): [] for precision in cases for op in ("compress", "decompress")}
    for _ in range(max(reps, 7)):
        for precision, (data, blob, _) in cases.items():
            for op, call in (
                ("compress", lambda: codec.compress(data, tolerance)),
                ("decompress", lambda: codec.decompress(blob)),
            ):
                start = time.perf_counter()
                call()
                times[precision, op].append(time.perf_counter() - start)
    rows = []
    for (precision, op), reps_s in times.items():
        data, blob, error = cases[precision]
        rows.append(
            make_row(
                "sz_precision",
                {
                    "precision": precision,
                    "op": op,
                    "field_shape": list(field.shape),
                    "tolerance": tolerance,
                    "reps": len(reps_s),
                    "stored_bytes": len(blob.payload),
                    "error_over_tolerance": error,
                    "speedup_vs_float64": min(times["float64", op]) / min(reps_s),
                },
                min(reps_s),
                reps_s=reps_s,
                throughput_mb_s=field.nbytes / 1e6 / min(reps_s),
            )
        )
    grown = cases["float32"][1].nbytes / cases["float64"][1].nbytes - 1.0
    print(
        "sz_precision: "
        + ", ".join(
            f"{op} {min(times['float64', op])*1e3:.1f} -> {min(times['float32', op])*1e3:.1f} ms"
            f" ({min(times['float64', op]) / min(times['float32', op]):.2f}x)"
            for op in ("compress", "decompress")
        )
        + f", stored bytes {grown * 100:+.2f} %, worst error / tolerance "
        f"{cases['float64'][2]:.4f} -> {cases['float32'][2]:.4f}"
    )
    return rows


def bench_codec_decode(side: int, reps: int) -> list[dict]:
    """One row per codec: best ``decompress`` wall time of one smooth field
    at 1e-4, the codecs timed in alternation; ``speedup_vs_sz`` is SZ's time
    over the codec's."""
    field = _smooth_field(side)
    tolerance = 1e-4
    codecs = {name: get_compressor(name) for name in ("sz", "zfp", "mgard")}
    blobs = {name: codec.compress(field, tolerance) for name, codec in codecs.items()}
    times = {name: [] for name in codecs}
    for _ in range(max(reps, 7)):
        for name, codec in codecs.items():
            start = time.perf_counter()
            codec.decompress(blobs[name])
            times[name].append(time.perf_counter() - start)
    rows = [
        make_row(
            "codec_decode",
            {
                "codec": name,
                "field_shape": list(field.shape),
                "tolerance": tolerance,
                "reps": len(reps_s),
                "stored_bytes": blobs[name].nbytes,
                "speedup_vs_sz": min(times["sz"]) / min(reps_s),
            },
            min(reps_s),
            reps_s=reps_s,
            throughput_mb_s=field.nbytes / 1e6 / min(reps_s),
        )
        for name, reps_s in times.items()
    ]
    print("codec_decode: " + ", ".join(f"{name} {min(t)*1e3:.1f} ms" for name, t in times.items())
          + f" ({field.shape}, zfp / sz {min(times['zfp']) / min(times['sz']):.2f}x)")
    return rows


def bench_sz_roundtrip_faults(reps: int) -> list[dict]:
    """One row per direction; ``seconds`` is the best wall time, the
    medians of faults and ``sys`` time ride in the config under the
    ``overhead_`` prefix."""
    try:
        import resource
    except ImportError:
        print("sz_roundtrip_faults: skipped (no resource module)")
        return []
    field = _smooth_field(256)
    codec = SZCompressor()
    for _ in range(2):  # steady state: the scratch is grown, the allocator settled
        blob = codec.compress(field, 1e-4, ErrorBoundMode.ABS)
        codec.decompress(blob)
    samples = {"compress": [], "decompress": []}
    for _ in range(max(reps, 5)):
        for op, call in (
            ("compress", lambda: codec.compress(field, 1e-4, ErrorBoundMode.ABS)),
            ("decompress", lambda: codec.decompress(blob)),
        ):
            before, start = resource.getrusage(resource.RUSAGE_SELF), time.perf_counter()
            call()
            wall, after = time.perf_counter() - start, resource.getrusage(resource.RUSAGE_SELF)
            samples[op].append(
                (wall, after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime)
            )
    rows = []
    for op, taken in samples.items():
        walls, faults, sys_s = (list(column) for column in zip(*taken))
        print(f"sz_roundtrip_faults {op}: {min(walls)*1e3:.1f} ms, "
              f"{int(np.median(faults))} minor faults, {np.median(sys_s)*1e3:.1f} ms sys")
        rows.append(
            make_row(
                "sz_roundtrip_faults",
                {
                    "op": op,
                    "field_shape": list(field.shape),
                    "tolerance": 1e-4,
                    "reps": len(walls),
                    "overhead_minor_faults": int(np.median(faults)),
                    "overhead_sys_seconds": float(np.median(sys_s)),
                },
                min(walls),
                reps_s=walls,
                throughput_mb_s=field.nbytes / 1e6 / min(walls),
            )
        )
    return rows


def _chunked_pipeline_setup(side: int, workers: int, hidden=(64,)):
    rng = np.random.default_rng(2)
    layers = []
    for n_in, n_out in zip((5, *hidden), hidden):
        layers += [SpectralLinear(n_in, n_out, rng=rng), Tanh()]
    model = Sequential(*layers, SpectralLinear(hidden[-1], 1, rng=rng))
    model.eval()
    x = np.linspace(0, 2 * np.pi, side)
    xx, yy = np.meshgrid(x, x)
    fields = np.stack(
        [np.sin((i + 1) * xx) * np.cos(yy) * 0.8 for i in range(5)]
    ).astype(np.float32)
    plan = TolerancePlanner(ErrorFlowAnalyzer(model)).plan(
        1e-2, norm="linf", quant_fraction=0.5
    )
    pipeline = InferencePipeline(model, SZCompressor(), plan)
    chunk_size = max(1, side // (2 * workers))
    return pipeline, fields, chunk_size


def bench_pipeline_chunked(side: int, workers: int, reps: int) -> list[dict]:
    pipeline, fields, chunk_size = _chunked_pipeline_setup(side, workers)
    mb = fields.nbytes / 1e6

    configs = [
        ("serial", dict(workers=1)),
        ("process", dict(workers=workers, executor="process")),
    ]
    rows = []
    for executor, kwargs in configs:
        seconds, reps_s = best_of(
            lambda kw=kwargs: pipeline.execute_chunked(
                fields, chunk_size=chunk_size, chunk_axis=1, **kw
            ),
            reps,
        )
        rows.append(
            make_row(
                "pipeline_chunked",
                {
                    "executor": executor,
                    "workers": kwargs.get("workers", 1),
                    "chunk_size": chunk_size,
                    "field_shape": list(fields.shape),
                    "reps": reps,
                },
                seconds,
                reps_s=reps_s,
                throughput_mb_s=mb / seconds,
            )
        )
    serial = rows[0]["seconds"]
    for row in rows:
        row["config"]["speedup_vs_serial"] = serial / row["seconds"]
        # > 0 means slower than serial: on a core-starved host this is
        # the pool's fault-free overhead (fork + IPC + supervision)
        row["config"]["overhead_vs_serial"] = row["seconds"] / serial - 1.0
    for row in rows:
        print(
            f"pipeline_chunked[{row['config']['executor']}]: "
            f"{row['seconds']*1e3:.1f} ms "
            f"({row['config']['speedup_vs_serial']:.2f}x vs serial)"
        )
    return rows


def bench_chunk_stack(side: int, workers: int, reps: int) -> list[dict]:
    """Per-chunk fixed costs and the pool's own, one row per part.

    ``seconds`` is per chunk for the parts of ``execute`` and for
    ``commit`` (median over the chunks of one pass), per run for the two
    pool rows."""
    from repro import obs
    from repro.compress import huffman
    from repro.core.chunked import ChunkRun
    from repro.io import CheckpointJournal
    from repro.resilience import SupervisedPool
    from repro.resilience.guards import check_contract, screen_finite

    pipeline, fields, chunk_size = _chunked_pipeline_setup(side, workers)
    run = ChunkRun(pipeline, fields, chunk_size, chunk_axis=1)
    chunks = run.chunks
    results = [pipeline.execute(chunk) for chunk in chunks]
    codec, tolerance = pipeline.codec, pipeline.plan.input_tolerance
    samples = [c.reshape(c.shape[0], -1).T.astype(np.float32) for c in chunks]

    streams = []  # per chunk: the code stream's alphabet, counts, frequency order
    for chunk in chunks:
        codes = codec._encode_pass(chunk, tolerance)[1]
        alphabet, counts = np.unique(codes, return_counts=True)
        streams.append((alphabet, counts, np.lexsort((alphabet, counts))))

    def huffman_table(index: int) -> None:
        """Both Huffman tables of one chunk: the encoder's length-limited
        tree and the decoder's 2**L-entry prefix tables."""
        alphabet, counts, order = streams[index]
        lengths = np.empty(alphabet.size, dtype=np.int64)
        lengths[order] = huffman._code_lengths(counts[order])
        huffman._decode_tables(
            np.bincount(lengths, minlength=17)[1:],
            alphabet[np.lexsort((alphabet, lengths))],
            0,
            0,
        )

    def guard(index: int) -> None:
        screen_finite(chunks[index], stage="source", name="fields")
        screen_finite(results[index].outputs, stage="qoi", name="outputs")
        check_contract(
            results[index].input_error_linf, tolerance, codec=codec.name,
            stage="decompress", norm="linf", slack=1e-9,
        )

    def forward(index: int) -> None:
        pipeline._forward_quant(samples[index])
        pipeline._forward_ref(samples[index])

    def per_chunk(fn) -> "tuple[float, list[float]]":
        """Median per-chunk seconds of ``fn(index)``: best pass, all passes."""
        passes = []
        for _ in range(reps):
            times = []
            for index in range(len(chunks)):
                start = time.perf_counter()
                fn(index)
                times.append(time.perf_counter() - start)
            passes.append(float(np.median(times)))
        return min(passes), passes

    rows = []

    def add(part: str, seconds: float, reps_s, **derived) -> None:
        config = {
            "part": part, "chunk_size": chunk_size, "workers": workers,
            "field_shape": list(fields.shape), "reps": reps, **derived,
        }
        rows.append(make_row("chunk_stack", config, seconds, reps_s=reps_s))

    with tempfile.TemporaryDirectory() as scratch:
        journal = CheckpointJournal(os.path.join(scratch, "commit"))
        journal.begin(run.manifest)
        for part, fn in (
            ("execute", lambda i: pipeline.execute(chunks[i])),
            ("huffman_table", huffman_table),
            ("predictor", lambda i: codec._encode_pass(chunks[i], tolerance)),
            ("forward", forward),
            ("guard", guard),
            ("commit", lambda i: run.commit(journal, i, results[i])),
        ):
            add(part, *per_chunk(fn))

        add(
            "pool_spawn_shutdown",
            *best_of(lambda: SupervisedPool(abs, workers=workers).run(range(workers)), reps),
        )

        checkpoint = os.path.join(scratch, "pool")
        idle = []

        def pool_journal() -> None:
            # the workers' measured seconds ride back onto the task spans
            with obs.capture() as (tracer, _):
                start = time.perf_counter()
                pipeline.execute_chunked(
                    fields, chunk_size=chunk_size, chunk_axis=1, workers=workers,
                    executor="process", checkpoint=checkpoint,
                )
                wall = time.perf_counter() - start
            busy = sum(s.attributes["worker_seconds"] for s in tracer.find("supervisor.task"))
            idle.append(1.0 - busy / (workers * wall))

        seconds, reps_s = best_of(pool_journal, reps)
        add("pool_journal", seconds, reps_s, overhead_worker_idle_share=min(idle))

    for row in rows:
        extra = row["config"].get("overhead_worker_idle_share")
        print(
            f"chunk_stack[{row['config']['part']}]: {row['seconds']*1e3:.3f} ms"
            + (f" (worker idle share {extra:.2f})" if extra is not None else "")
        )
    return rows


#: wide enough that one forward costs about what compress + decompress do
_LANES_HIDDEN = (128, 128)


def _execute_seconds(cpus, side: int, reps: int):
    """Child of ``bench_pipeline_execute_lanes``: confine first, so every
    thread this process starts inherits the mask, then time ``execute``.
    Returns ``(best, reps_s, field shape, field bytes)``."""
    if cpus is not None:
        os.sched_setaffinity(0, cpus)
    pipeline, fields, _ = _chunked_pipeline_setup(side, 1, _LANES_HIDDEN)
    for _ in range(2):  # kernels compiled, lane thread started, buffers grown
        pipeline.execute(fields)
    return (*best_of(lambda: pipeline.execute(fields), reps), list(fields.shape), fields.nbytes)


def bench_pipeline_execute_lanes(side: int, reps: int) -> list[dict]:
    """One ``execute`` in a fresh process confined to one CPU (reference
    forward inline, after the data path) and in one with the inherited
    mask (reference forward beside it, on the side-lane thread)."""
    import multiprocessing
    from unittest import mock

    if not hasattr(os, "sched_setaffinity"):
        print("pipeline_execute_lanes: skipped (no sched_setaffinity)")
        return []
    mask = sorted(os.sched_getaffinity(0))
    timings = {}
    # one BLAS thread in the children (spawned, so they read the
    # environment before importing numpy): a threaded matmul already
    # spreads over the mask, and the row is about the lane
    with mock.patch.dict(os.environ, ONE_BLAS_THREAD):
        with multiprocessing.get_context("spawn").Pool(1, maxtasksperchild=1) as pool:
            for lanes, cpus in (("inline", {mask[0]}), ("beside", None)):
                timings[lanes] = pool.apply(_execute_seconds, (cpus, side, reps))
    ratio = timings["inline"][0] / timings["beside"][0]
    print(
        f"pipeline_execute_lanes: one CPU {timings['inline'][0]*1e3:.1f} ms, "
        f"{len(mask)} CPUs {timings['beside'][0]*1e3:.1f} ms -> {ratio:.2f}x"
    )
    return [
        make_row(
            "pipeline_execute_lanes",
            {
                "lanes": lanes,
                "usable_cpus": 1 if lanes == "inline" else len(mask),
                "field_shape": shape,
                "hidden": list(_LANES_HIDDEN),
                "reps": reps,
                "speedup_vs_one_cpu": ratio,
            },
            seconds,
            reps_s=reps_s,
            throughput_mb_s=nbytes / 1e6 / seconds,
        )
        for lanes, (seconds, reps_s, shape, nbytes) in timings.items()
    ]


#: the subpackages whose summed ``__all__`` tests/test_public_api.py ratchets
_PUBLIC_SUBPACKAGES = ("nn", "quant", "compress", "core", "physics", "datasets", "models",
                       "perf", "io", "resilience", "distrib")


def bench_cold_start(runs: int) -> list[dict]:
    """Fresh processes running ``import repro``, ``python -m repro --help``
    and ``python -m repro pipeline --help``, alternated, ``runs`` of each;
    ``seconds`` is the median.
    The ``import repro`` row also carries the resident set after the
    import, and both carry the package's size: lines under ``src/repro``
    and the summed subpackage ``__all__`` (what the size ratchets count)."""
    import importlib
    import statistics
    import subprocess

    import repro

    package = os.path.dirname(os.path.abspath(repro.__file__))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(package))
    size = {
        "src_lines": sum(
            sum(1 for _ in open(os.path.join(root, name), encoding="utf-8"))
            for root, _, names in os.walk(package) for name in names if name.endswith(".py")
        ),
        "public_names": sum(
            len(importlib.import_module(f"repro.{name}").__all__) for name in _PUBLIC_SUBPACKAGES
        ),
    }
    commands = {
        "import repro": ["-c", "import repro"],
        "repro --help": ["-m", "repro", "--help"],
        "repro pipeline --help": ["-m", "repro", "pipeline", "--help"],
    }
    times = {command: [] for command in commands}
    for _ in range(runs):
        for command, argv in commands.items():
            start = time.perf_counter()
            subprocess.run([sys.executable, *argv], env=env, check=True, stdout=subprocess.DEVNULL)
            times[command].append(time.perf_counter() - start)
    probe = "import resource, repro; print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)"
    rss_kb = subprocess.run(
        [sys.executable, "-c", probe], env=env, check=True, capture_output=True, text=True
    ).stdout
    rows = []
    for command, reps_s in times.items():
        config = {"command": command, "runs": runs, **size}
        if command == "import repro":
            config["rss_mb"] = int(rss_kb) / 1024
        rows.append(make_row("cold_start", config, statistics.median(reps_s), reps_s=reps_s))
        print(f"cold_start: {command} median {rows[-1]['seconds']*1e3:.0f} ms over {runs} processes")
    print(f"cold_start: {size['src_lines']} lines, {size['public_names']} public names")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="smaller streams / fewer reps (CI smoke)")
    parser.add_argument("--out", default="BENCH_pr6.json")
    parser.add_argument("--workers", type=int, default=4)
    args = parser.parse_args(argv)

    reps = 2 if args.quick else 3
    n_symbols, n_small, n_field = 1_000_000, 18_432, 589_824
    side = 64 if args.quick else 128

    rows = []
    rows += bench_cold_start(7)
    rows += bench_huffman(n_symbols, n_small, n_field, reps)
    rows += bench_sz_precision(reps)
    rows += bench_codec_decode(2 * side, reps)
    rows += bench_sz_roundtrip_faults(reps)
    rows += bench_pipeline_chunked(side, args.workers, reps)
    rows += bench_chunk_stack(side, args.workers, reps)
    # one size in both modes: below ~100 ms an execute is interpreter-bound
    # and the two lanes mostly wait for each other's GIL
    rows += bench_pipeline_execute_lanes(256, 5)
    finalize_rows(rows, args.quick)
    write_rows(rows, args.out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
