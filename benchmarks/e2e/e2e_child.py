"""Benchmark child: one fresh process per measurement.

``run.py`` starts this script with the thread pins and cache
directories already in the environment.  ``measure`` sets one workload
up (timed from the moment the parent spawned the process), runs the
untraced timed pass, and with ``--trace 1`` follows it with the traced
pass and the per-layer ledger.  The result is one JSON object on the
last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import mmap
import os
import resource
import statistics
import sys
import time
import traceback

WARMUP_ITERATIONS = 3
TRACED_ITERATIONS = 10
LEDGER_REPS = 3


class ReferenceSpin:
    """A fixed piece of numpy + interpreter work, about 22 ms on the
    sandbox the bounds were set on, run (untimed) before every iteration.

    The hosts this benchmark runs on change speed by 10-20 % for minutes
    at a time (shared cores, caches and memory; the guest sees it as CPU
    time, not as steal), which no statistic taken inside one run removes.
    The spin slows down with the host, so ``iteration / spin`` does not.
    It does what the program does, in two parts: compute on resident
    arrays (quantise, difference, prefix-sum and histogram an array, a
    small matmul + tanh, a Python loop), and first-touch of freshly mapped
    memory, which is where the codecs' multi-MB temporaries spend their
    system time.  It uses nothing from ``repro``, so no change to the
    program can move it.
    """

    ROUNDS = 5
    FRESH_BYTES = 1 << 20

    def __init__(self) -> None:
        import numpy as np

        self.np = np
        rng = np.random.default_rng(0)
        n = 300_000
        # the compute buffers are made once, and the fresh memory comes
        # straight from mmap: what glibc does with a multi-MB malloc
        # depends on what the workload freed before, and the spin has to
        # cost the same after any of them.  Everything is small: the spin
        # must stay well below the workloads' own peak RSS, a gated metric.
        self.field = rng.standard_normal(n).astype(np.float32)
        self.weights = rng.standard_normal((8, 32)).astype(np.float32)
        self.scaled = np.empty(n, np.float32)
        self.codes = np.empty(n, np.int64)
        self.hidden = np.empty((n // 8, 32), np.float32)

    def __call__(self) -> float:
        np = self.np
        scaled, codes, hidden = self.scaled, self.codes, self.hidden
        mark = time.perf_counter()
        for _ in range(self.ROUNDS):
            np.multiply(self.field, 64.0, out=scaled)
            np.rint(scaled, out=scaled)
            codes[:] = scaled
            np.subtract(codes[1:], codes[:-1], out=codes[1:])
            np.cumsum(codes, out=codes)
            _values, counts = np.unique(codes[:40_000], return_counts=True)
            np.matmul(self.field.reshape(-1, 8), self.weights, out=hidden)
            np.tanh(hidden, out=hidden)
            total = 0
            for count in counts.tolist() * 2:
                total += count & 3
            with mmap.mmap(-1, self.FRESH_BYTES) as fresh:
                pages = np.frombuffer(fresh, dtype=np.float32)
                pages.fill(1.0)
                np.cumsum(pages, out=pages)
                del pages  # the map cannot close while an array views it
        return time.perf_counter() - mark


def _cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # Linux reports KiB


class Tally:
    """Attempted / failed operations and the worst certificate ratios."""

    def __init__(self, case) -> None:
        self.case = case
        self.attempted = 0
        self.failed = 0
        self.reasons: "list[str]" = []
        self.certificate: "dict[str, float]" = {}
        self.stored_bytes: "int | None" = None

    def fail(self, count: int, reason: str) -> None:
        self.failed += count
        if len(self.reasons) < 8:
            self.reasons.append(reason)

    def check(self, ops) -> None:
        self.attempted += len(ops)
        for op in ops:
            reason, ratios = self.case.certify(op)
            for key, value in ratios.items():
                self.certificate[key] = max(self.certificate.get(key, 0.0), value)
            if reason is not None:
                self.fail(1, f"{op.name}: {reason}")
        if all(op.error is None for op in ops):
            stored = sum(op.stored_bytes for op in ops)
            if self.stored_bytes is None:
                self.stored_bytes = stored
            elif stored != self.stored_bytes:
                self.fail(1, f"stored bytes changed: {stored} != {self.stored_bytes}")

    def crashed(self, exc: BaseException) -> None:
        self.attempted += self.case.ops_per_iteration
        self.fail(self.case.ops_per_iteration, f"{type(exc).__name__}: {exc}")
        traceback.print_exc(file=sys.stderr)


def run_iteration(case, tally: Tally, spin, iterate=None) -> "tuple[float, float, float]":
    """One closed-loop iteration: untimed preparation and reference spin,
    the timed call, then the certificate check and clean-up outside the
    timed region.  Returns ``(wall, CPU, spin)`` seconds."""
    case.before_iteration()
    spin = spin()
    cpu_mark = _cpu_seconds()
    mark = time.perf_counter()
    try:
        ops = (iterate or case.iterate)()
    except Exception as exc:  # a failed operation is counted, never fatal
        elapsed = time.perf_counter() - mark, _cpu_seconds() - cpu_mark, spin
        tally.crashed(exc)
    else:
        elapsed = time.perf_counter() - mark, _cpu_seconds() - cpu_mark, spin
        tally.check(ops)
    case.after_iteration()
    return elapsed


def timed_pass(case, tally: Tally, spin, seconds: float, min_iterations: int = 3) -> dict:
    samples = []
    start = time.perf_counter()
    while len(samples) < min_iterations or time.perf_counter() - start < seconds:
        samples.append(run_iteration(case, tally, spin))
    wall, cpu, spins = zip(*samples)
    return {"iter_s": list(wall), "iter_cpu_s": list(cpu), "spin_s": list(spins)}


def measure(args) -> dict:
    import e2e_cases

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    scratch = os.path.join(bench_dir, "out", "scratch")
    os.makedirs(scratch, exist_ok=True)
    case = e2e_cases.CASES[args.workload](args.seed, args.quick, scratch)
    tally = Tally(case)
    spin = ReferenceSpin()
    try:
        for _ in range(WARMUP_ITERATIONS):
            run_iteration(case, tally, spin)
        out = {
            "sizes": case.sizes(),
            "workers": e2e_cases.workers(),
            "numpy": e2e_cases.np.__version__,
            "raw_bytes_per_iteration": case.raw_bytes_per_iteration,
            "setup_s": time.time() - args.spawned_at,
        }
        if not args.trace:
            out.update(timed_pass(case, tally, spin, args.seconds))
        else:
            out.update(timed_pass(case, tally, spin, args.seconds * 0.25, min_iterations=5))
            out.update(traced_pass(case, tally, spin, args, bench_dir, out))
        out.update(
            attempted=tally.attempted,
            failed=tally.failed,
            failures=tally.reasons,
            stored_bytes=tally.stored_bytes,
            peak_rss_mb=_peak_rss_mb(),
        )
        return out
    finally:
        case.close()


def traced_pass(case, tally: Tally, spin, args, bench_dir: str, untraced: dict) -> dict:
    """Traced iterations, then the ledger; spans go to ``out/<workload>.trace.jsonl``."""
    import e2e_ledger

    recorder = e2e_ledger.SpanRecorder(case.name)
    forwards = e2e_ledger.make_forwards(case)
    traced_iter_s = []
    for index in range(2 if args.quick else TRACED_ITERATIONS):
        recorder.iteration = index
        traced_iter_s.append(
            run_iteration(
                case, tally, spin,
                iterate=lambda: e2e_ledger.traced_iteration(case, recorder, forwards),
            )[0]
        )
    recorder.iteration = None
    layer_self_s = recorder.self_seconds_by_layer()

    ledger = e2e_ledger.Ledger(case, recorder, 1 if args.quick else LEDGER_REPS)
    e2e_ledger.measure_layers(ledger, forwards)
    for key in ("qoi_error_over_bound", "qoi_error_over_tolerance", "input_error_over_tolerance"):
        ledger.put(f"core.certificate.{key}", tally.certificate.get(key, float("inf")), "ratio")
    ordered = sorted(untraced["iter_s"])
    p50 = statistics.median(ordered)
    ledger.put("bench.reference_spin_s", statistics.median(untraced["spin_s"]), "s")
    ledger.put("bench.iters", len(ordered), "count")
    ledger.put("bench.iter_s_p50", p50, "s")
    ledger.put("bench.iter_s_p80", ordered[min(len(ordered) - 1, int(0.8 * len(ordered)))], "s")
    ledger.put("bench.trace_overhead_share", statistics.median(traced_iter_s) / p50 - 1.0, "ratio")

    trace_file = os.path.join(bench_dir, "out", f"{case.name}.trace.jsonl")
    recorder.write(trace_file)
    traced_total = sum(traced_iter_s)
    return {
        "layers": {name: list(value) for name, value in ledger.metrics.items()},
        "reps_s": ledger.reps_s,
        "traced_iter_s": traced_iter_s,
        "layer_self_s": layer_self_s,
        "layer_self_coverage": (
            sum(v for k, v in layer_self_s.items() if k != "bench") / traced_total
        ),
        "trace_file": os.path.relpath(trace_file, bench_dir),
    }


def prepare(_args) -> dict:
    """Train and cache every workload's weights (no-op when cached)."""
    import repro

    start = time.perf_counter()
    for name in repro.WORKLOAD_NAMES:
        repro.load_workload(name)
    return {"prepare_s": time.perf_counter() - start}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("prepare")
    run = sub.add_parser("measure")
    run.add_argument("--workload", required=True)
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.add_argument("--quick", action="store_true")
    run.add_argument("--spawned-at", type=float, default=None)
    args = parser.parse_args(argv)
    if getattr(args, "spawned_at", None) is None:
        args.spawned_at = time.time()
    result = {"prepare": prepare, "measure": measure}[args.command](args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
