#!/usr/bin/env python3
"""End-to-end pipeline benchmark: four workloads, end-to-end metrics, a
per-layer ledger.  See README.md in this directory.

    python benchmarks/e2e/run.py --seed 1                 # everything, one JSON result
    python benchmarks/e2e/run.py --seed 1 --workload h2_sz_roundtrip
    python benchmarks/e2e/run.py --seed 1 --quick         # small sizes, seconds not minutes
    python benchmarks/e2e/run.py --prepare                # train + cache weights only
    python benchmarks/e2e/run.py --compare A.json B.json  # gaps against BENCHMARK.json bounds

    # the form the benchmark driver uses: one workload, one pass, the
    # last line of standard output is the result object
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Every measurement runs in a fresh child process (``e2e_child.py``) with
BLAS/OpenMP pinned to one thread, so the only parallelism is what the
program itself starts.  This file only orchestrates: it imports neither
numpy nor repro.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
OUT_DIR = os.path.join(BENCH_DIR, "out")
CHILD = os.path.join(BENCH_DIR, "e2e_child.py")

#: fresh processes per untraced run: each sets up once (one ``setup_s``
#: sample) and contributes a third of the timed iterations
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 170
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def bench_env() -> dict:
    """Environment of every child: thread pins, and every cache or
    temporary directory the program uses moved under ``out/``."""
    env = dict(os.environ)
    for pin in THREAD_PINS:
        env[pin] = "1"
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = os.path.join(OUT_DIR, "cache")
    env["REPRO_COMPILE_CACHE_DIR"] = os.path.join(OUT_DIR, "kernels")
    env["TMPDIR"] = os.path.join(OUT_DIR, "tmp")
    for key in ("REPRO_CACHE_DIR", "REPRO_COMPILE_CACHE_DIR", "TMPDIR"):
        os.makedirs(env[key], exist_ok=True)
    for key in ("REPRO_BACKEND", "REPRO_CHAOS", "REPRO_INSTRUMENT_OPS"):
        env.pop(key, None)
    return env


def run_child(argv: "list[str]", env: dict) -> dict:
    """Run one child to completion and parse its last stdout line."""
    process = subprocess.Popen(
        [sys.executable, CHILD, *argv], env=env, cwd=ROOT,
        stdout=subprocess.PIPE, text=True,
    )
    try:
        stdout, _ = process.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        process.kill()
        process.communicate()
        raise SystemExit(f"benchmark child timed out: {' '.join(argv)}")
    if process.returncode != 0:
        raise SystemExit(f"benchmark child failed ({process.returncode}): {' '.join(argv)}")
    return json.loads(stdout.strip().splitlines()[-1])


def prepare(env: dict) -> float:
    """Train and cache missing workload weights; seconds spent (0 if warm)."""
    stamp = os.path.join(env["REPRO_CACHE_DIR"], "prepared.json")
    if os.path.exists(stamp):
        return 0.0
    result = run_child(["prepare"], env)
    with open(stamp, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return result["prepare_s"]


def measure_argv(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> "list[str]":
    argv = [
        "measure", "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
        "--spawned-at", repr(time.time()),
    ]
    return argv + ["--quick"] if quick else argv


#: nominal duration of the child's reference spin; gated timings are
#: reported in seconds of a host on which the spin takes exactly this
REFERENCE_SPIN_S = 0.022


def at_reference_speed(seconds: "list[float]", spin_s: "list[float]") -> float:
    """Median of ``seconds`` with each sample rescaled by the reference
    spin taken just before it (see ``ReferenceSpin`` in e2e_child.py)."""
    return statistics.median(t * REFERENCE_SPIN_S / s for t, s in zip(seconds, spin_s))


def run_untraced(workload: str, seed: int, seconds: float, quick: bool, env: dict) -> dict:
    """The end-to-end metrics of one workload from ``SETUP_SAMPLES``
    fresh processes: iterations pooled, set-up times medianed."""
    samples = 1 if quick else SETUP_SAMPLES
    children = [
        run_child(measure_argv(workload, seed, seconds / samples, 0, quick), env)
        for _ in range(samples)
    ]
    first = children[0]
    iter_s, iter_cpu_s, spin_s = (
        [t for child in children for t in child[key]] for key in ("iter_s", "iter_cpu_s", "spin_s")
    )
    setups = [c["setup_s"] for c in children]
    child_spins = [statistics.median(c["spin_s"]) for c in children]
    raw_mb = first["raw_bytes_per_iteration"] / 1e6
    attempted = sum(child["attempted"] for child in children)
    failed = sum(child["failed"] for child in children)
    if len({child["stored_bytes"] for child in children}) != 1:
        failed += 1  # the stored size must repeat exactly for one seed
    metrics = {
        "field_mb_s": (raw_mb / at_reference_speed(iter_s, spin_s), "MB/s"),
        "cpu_s_per_mb": (at_reference_speed(iter_cpu_s, spin_s) / raw_mb, "s/MB"),
        "stored_bytes_per_raw_byte": (
            (first["stored_bytes"] or 0) / first["raw_bytes_per_iteration"], "ratio",
        ),
        "setup_s": (at_reference_speed(setups, child_spins), "s"),
        "peak_rss_mb": (max(c["peak_rss_mb"] for c in children), "MB"),
    }
    return {
        "workload": workload,
        "metrics": metrics,
        # the same timings in this host's own seconds, for the reader
        "unscaled": {
            "field_mb_s": (raw_mb / statistics.median(iter_s), "MB/s"),
            "cpu_s_per_mb": (statistics.median(iter_cpu_s) / raw_mb, "s/MB"),
            "setup_s": (statistics.median(setups), "s"),
            "reference_spin_s": (statistics.median(spin_s), "s"),
        },
        "failed_ops_share": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": [reason for child in children for reason in child["failures"]],
        "iter_s": iter_s,
        "iter_cpu_s": iter_cpu_s,
        "spin_s": spin_s,
        "setup_s_samples": setups,
        **{key: first[key] for key in ("sizes", "workers", "numpy")},
    }


def run_traced(workload: str, seed: int, seconds: float, quick: bool, env: dict) -> dict:
    """The per-layer metrics of one workload from one traced process."""
    child = run_child(measure_argv(workload, seed, seconds, 1, quick), env)
    kept = (
        "attempted", "failed", "failures", "reps_s", "layer_self_s", "layer_self_coverage",
        "trace_file", "sizes", "workers",
    )
    return {
        "workload": workload,
        "metrics": {name: tuple(value) for name, value in child["layers"].items()},
        **{key: child[key] for key in kept},
    }


def print_metrics(result: dict) -> None:
    for name, (value, unit) in result["metrics"].items():
        print(f"{result['workload']:<24} {name:<44} {value:>14.6g} {unit}")
    for name, (value, unit) in result.get("unscaled", {}).items():
        print(f"{result['workload']:<24} {'unscaled.' + name:<44} {value:>14.6g} {unit}")
    share = result["failed"] / result["attempted"]
    print(f"{result['workload']:<24} {'failed_ops_share':<44} {share:>14.6g} ratio"
          f"   ({result['failed']} of {result['attempted']} operations)")
    for reason in result["failures"]:
        print(f"{result['workload']:<24} FAILED: {reason}", file=sys.stderr)


def contract_line(result: dict) -> str:
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
        },
    })


def git_revision() -> "str | None":
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def ledger_rows(results: dict, stamp: dict) -> "list[dict]":
    """Per-layer and ladder numbers in the ``benchutils`` row shape, for
    ``repro bench record``."""
    rows = []
    for workload, passes in results.items():
        raw_mb = passes["end_to_end"]["sizes"]["raw_bytes"] / 1e6
        config = dict(passes["end_to_end"]["sizes"], workload=workload, seed=stamp["seed"],
                      workers=stamp["workers"], cpu_count=stamp["nproc"], quick=stamp["quick"])
        timings = dict(passes["per_layer"]["reps_s"], iteration=passes["end_to_end"]["iter_s"])
        for name, reps_s in sorted(timings.items()):
            best = min(reps_s)
            rows.append({
                "path": f"e2e/{workload}/{name}", "config": config, "seconds": best,
                "reps_s": reps_s, "throughput_mb_s": raw_mb / best,
            })
    return rows


def run_all(args, spec: dict) -> int:
    env = bench_env()
    prepare_s = prepare(env)
    print(f"prepare_s {prepare_s:.3f} s (outside the gated metrics)")
    if args.prepare:
        return 0
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            raise SystemExit(f"unknown workload {args.workload!r}; known: {names}")
        names = [args.workload]
    seconds = args.seconds if args.seconds is not None else (2 if args.quick else spec["run_seconds"])

    if args.trace is not None:  # the driver's form
        if len(names) != 1:
            raise SystemExit("--trace needs --workload")
        run = run_traced if args.trace else run_untraced
        result = run(names[0], args.seed, seconds, args.quick, env)
        print_metrics(result)
        print(contract_line(result))
        return 0

    results = {}
    for name in names:
        results[name] = {
            "end_to_end": run_untraced(name, args.seed, seconds, args.quick, env),
            "per_layer": run_traced(name, args.seed, seconds, args.quick, env),
        }
        for result in results[name].values():
            print_metrics(result)
    first = results[names[0]]["end_to_end"]
    stamp = {
        "seed": args.seed, "quick": args.quick, "seconds": seconds,
        "nproc": os.cpu_count(), "workers": first["workers"],
        "thread_pins": {pin: "1" for pin in THREAD_PINS},
        "python": platform.python_version(), "numpy": first["numpy"],
        "git_revision": git_revision(), "prepare_s": prepare_s,
    }
    out_file = args.out or os.path.join(OUT_DIR, "result.json")
    with open(out_file, "w", encoding="utf-8") as handle:
        json.dump({"claim": None, "stamp": stamp, "workloads": results}, handle, indent=1)
    print(f"wrote {out_file}")
    if args.rows_out:
        rows = ledger_rows(results, stamp)
        with open(args.rows_out, "w", encoding="utf-8") as handle:
            json.dump(rows, handle, indent=1)
        print(f"wrote {len(rows)} rows to {args.rows_out}")
    failed = sum(p["failed"] for passes in results.values() for p in passes.values())
    return 1 if failed else 0


def compare(path_a: str, path_b: str, spec: dict) -> int:
    """B against A per workload x end-to-end metric; non-zero when B is
    worse than A by more than the bound, or the runs are not comparable."""
    with open(path_a, encoding="utf-8") as handle:
        a = json.load(handle)
    with open(path_b, encoding="utf-8") as handle:
        b = json.load(handle)
    for key in ("nproc", "seed", "quick", "workers"):
        if a["stamp"][key] != b["stamp"][key]:
            print(f"not comparable: {key} {a['stamp'][key]!r} != {b['stamp'][key]!r}")
            return 2
    status = 0
    print(f"{'workload':<24} {'metric':<28} {'A':>12} {'B':>12} {'worse by':>9} {'bound':>7}")
    for workload, passes_a in a["workloads"].items():
        end_a = passes_a["end_to_end"]
        end_b = b["workloads"][workload]["end_to_end"]
        if end_a["sizes"] != end_b["sizes"]:
            print(f"not comparable: sizes of {workload} differ")
            return 2
        rows = [
            (m["name"], m["better"], m["bound"], end_a["metrics"][m["name"]][0],
             end_b["metrics"][m["name"]][0])
            for m in spec["end_to_end"]
        ]
        rows.append(("failed_ops_share", "lower", 0.0, end_a["failed_ops_share"],
                     end_b["failed_ops_share"]))
        for name, better, bound, value_a, value_b in rows:
            worse = (value_b - value_a) if better == "lower" else (value_a - value_b)
            gap = worse / value_a if value_a else (float("inf") if worse > 0 else 0.0)
            verdict = "" if gap <= bound else "  BEYOND BOUND"
            status = status or (1 if verdict else 0)
            print(f"{workload:<24} {name:<28} {value_a:>12.6g} {value_b:>12.6g} "
                  f"{gap:>+9.2%} {bound:>7.2%}{verdict}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", default=None, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0, help="seed of the generated fields")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one pass only: 0 = end-to-end metrics, 1 = per-layer metrics;\n"
                        "the last output line is then the driver's result object")
    parser.add_argument("--quick", action="store_true", help="small fields, few iterations")
    parser.add_argument("--prepare", action="store_true", help="train + cache weights, then stop")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="result JSON of a full run (default: benchmarks/e2e/out/result.json)")
    parser.add_argument("--rows-out", default=None, metavar="FILE",
                        help="also write per-layer and ladder rows for `repro bench record`")
    parser.add_argument("--compare", nargs=2, default=None, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare, spec)
    if not os.path.exists(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"no program to measure: {os.path.join(ROOT, 'src', 'repro')} is missing", file=sys.stderr)
        return 2
    return run_all(args, spec)


if __name__ == "__main__":
    sys.exit(main())
