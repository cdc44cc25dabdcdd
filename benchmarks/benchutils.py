"""Shared row schema and timing helpers for the ``bench_*.py`` scripts.

Every benchmark in this directory emits the same JSON row shape::

    {"path": ..., "config": {...}, "seconds": best,
     "reps_s": [per-rep wall times], "throughput_*": ...}

``seconds`` stays the historical best-of-reps number (robust to
scheduler noise, what the per-PR gates assert), while ``reps_s`` keeps
the individual rep times: :mod:`repro.perf.history` computes its
median/MAD regression statistics from them, so a recorded run carries
its own noise floor instead of a single point estimate.

``config`` holds the *identity* of what was measured plus derived
outcomes (speedups, overheads).  The history layer strips the derived
keys before fingerprinting — see ``_VOLATILE_PREFIXES`` there — so only
add new measured-outcome keys under those prefixes.
"""

from __future__ import annotations

import json
import os
import time


#: environment of a spawned child whose row is about the program's own
#: threads: a threaded matmul already spreads over the affinity mask
ONE_BLAS_THREAD = {f"{lib}_NUM_THREADS": "1" for lib in ("OMP", "OPENBLAS", "MKL")}


def best_of(fn, reps: int) -> "tuple[float, list[float]]":
    """``(best wall time, all rep wall times)`` over ``reps`` calls.

    Best-of is robust to scheduler noise for gating; the full rep list
    feeds the bench history's median/MAD regression detector.
    """
    times: list[float] = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times), times


def make_row(
    path: str,
    config: dict,
    seconds: float,
    reps_s: "list[float] | None" = None,
    **throughputs,
) -> dict:
    """One unified bench row; throughput fields pass through by name
    (``throughput_mb_s=...``, ``throughput_samples_s=...``)."""
    row = {"path": path, "config": dict(config), "seconds": float(seconds)}
    if reps_s:
        row["reps_s"] = [float(r) for r in reps_s]
    for field, value in throughputs.items():
        if not field.startswith("throughput"):
            raise ValueError(f"throughput field must start with 'throughput', got {field!r}")
        row[field] = value
    return row


def finalize_rows(rows: "list[dict]", quick: bool) -> "list[dict]":
    """Stamp host shape + quick mode onto every row's config (in place)."""
    for row in rows:
        row["config"]["cpu_count"] = os.cpu_count()
        row["config"]["quick"] = bool(quick)
    return rows


def write_rows(rows: "list[dict]", out: str) -> None:
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(rows, handle, indent=2)
        handle.write("\n")
    print(f"wrote {len(rows)} rows to {out}")
