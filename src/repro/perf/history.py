"""Persistent benchmark history: a JSONL registry with regression gates.

``BENCH_*.json`` files used to be written once per PR and go dark; this
module gives them a trajectory.  A :class:`BenchRegistry` (a
:class:`repro.io.serialization.JsonlRegistry`, like the audit registry)
appends one JSONL record per benchmark *run*, each holding the unified
rows emitted by ``benchmarks/benchutils.py``.  Rows are keyed by
a **config fingerprint** — a content hash of ``(path, config)`` with
measured/derived keys (speedups, overheads, compile counts) stripped —
so two runs are compared only where they measured the same thing on a
comparably shaped host (``cpu_count`` stays in the fingerprint on
purpose: cross-machine timings are not comparable evidence).

The regression detector is deliberately robust rather than clever:

* the per-row statistic is the **median of the recorded rep times**
  (falling back to the row's best-of ``seconds`` when reps are absent);
* a slowdown is flagged only when the relative change exceeds
  ``threshold`` **and** the absolute change clears ``mad_k`` scaled
  median-absolute-deviations of the noisier run (timing noise must not
  gate CI);
* a **min-rep guard** doubles the relative threshold when either side
  has fewer than ``min_reps`` reps — sparse evidence earns a wider
  confidence band, not a free pass.

``repro bench record|report|diff`` is the CLI surface; ``bench diff``
exits nonzero on a flagged regression, which is the CI perf gate.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

from ..io.serialization import JsonlRegistry

__all__ = [
    "BenchRegistry",
    "DEFAULT_BENCH_THRESHOLD",
    "DEFAULT_MAD_K",
    "DEFAULT_MIN_REPS",
    "config_fingerprint",
    "describe_bench_diff",
    "detect_regressions",
    "stable_config",
]

DEFAULT_BENCH_THRESHOLD = 0.20
DEFAULT_MIN_REPS = 3
DEFAULT_MAD_K = 3.0

#: MAD -> sigma for normally distributed noise
_MAD_SCALE = 1.4826

#: config keys that are measured outcomes, not run identity
_VOLATILE_PREFIXES = ("speedup", "overhead", "journal_overhead")
_VOLATILE_KEYS = frozenset({"lowerings", "compiles"})


def stable_config(config: dict) -> dict:
    """The identity-bearing subset of a bench row's config."""
    if not isinstance(config, dict):
        return {}
    return {
        key: value
        for key, value in config.items()
        if key not in _VOLATILE_KEYS
        and not any(str(key).startswith(prefix) for prefix in _VOLATILE_PREFIXES)
    }


def config_fingerprint(path: str, config: dict) -> str:
    """Content address of what a bench row measured."""
    payload = json.dumps(
        {"path": path, "config": stable_config(config)},
        sort_keys=True,
        default=str,
    )
    return hashlib.blake2b(payload.encode(), digest_size=8).hexdigest()


def _normalize_row(row: dict) -> "dict | None":
    if not isinstance(row, dict) or "path" not in row or "seconds" not in row:
        return None
    config = row.get("config") if isinstance(row.get("config"), dict) else {}
    reps = row.get("reps_s")
    reps = [float(r) for r in reps if r is not None] if isinstance(reps, list) else []
    out = {
        "path": str(row["path"]),
        "config": config,
        "key": config_fingerprint(str(row["path"]), config),
        "seconds": float(row["seconds"]),
        "reps_s": reps,
    }
    for field, value in row.items():
        if str(field).startswith("throughput") and value is not None:
            out[field] = value
    return out


def _row_stats(row: dict) -> "tuple[float, float, int]":
    """(median seconds, scaled MAD, rep count) for one normalized row."""
    reps = [r for r in row.get("reps_s", []) if r > 0]
    if reps:
        med = statistics.median(reps)
        mad = (
            _MAD_SCALE * statistics.median([abs(r - med) for r in reps])
            if len(reps) >= 2
            else 0.0
        )
        return med, mad, len(reps)
    return float(row.get("seconds") or 0.0), 0.0, 0


def detect_regressions(
    rows_a: list,
    rows_b: list,
    *,
    threshold: float = DEFAULT_BENCH_THRESHOLD,
    min_reps: int = DEFAULT_MIN_REPS,
    mad_k: float = DEFAULT_MAD_K,
) -> dict:
    """Compare two row sets keyed by config fingerprint.

    Returns ``{"rows": [...], "regressions": [...], "improvements": [...],
    "uncompared": n}``; a row regresses when candidate median exceeds the
    baseline median by more than the (possibly widened) relative
    threshold *and* the absolute gap clears the MAD noise floor.
    """
    if threshold <= 0:
        raise ValueError(f"threshold must be positive, got {threshold}")
    a_by_key = {row["key"]: row for row in rows_a}
    b_by_key = {row["key"]: row for row in rows_b}
    shared = sorted(set(a_by_key) & set(b_by_key))
    rows, regressions, improvements = [], [], []
    for key in shared:
        row_a, row_b = a_by_key[key], b_by_key[key]
        med_a, mad_a, n_a = _row_stats(row_a)
        med_b, mad_b, n_b = _row_stats(row_b)
        if med_a <= 0 or med_b <= 0:
            continue
        relative = med_b / med_a - 1.0
        sparse = min(n_a, n_b) < min_reps
        effective = threshold * (2.0 if sparse else 1.0)
        noise_floor = mad_k * max(mad_a, mad_b)
        verdict = "ok"
        if relative > effective and (med_b - med_a) > noise_floor:
            verdict = "regression"
        elif relative < -effective and (med_a - med_b) > noise_floor:
            verdict = "improvement"
        entry = {
            "key": key,
            "path": row_a["path"],
            "config": stable_config(row_a.get("config", {})),
            "baseline_s": med_a,
            "candidate_s": med_b,
            "relative": relative,
            "threshold": effective,
            "mad_floor_s": noise_floor,
            "reps": [n_a, n_b],
            "sparse": sparse,
            "verdict": verdict,
        }
        rows.append(entry)
        if verdict == "regression":
            regressions.append(entry)
        elif verdict == "improvement":
            improvements.append(entry)
    uncompared = len(set(a_by_key) ^ set(b_by_key))
    return {
        "rows": rows,
        "regressions": regressions,
        "improvements": improvements,
        "compared": len(rows),
        "uncompared": uncompared,
    }


def _row_label(entry: dict) -> str:
    config = entry.get("config", {})
    qualifier = (
        config.get("backend")
        or config.get("impl")
        or config.get("executor")
        or config.get("cache")
        or config.get("journal")
        or config.get("telemetry")
    )
    path = entry.get("path", "?")
    return f"{path}[{qualifier}]" if qualifier else str(path)


def describe_bench_diff(diff: dict) -> str:
    """Human-readable summary of a :func:`detect_regressions` report."""
    lines = [
        f"compared {diff.get('compared', 0)} row(s), "
        f"{diff.get('uncompared', 0)} without a counterpart"
    ]
    for entry in diff.get("rows", []):
        marker = {"regression": "!!", "improvement": "++"}.get(entry["verdict"], "  ")
        sparse = " (sparse reps)" if entry.get("sparse") else ""
        lines.append(
            f"{marker} {_row_label(entry):<44} "
            f"{entry['baseline_s'] * 1e3:>9.3f}ms -> {entry['candidate_s'] * 1e3:>9.3f}ms "
            f"({entry['relative'] * 100:+.1f}%, gate ±{entry['threshold'] * 100:.0f}%{sparse})"
        )
    n_reg = len(diff.get("regressions", []))
    lines.append(
        f"regressions: {n_reg}, improvements: {len(diff.get('improvements', []))}"
    )
    return "\n".join(lines)


class BenchRegistry(JsonlRegistry):
    """Append-only JSONL history of benchmark runs.

    One line per run: ``{"run_id": "bench-0001", "bench": ..., "label":
    ..., "git_rev": ..., "recorded_unix": ..., "rows": [...]}`` where
    every row carries its config fingerprint.  Reads tolerate a torn
    trailing line (a crashed writer loses at most its own record).
    """

    def __init__(self, path: str) -> None:
        super().__init__(path, "bench")

    def record(
        self,
        rows: list,
        *,
        bench: str,
        label: str = "",
        git_rev: str = "",
        recorded_unix: "float | None" = None,
    ) -> dict:
        normalized = [r for r in (_normalize_row(row) for row in rows) if r]
        if not normalized:
            raise ValueError("bench record requires at least one row with path/seconds")
        return self.append({
            "bench": str(bench),
            "label": str(label),
            "git_rev": str(git_rev),
            "recorded_unix": float(recorded_unix if recorded_unix is not None else time.time()),
            "rows": normalized,
        })

    def get(self, key) -> dict:
        """A run by id (``bench-0003``) or index; the CLI's index
        arrives as a string (``"-1"`` = latest)."""
        if isinstance(key, str) and key.lstrip("-").isdigit():
            key = int(key)
        return super().get(key)

    def diff(
        self,
        run_a,
        run_b,
        *,
        threshold: float = DEFAULT_BENCH_THRESHOLD,
        min_reps: int = DEFAULT_MIN_REPS,
        mad_k: float = DEFAULT_MAD_K,
    ) -> dict:
        """Baseline-vs-candidate regression report between two runs."""
        baseline = self.get(run_a)
        candidate = self.get(run_b)
        report = detect_regressions(
            baseline.get("rows", []),
            candidate.get("rows", []),
            threshold=threshold,
            min_reps=min_reps,
            mad_k=mad_k,
        )
        report["run_a"] = baseline.get("run_id")
        report["run_b"] = candidate.get("run_id")
        return report
