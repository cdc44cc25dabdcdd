"""Persistent audit-run registry: append-only JSONL with diff and drift.

Every audited pipeline execution becomes one JSON line in a registry
file (a :class:`repro.io.serialization.JsonlRegistry`: a single
``O_APPEND`` write per record, so concurrent chunk workers interleave
whole records and a crash can at worst lose its own line).  The registry is
the memory the bound-tightness telemetry needs to become *regression*
telemetry: ``diff`` compares the per-layer tightness ratios of any two
runs, and ``detect_drift`` flags layers whose tightness regressed beyond
a threshold since the previous run — the "did a code or weight change
silently loosen the bound?" question the paper's Figs. 5–8 answer once,
asked continuously.

Run ids are assigned at append time as ``run-0001``, ``run-0002``, … so
two CI runs against the same registry are directly diffable; records
that already carry a ``run_id`` (re-imports, merges) keep it.
"""

from __future__ import annotations

from .trace import json_default

__all__ = ["RunRegistry"]

#: relative tightness increase treated as a regression by default (20%)
DEFAULT_DRIFT_THRESHOLD = 0.2

#: ignore drift on layers whose tightness is below this floor — at such
#: slack levels a "regression" is numerical noise, not a loosening bound
DRIFT_TIGHTNESS_FLOOR = 1e-9


class RunRegistry:
    """Append-only JSONL store of :class:`~repro.obs.audit.AuditRecord` rows.

    Parameters
    ----------
    path:
        Registry file; created on first append.  Reads tolerate a
        missing file (empty registry) and a torn trailing line.
    """

    def __init__(self, path: str) -> None:
        # repro.io imports repro.obs: import the file layer here, not at module level
        from ..io.serialization import JsonlRegistry

        self._file = JsonlRegistry(path, "run")
        self.path = self._file.path

    def append(self, record) -> dict:
        """Persist one record (an ``AuditRecord`` or a plain dict).

        Assigns a sequential ``run_id`` when the record has none and
        returns the payload as written.
        """
        payload = record.to_dict() if hasattr(record, "to_dict") else dict(record)
        return self._file.append(payload, default=json_default)

    def runs(self) -> list[dict]:
        """Every persisted run, oldest first."""
        return self._file.runs()

    def __len__(self) -> int:
        return len(self._file)

    def run_ids(self) -> list[str]:
        return self._file.run_ids()

    def get(self, key: "str | int") -> dict:
        """Look up a run by ``run_id`` or by (possibly negative) index."""
        return self._file.get(key)

    # -- comparison ------------------------------------------------------
    def diff(
        self,
        key_a: "str | int",
        key_b: "str | int",
        threshold: float = DEFAULT_DRIFT_THRESHOLD,
    ) -> dict:
        """Layer-by-layer tightness comparison of two runs.

        ``threshold`` is the relative tightness increase from A to B that
        counts as a regression.  Layers are matched by name; a layer
        present in only one run is reported under ``structure_changed``
        rather than silently dropped.
        """
        run_a, run_b = self.get(key_a), self.get(key_b)
        return diff_runs(run_a, run_b, threshold=threshold)

    def detect_drift(self, threshold: float = DEFAULT_DRIFT_THRESHOLD) -> "dict | None":
        """Diff the latest run against its predecessor (None if < 2 runs)."""
        runs = self.runs()
        if len(runs) < 2:
            return None
        return diff_runs(runs[-2], runs[-1], threshold=threshold)


def _layer_map(run: dict) -> dict:
    return {layer.get("name"): layer for layer in run.get("layers", [])}


def diff_runs(
    run_a: dict, run_b: dict, threshold: float = DEFAULT_DRIFT_THRESHOLD
) -> dict:
    """Structural diff of two persisted audit records (A = baseline)."""
    layers_a, layers_b = _layer_map(run_a), _layer_map(run_b)
    shared = [name for name in layers_a if name in layers_b]
    rows = []
    regressions: list[str] = []
    new_violations: list[str] = []
    for name in shared:
        a, b = layers_a[name], layers_b[name]
        ta = float(a.get("tightness", 0.0))
        tb = float(b.get("tightness", 0.0))
        delta = tb - ta
        relative = delta / ta if ta > 0 else (float("inf") if delta > 0 else 0.0)
        regressed = tb > DRIFT_TIGHTNESS_FLOOR and relative > threshold
        if regressed:
            regressions.append(name)
        if b.get("verdict") == "VIOLATION" and a.get("verdict") != "VIOLATION":
            new_violations.append(name)
        rows.append(
            {
                "name": name,
                "index": b.get("index", a.get("index")),
                "tightness_a": ta,
                "tightness_b": tb,
                "delta": delta,
                "relative": relative,
                "regressed": regressed,
            }
        )
    qoi_a = float(run_a.get("qoi_tightness", 0.0))
    qoi_b = float(run_b.get("qoi_tightness", 0.0))
    return {
        "run_a": run_a.get("run_id"),
        "run_b": run_b.get("run_id"),
        "weight_version_a": run_a.get("weight_version"),
        "weight_version_b": run_b.get("weight_version"),
        "weights_changed": run_a.get("weight_version") != run_b.get("weight_version"),
        "threshold": float(threshold),
        "qoi": {
            "tightness_a": qoi_a,
            "tightness_b": qoi_b,
            "delta": qoi_b - qoi_a,
            "relative": (qoi_b - qoi_a) / qoi_a if qoi_a > 0 else 0.0,
        },
        "layers": rows,
        "regressions": regressions,
        "new_violations": new_violations,
        "structure_changed": sorted(
            set(layers_a).symmetric_difference(layers_b)
        ),
        "verdict_a": run_a.get("verdict"),
        "verdict_b": run_b.get("verdict"),
    }
