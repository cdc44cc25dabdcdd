"""Persistent audit-run registry: append-only JSONL with a run diff.

Every audited pipeline execution becomes one JSON line in a registry
file, written by :func:`repro.io.serialization.append_jsonl` (a single
``O_APPEND`` write per record, so concurrent chunk workers interleave
whole records and a crash can at worst lose its own line).  The registry is
the memory the bound-tightness telemetry needs to become *regression*
telemetry: :func:`diff_runs` compares the per-layer tightness ratios of
any two runs and flags layers whose tightness regressed beyond a
threshold — the "did a code or weight change silently loosen the bound?"
question the paper's Figs. 5–8 answer once, asked continuously.

Run ids are assigned at append time as ``run-0001``, ``run-0002``, … in
file order, so two CI runs against the same registry are directly
diffable; records that already carry a ``run_id`` (re-imports, merges)
keep it.
"""

from __future__ import annotations

import os

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
        Registry file; created on first append.  Reads (through
        :func:`repro.io.serialization.read_jsonl_records`) tolerate a
        missing file (empty registry) and torn lines, wherever they sit.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        # the file size after this object's last append and the number of
        # runs it held then: an append re-reads the file only when
        # another writer has grown it since
        self._size = 0
        self._count = 0

    def append(self, record) -> dict:
        """Persist one record (an ``AuditRecord`` or a plain dict).

        Assigns the next sequential ``run_id`` when the record has none
        and returns the payload as written.
        """
        # repro.io imports repro.obs: the file layer is imported per call
        from ..io.serialization import append_jsonl

        payload = record.to_dict() if hasattr(record, "to_dict") else dict(record)
        size = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        if size != self._size:
            self._count = len(self)
        if not payload.get("run_id"):
            payload["run_id"] = f"run-{self._count + 1:04d}"
        self._size = size + append_jsonl(self.path, payload, default=json_default)
        self._count += 1
        return payload

    def runs(self) -> list[dict]:
        """Every persisted run, oldest first."""
        from ..io.serialization import read_jsonl_records

        records = read_jsonl_records(self.path)
        return [r for r in records if isinstance(r, dict) and r.get("run_id")]

    def __len__(self) -> int:
        return len(self.runs())

    def get(self, key: "str | int") -> dict:
        """Look up a run by ``run_id`` or by (possibly negative) index; an
        index given as a string (the CLI's ``"-1"``) counts as an index."""
        if isinstance(key, str) and key.lstrip("-").isdigit():
            key = int(key)
        runs = self.runs()
        if isinstance(key, int):
            try:
                return runs[key]
            except IndexError:
                raise KeyError(
                    f"registry {self.path!r} has {len(runs)} runs, no index {key}"
                ) from None
        for run in runs:
            if run["run_id"] == key:
                return run
        recent = ", ".join(run["run_id"] for run in runs[-10:]) or "(empty)"
        raise KeyError(f"no run {key!r} in registry {self.path!r}; recent: {recent}")


def _layer_map(run: dict) -> dict:
    return {layer.get("name"): layer for layer in run.get("layers", [])}


def diff_runs(
    run_a: dict, run_b: dict, threshold: float = DEFAULT_DRIFT_THRESHOLD
) -> dict:
    """Structural diff of two persisted ``AuditRecord`` payloads (A = baseline).

    ``threshold`` is the relative tightness increase from A to B that
    counts as a regression.  Layers are matched by name; a layer present
    in only one run is reported under ``structure_changed`` rather than
    silently dropped.
    """
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
        "weights_a": run_a.get("weights"),
        "weights_b": run_b.get("weights"),
        "weights_changed": run_a.get("weights") != run_b.get("weights"),
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
