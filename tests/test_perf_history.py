"""Tests for the persistent benchmark history and its regression gates.

The contract under test: runs are compared **only** where the config
fingerprint says they measured the same thing (volatile derived keys
stripped, ``cpu_count`` kept); the detector's median/MAD statistics gate
on evidence, not noise (min-rep guard widens the band, the MAD floor
absorbs jitter); and ``repro bench diff`` turns a flagged regression
into a nonzero exit code — the CI perf gate.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.perf.history import (
    BenchRegistry,
    config_fingerprint,
    describe_bench_diff,
    detect_regressions,
    stable_config,
)


def _row(seconds, reps_s=None, backend="fused_warm", **config):
    base = {"model": "m", "batch": 1, "backend": backend, "cpu_count": 8}
    base.update(config)
    row = {"path": "forward", "config": base, "seconds": seconds,
           "throughput_samples_s": 1.0 / seconds}
    if reps_s is not None:
        row["reps_s"] = reps_s
    return row


# -- fingerprinting ----------------------------------------------------------


def test_stable_config_strips_measured_outcomes_keeps_identity():
    config = {
        "backend": "fused_warm",
        "cpu_count": 8,
        "quick": True,
        "speedup_vs_reference": 3.2,
        "overhead_vs_off": 0.05,
        "journal_overhead": 0.002,
        "lowerings": 1,
        "compiles": 1,
    }
    assert stable_config(config) == {
        "backend": "fused_warm",
        "cpu_count": 8,
        "quick": True,
    }
    assert stable_config("not a dict") == {}


def test_fingerprint_invariant_to_volatile_keys_sensitive_to_identity():
    base = _row(1.0)
    noisy = _row(
        1.0, speedup_vs_reference=9.9, lowerings=3, src_lines=19351, public_names=222, rss_mb=38.0
    )
    key = config_fingerprint(base["path"], base["config"])
    assert config_fingerprint(noisy["path"], noisy["config"]) == key
    # identity-bearing changes move the fingerprint
    other_host = _row(1.0, cpu_count=64)
    assert config_fingerprint(other_host["path"], other_host["config"]) != key
    other_backend = _row(1.0, backend="reference")
    assert config_fingerprint(other_backend["path"], other_backend["config"]) != key


# -- the regression detector --------------------------------------------------


def _norm(rows):
    from repro.perf.history import _normalize_row

    return [_normalize_row(r) for r in rows]


def test_identical_runs_flag_nothing():
    rows = _norm([_row(1.0, [1.0, 1.01, 0.99]), _row(0.5, [0.5, 0.51, 0.49],
                                                     backend="reference")])
    report = detect_regressions(rows, rows)
    assert report["compared"] == 2 and report["uncompared"] == 0
    assert report["regressions"] == [] and report["improvements"] == []
    assert all(entry["verdict"] == "ok" for entry in report["rows"])


def test_thirty_percent_slowdown_is_flagged():
    baseline = _norm([_row(1.0, [1.0, 1.001, 0.999])])
    inflated = _norm([_row(1.3, [1.3, 1.301, 1.299])])
    report = detect_regressions(baseline, inflated)
    assert [e["verdict"] for e in report["rows"]] == ["regression"]
    entry = report["regressions"][0]
    assert entry["relative"] == pytest.approx(0.3, abs=1e-3)
    assert not entry["sparse"]
    # and the mirror image is an improvement, not a regression
    report = detect_regressions(inflated, baseline)
    assert len(report["improvements"]) == 1 and report["regressions"] == []


def test_min_rep_guard_doubles_the_threshold():
    baseline = _norm([_row(1.0, [1.0, 1.0])])  # 2 reps < min_reps=3
    slowed = _norm([_row(1.3, [1.3, 1.3])])
    report = detect_regressions(baseline, slowed, threshold=0.20)
    entry = report["rows"][0]
    assert entry["sparse"] and entry["threshold"] == pytest.approx(0.40)
    assert entry["verdict"] == "ok"  # +30% under the widened ±40% band
    worse = _norm([_row(1.5, [1.5, 1.5])])
    assert detect_regressions(baseline, worse)["regressions"]


def test_mad_noise_floor_absorbs_jittery_rows():
    """+30% relative but within the candidate's own rep scatter: not flagged."""
    baseline = _norm([_row(0.010, [0.010, 0.0101, 0.0099])])
    jittery = _norm([_row(0.013, [0.013, 0.020, 0.008])])
    report = detect_regressions(baseline, jittery)
    entry = report["rows"][0]
    assert entry["mad_floor_s"] > entry["candidate_s"] - entry["baseline_s"]
    assert entry["verdict"] == "ok"


def test_rows_without_reps_fall_back_to_seconds():
    baseline = _norm([_row(1.0)])
    inflated = _norm([_row(1.3)])
    report = detect_regressions(baseline, inflated)
    entry = report["rows"][0]
    assert entry["reps"] == [0, 0] and entry["sparse"]
    assert entry["baseline_s"] == 1.0 and entry["candidate_s"] == 1.3


def test_disjoint_fingerprints_are_uncompared_not_errors():
    a = _norm([_row(1.0, cpu_count=8)])
    b = _norm([_row(1.0, cpu_count=128)])
    report = detect_regressions(a, b)
    assert report["compared"] == 0 and report["uncompared"] == 2


def test_detector_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        detect_regressions([], [], threshold=0.0)


def test_describe_bench_diff_marks_verdicts():
    baseline = _norm([_row(1.0, [1.0] * 3)])
    inflated = _norm([_row(1.3, [1.3] * 3)])
    text = describe_bench_diff(detect_regressions(baseline, inflated))
    assert "!! forward[fused_warm]" in text
    assert "+30.0%" in text and "regressions: 1" in text
    ok = describe_bench_diff(detect_regressions(baseline, baseline))
    assert "!!" not in ok and "regressions: 0" in ok


# -- the registry -------------------------------------------------------------


def test_registry_records_sequential_run_ids(tmp_path):
    registry = BenchRegistry(str(tmp_path / "hist.jsonl"))
    assert registry.runs() == []
    first = registry.record([_row(1.0)], bench="bench_forward", label="seed",
                            git_rev="abc1234")
    second = registry.record([_row(1.0)], bench="bench_forward")
    assert first["run_id"] == "bench-0001" and second["run_id"] == "bench-0002"
    runs = registry.runs()
    assert [r["run_id"] for r in runs] == ["bench-0001", "bench-0002"]
    assert runs[0]["label"] == "seed" and runs[0]["git_rev"] == "abc1234"
    assert runs[0]["rows"][0]["key"] == config_fingerprint(
        "forward", _row(1.0)["config"]
    )


def test_registry_get_by_id_and_index(tmp_path):
    registry = BenchRegistry(str(tmp_path / "hist.jsonl"))
    registry.record([_row(1.0)], bench="a")
    registry.record([_row(2.0)], bench="b")
    assert registry.get("bench-0002")["bench"] == "b"
    assert registry.get(-1)["bench"] == "b"
    assert registry.get("0")["bench"] == "a"
    with pytest.raises(KeyError):
        registry.get("bench-9999")
    with pytest.raises(KeyError):
        registry.get(7)


def test_registry_record_rejects_empty_or_malformed(tmp_path):
    registry = BenchRegistry(str(tmp_path / "hist.jsonl"))
    with pytest.raises(ValueError):
        registry.record([], bench="x")
    with pytest.raises(ValueError):
        registry.record([{"no_path": True}, "junk"], bench="x")


def test_registry_tolerates_torn_trailing_line(tmp_path):
    path = tmp_path / "hist.jsonl"
    registry = BenchRegistry(str(path))
    registry.record([_row(1.0)], bench="bench_forward")
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"run_id": "bench-tor')  # crashed writer
    assert [r["run_id"] for r in registry.runs()] == ["bench-0001"]
    with pytest.raises(KeyError):
        registry.get("bench-tor")


def test_registry_diff_end_to_end(tmp_path):
    registry = BenchRegistry(str(tmp_path / "hist.jsonl"))
    registry.record([_row(1.0, [1.0] * 4)], bench="bench_forward")
    registry.record([_row(1.0, [1.0] * 4)], bench="bench_forward")
    registry.record([_row(1.35, [1.35] * 4)], bench="bench_forward")
    same = registry.diff("bench-0001", "bench-0002")
    assert same["regressions"] == [] and same["compared"] == 1
    drift = registry.diff("bench-0001", "bench-0003")
    assert len(drift["regressions"]) == 1
    assert drift["run_a"] == "bench-0001" and drift["run_b"] == "bench-0003"


# -- the CLI gate -------------------------------------------------------------


def _write_rows(tmp_path, name, scale=1.0):
    rows = [_row(0.002 * scale, [0.002 * scale] * 4),
            _row(0.001 * scale, [0.001 * scale] * 4, backend="reference")]
    path = tmp_path / name
    path.write_text(json.dumps(rows))
    return str(path)


def test_cli_bench_record_report_diff_roundtrip(tmp_path, capsys):
    registry = str(tmp_path / "hist.jsonl")
    rows = _write_rows(tmp_path, "rows.json")
    assert main(["bench", "record", rows, "--registry", registry,
                 "--label", "run-a"]) == 0
    assert main(["bench", "record", rows, "--registry", registry]) == 0
    capsys.readouterr()

    assert main(["bench", "report", registry]) == 0
    out = capsys.readouterr().out
    assert "bench-0001" in out and "run-a" in out

    # identical runs: the gate passes
    assert main(["bench", "diff", "--registry", registry]) == 0
    assert "regressions: 0" in capsys.readouterr().out


def test_cli_bench_diff_flags_inflated_run(tmp_path, capsys):
    registry = str(tmp_path / "hist.jsonl")
    base = _write_rows(tmp_path, "base.json")
    slow = _write_rows(tmp_path, "slow.json", scale=1.3)
    assert main(["bench", "record", base, "--registry", registry]) == 0
    assert main(["bench", "record", slow, "--registry", registry]) == 0
    code = main(["bench", "diff", "bench-0001", "bench-0002",
                 "--registry", registry])
    out = capsys.readouterr().out
    assert code == 1
    assert "!!" in out and "+30.0%" in out


def test_cli_bench_diff_no_comparable_rows_passes(tmp_path, capsys):
    """Cross-machine fingerprints never match: the CI diff against a
    committed baseline must degrade to exit 0, not a false gate."""
    registry = str(tmp_path / "hist.jsonl")
    a = tmp_path / "a.json"
    a.write_text(json.dumps([_row(1.0, cpu_count=8)]))
    b = tmp_path / "b.json"
    b.write_text(json.dumps([_row(1.0, cpu_count=96)]))
    assert main(["bench", "record", str(a), "--registry", registry]) == 0
    assert main(["bench", "record", str(b), "--registry", registry]) == 0
    assert main(["bench", "diff", "--registry", registry]) == 0
    assert "no comparable rows" in capsys.readouterr().out


def test_cli_bench_diff_needs_two_runs(tmp_path, capsys):
    registry = str(tmp_path / "hist.jsonl")
    assert main(["bench", "diff", "--registry", registry]) == 1
    rows = _write_rows(tmp_path, "rows.json")
    assert main(["bench", "record", rows, "--registry", registry]) == 0
    assert main(["bench", "diff", "--registry", registry]) == 1


def test_cli_bench_record_accepts_wrapped_rows_and_defaults_bench(tmp_path, capsys):
    registry = str(tmp_path / "hist.jsonl")
    path = tmp_path / "BENCH_pr10.json"
    path.write_text(json.dumps({"rows": [_row(1.0)]}))
    assert main(["bench", "record", str(path), "--registry", registry]) == 0
    run = BenchRegistry(registry).get(-1)
    assert run["bench"] == "BENCH_pr10"


def test_cli_bench_record_rejects_rowless_file(tmp_path):
    registry = str(tmp_path / "hist.jsonl")
    path = tmp_path / "empty.json"
    path.write_text("[]")
    assert main(["bench", "record", str(path), "--registry", registry]) == 1
