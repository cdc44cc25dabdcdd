"""Tests for the command-line interface."""

import argparse
import os
import subprocess
import sys

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture(autouse=True)
def _restore_log_level():
    from repro.obs import set_log_level

    yield
    set_log_level("info")


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert "repro" in capsys.readouterr().out


def test_analyze_command(capsys):
    assert main(["analyze", "h2combustion"]) == 0
    out = capsys.readouterr().out
    assert "Eq. (5) gain" in out
    assert "fp16" in out and "int8" in out


def test_analyze_calibrated(capsys):
    assert main(["analyze", "h2combustion", "--calibrate"]) == 0
    assert "(calibrated)" in capsys.readouterr().out


def test_analyze_verbose_layer_report(capsys):
    assert main(["analyze", "h2combustion", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "SpectralLinear" in out
    assert "q fp16" in out


def test_plan_command(capsys):
    assert main(["plan", "h2combustion", "--tolerance", "1e-2"]) == 0
    out = capsys.readouterr().out
    assert "tol=1.00e-02" in out
    assert "compression budget" in out


def test_pipeline_command(capsys):
    assert main(
        ["pipeline", "h2combustion", "--tolerance", "1e-2", "--codec", "sz"]
    ) == 0
    out = capsys.readouterr().out
    assert "tolerance honoured" in out


def test_compress_decompress_roundtrip(tmp_path, capsys, smooth_field_2d):
    array_path = tmp_path / "field.npy"
    blob_path = tmp_path / "field.rblob"
    out_path = tmp_path / "restored.npy"
    np.save(array_path, smooth_field_2d)

    assert main(
        [
            "compress", str(array_path), "--out", str(blob_path),
            "--codec", "mgard", "--tolerance", "1e-4",
        ]
    ) == 0
    assert "ratio" in capsys.readouterr().out

    assert main(["decompress", str(blob_path), "--out", str(out_path)]) == 0
    restored = np.load(out_path)
    assert np.abs(restored - smooth_field_2d).max() <= 1e-4


def test_store_command(tmp_path, capsys, smooth_field_2d):
    from repro.io import DatasetStore

    store = DatasetStore(str(tmp_path))
    store.put("snapshot", smooth_field_2d, tolerance=1e-3)
    assert main(["store", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "snapshot" in out

    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["store", str(empty)]) == 0
    assert "empty store" in capsys.readouterr().out


def test_unknown_workload_rejected():
    with pytest.raises(SystemExit):
        main(["analyze", "imagenet"])


# -- observability flags ----------------------------------------------------


def test_traced_pipeline_writes_spans_and_metrics(tmp_path, capsys):
    """The trace holds the run's measurements and its counts: one
    ``pipeline.execute`` and one ``codec.compress`` span per call."""
    from collections import Counter

    from repro.io import read_jsonl_records

    trace_path = tmp_path / "trace.jsonl"
    assert main(
        [
            "--trace", str(trace_path),
            "pipeline", "h2combustion", "--tolerance", "1e-2",
        ]
    ) == 0
    assert "tolerance honoured" in capsys.readouterr().out
    rows = read_jsonl_records(str(trace_path))
    spans = Counter(row["name"] for row in rows)
    assert {
        "pipeline.execute", "pipeline.compress", "pipeline.decompress",
        "pipeline.inference", "pipeline.guard", "codec.compress",
    } <= set(spans)
    assert spans["pipeline.execute"] == spans["codec.compress"] == 1
    guard = next(row for row in rows if row["name"] == "pipeline.guard")
    assert "predicted_bound" in guard["attributes"]
    assert "observed_error" in guard["attributes"]
    assert not any("error" in row["attributes"] for row in rows)


def test_trace_disabled_after_main():
    from repro.obs import NULL_TRACER, get_tracer

    main(["plan", "h2combustion", "--tolerance", "1e-2"])
    assert get_tracer() is NULL_TRACER


def test_trace_summary_goes_to_stderr(capsys):
    assert main(
        ["--trace-summary", "pipeline", "h2combustion", "--tolerance", "1e-2"]
    ) == 0
    captured = capsys.readouterr()
    assert "pipeline.execute" in captured.err
    assert "pipeline.execute" not in captured.out


def test_log_level_debug_adds_context_lines(capsys):
    assert main(
        ["--log-level", "debug", "pipeline", "h2combustion", "--tolerance", "1e-2"]
    ) == 0
    out = capsys.readouterr().out
    assert "workload loaded" in out  # debug-only line
    assert "tolerance honoured" in out


def test_log_level_error_silences_stdout(capsys):
    assert main(
        ["--log-level", "error", "plan", "h2combustion", "--tolerance", "1e-2"]
    ) == 0
    assert capsys.readouterr().out == ""


def _audited_pipeline(registry_path, *flags):
    return main(
        ["--audit", str(registry_path), "pipeline", "h2combustion", "--tolerance", *flags]
    )


def test_audit_flag_records_a_run(tmp_path, capsys):
    from repro.io import read_jsonl_records

    registry_path = tmp_path / "runs.jsonl"
    assert _audited_pipeline(registry_path, "1e-2") == 0
    out = capsys.readouterr().out
    (record,) = read_jsonl_records(str(registry_path))
    assert record["run_id"] == "run-0001"
    assert record["label"] == "h2combustion"
    assert record["verdict"] in ("ok", "loose")
    assert record["layers"], "PSN MLP audits must carry per-layer rows"
    assert f"audit run-0001: {record['verdict']}" in out


def test_audit_flag_on_pipeline_command(tmp_path, capsys):
    from repro.io import read_jsonl_records
    from repro.obs import NULL_AUDITOR, get_auditor

    registry_path = tmp_path / "runs.jsonl"
    assert _audited_pipeline(registry_path, "1e-2") == 0
    capsys.readouterr()
    (record,) = read_jsonl_records(str(registry_path))
    assert record["codec"] == "sz"
    assert get_auditor() is NULL_AUDITOR  # switched off after main


def test_audit_flag_forced_format(tmp_path, capsys):
    from repro.io import read_jsonl_records

    registry_path = tmp_path / "runs.jsonl"
    assert _audited_pipeline(registry_path, "2e-1", "--fmt", "int8") == 0
    assert "fmt=int8" in capsys.readouterr().out
    (record,) = read_jsonl_records(str(registry_path))
    assert record["certificate"]["fmt"] == "int8"


def test_audit_flag_rejects_infeasible_format(tmp_path, capsys):
    registry_path = tmp_path / "runs.jsonl"
    assert _audited_pipeline(registry_path, "1e-6", "--fmt", "int8") == 1
    assert "error (ToleranceError)" in capsys.readouterr().err
    assert not registry_path.exists()


def test_audit_flag_exits_one_on_a_violation(tmp_path, capsys, monkeypatch):
    """A violated bound fails the command even when the tolerance holds."""
    from repro.obs import audit

    monkeypatch.setattr(audit, "classify", lambda observed, predicted: (2.0, "VIOLATION"))
    assert _audited_pipeline(tmp_path / "runs.jsonl", "1e-2") == 1
    captured = capsys.readouterr()
    assert "tolerance honoured" in captured.out
    assert "audit run-0001: VIOLATION" in captured.out
    assert "AUDIT VIOLATION" in captured.err


def test_audit_report_and_diff(tmp_path, capsys):
    registry_path = tmp_path / "runs.jsonl"
    for _ in range(2):
        assert _audited_pipeline(registry_path, "1e-2") == 0
    capsys.readouterr()

    assert main(["audit", "report", str(registry_path)]) == 0
    out = capsys.readouterr().out
    assert "run-0001" in out and "run-0002" in out
    assert "h2combustion" in out

    assert main(
        ["audit", "diff", "run-0001", "run-0002", "--registry", str(registry_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "audit diff run-0001 -> run-0002" in out
    assert "weights unchanged" in out
    assert "no drift" in out

    # a run given by index, as the help says
    assert main(["audit", "diff", "0", "-1", "--registry", str(registry_path)]) == 0
    assert "audit diff run-0001 -> run-0002" in capsys.readouterr().out


def test_audit_diff_unknown_run(tmp_path, capsys):
    registry_path = tmp_path / "runs.jsonl"
    assert _audited_pipeline(registry_path, "1e-2") == 0
    capsys.readouterr()
    assert main(
        ["audit", "diff", "run-0001", "run-0099", "--registry", str(registry_path)]
    ) == 1
    assert "error" in capsys.readouterr().err


def test_audit_record_is_not_a_command(capsys):
    with pytest.raises(SystemExit):
        main(["audit", "record", "h2combustion", "--tolerance", "1e-2"])
    assert "invalid choice: 'record'" in capsys.readouterr().err


def test_bench_is_not_a_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("argv", "fragment"),
    [
        (
            ["--metrics", "m.json", "pipeline", "h2combustion", "--tolerance", "1e-3"],
            # the unknown flag leaves its file name where the command goes
            "invalid choice: 'm.json'",
        ),
        (["metrics", "m.json"], "invalid choice: 'metrics'"),
    ],
    ids=["flag", "command"],
)
def test_metrics_is_not_a_flag_or_command(capsys, argv, fragment):
    """Counts are read from the trace, the result and the journal; there
    is no metrics export to write or render."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert fragment in capsys.readouterr().err


def test_observability_flushes_when_command_raises(tmp_path, capsys):
    from repro.obs import NULL_TRACER, get_auditor, get_tracer, NULL_AUDITOR

    trace_path = tmp_path / "trace.jsonl"
    audit_path = tmp_path / "runs.jsonl"
    with pytest.raises(FileNotFoundError):
        main(
            [
                "--trace", str(trace_path),
                "--audit", str(audit_path),
                "compress", str(tmp_path / "missing.npy"),
                "--out", str(tmp_path / "out.rblob"), "--tolerance", "1e-3",
            ]
        )
    capsys.readouterr()
    # partial telemetry still lands on disk and the globals are reset
    assert trace_path.exists()
    assert get_tracer() is NULL_TRACER
    assert get_auditor() is NULL_AUDITOR


def test_trace_summary_survives_trace_export_failure(tmp_path, capsys, monkeypatch):
    from repro.obs import NULL_TRACER, Tracer, get_tracer

    def _boom(self, path):
        raise OSError("disk full")

    monkeypatch.setattr(Tracer, "export_jsonl", _boom)
    with pytest.raises(OSError, match="disk full"):
        main(
            [
                "--trace", str(tmp_path / "trace.jsonl"), "--trace-summary",
                "pipeline", "h2combustion", "--tolerance", "1e-2",
            ]
        )
    # the span tree is printed despite the failed export
    assert "pipeline.execute" in capsys.readouterr().err
    assert get_tracer() is NULL_TRACER


# -- chunked-flag validation ------------------------------------------------


@pytest.mark.parametrize(
    ("flags", "fragment"),
    [
        (["--workers", "0"], "--workers must be a positive integer"),
        (["--workers", "-2"], "--workers must be a positive integer"),
        (["--chunk-size", "-3"], "--chunk-size must be a positive integer"),
        (["--chunk-size", "0"], "--chunk-size must be a positive integer"),
        (["--max-retries", "-1"], "--max-retries must be >= 0"),
        (["--task-timeout", "0"], "--task-timeout must be positive"),
        (["--resume"], "--resume requires --checkpoint"),
    ],
)
def test_pipeline_rejects_bad_chunk_flags(capsys, flags, fragment):
    assert main(["pipeline", "h2combustion", "--tolerance", "1e-2", *flags]) == 1
    captured = capsys.readouterr()
    assert "ConfigurationError" in captured.out + captured.err
    assert fragment in captured.out + captured.err


def test_pipeline_chunked_checkpoint_and_resume(tmp_path, capsys):
    checkpoint = str(tmp_path / "ck")
    base = [
        "pipeline", "h2combustion", "--tolerance", "1e-2",
        "--workers", "2", "--chunk-size", "16", "--checkpoint", checkpoint,
    ]
    assert main(base) == 0
    out = capsys.readouterr().out
    assert "chunked run" in out and "tolerance honoured" in out
    assert "0 replayed" in out
    # second invocation with --resume replays every chunk
    assert main([*base, "--resume"]) == 0
    out = capsys.readouterr().out
    assert "0 computed" in out
    assert "tolerance honoured" in out


def test_cli_command_set_is_pinned():
    """The CLI's commands, its global flags and ``pipeline``'s flags,
    listed literally: the HTTP metrics server, the trace analyzer, the
    sampling profiler, the bench history, the metrics export and the
    ``coordinate`` / ``worker`` commands are gone (a distributed run is
    ``execute_chunked(executor="distributed")`` with in-process shard
    workers).  ``python -m repro`` given ``coordinate`` exits 2 as an
    invalid choice."""
    parser = build_parser()
    commands = next(
        action for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    assert set(commands.choices) == {
        "analyze", "plan", "pipeline", "compress", "decompress", "store", "audit",
    }
    global_flags = {flag for action in parser._actions for flag in action.option_strings}
    assert global_flags == {
        "-h", "--help", "--version", "--trace", "--trace-summary",
        "--audit", "--instrument-ops", "--log-level", "--backend",
    }
    flags = {
        flag for action in commands.choices["pipeline"]._actions
        for flag in action.option_strings
    }
    assert flags == {
        "-h", "--help", "--tolerance", "--norm", "--codec", "--fraction", "--fmt",
        "--chunk-size", "--workers", "--task-timeout", "--max-retries",
        "--executor", "--checkpoint", "--resume",
    }
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    run = subprocess.run(
        [sys.executable, "-m", "repro", "coordinate", "h2combustion",
         "--tolerance", "1e-2", "--chunk-size", "16"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=60,
    )
    assert run.returncode == 2
    assert "invalid choice: 'coordinate'" in run.stderr
