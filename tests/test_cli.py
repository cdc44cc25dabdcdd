"""Tests for the command-line interface."""

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
    from repro.io import read_jsonl_records

    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.json"
    assert main(
        [
            "--trace", str(trace_path), "--metrics", str(metrics_path),
            "pipeline", "h2combustion", "--tolerance", "1e-2",
        ]
    ) == 0
    assert "tolerance honoured" in capsys.readouterr().out
    spans = {row["name"] for row in read_jsonl_records(str(trace_path))}
    assert {
        "pipeline.execute", "pipeline.compress", "pipeline.decompress",
        "pipeline.inference", "pipeline.guard", "codec.compress",
    } <= spans
    guard = next(
        row for row in read_jsonl_records(str(trace_path)) if row["name"] == "pipeline.guard"
    )
    assert "predicted_bound" in guard["attributes"]
    assert "observed_error" in guard["attributes"]
    import json

    payload = json.loads(metrics_path.read_text())
    names = {row["name"] for row in payload["metrics"]}
    assert {"pipeline_executions_total", "codec_compress_total"} <= names
    assert {row["kind"] for row in payload["metrics"]} == {"counter"}


def test_trace_disabled_after_main():
    from repro.obs import NULL_TRACER, get_tracer

    main(["plan", "h2combustion", "--tolerance", "1e-2"])
    assert get_tracer() is NULL_TRACER


def test_metrics_prometheus_extension(tmp_path, capsys):
    prom_path = tmp_path / "metrics.prom"
    assert main(
        [
            "--metrics", str(prom_path),
            "pipeline", "h2combustion", "--tolerance", "1e-2",
        ]
    ) == 0
    capsys.readouterr()
    text = prom_path.read_text()
    assert "# TYPE pipeline_executions_total counter" in text
    assert 'pipeline_executions_total{codec="sz"} 1' in text


def test_trace_summary_goes_to_stderr(capsys):
    assert main(
        ["--trace-summary", "pipeline", "h2combustion", "--tolerance", "1e-2"]
    ) == 0
    captured = capsys.readouterr()
    assert "pipeline.execute" in captured.err
    assert "pipeline.execute" not in captured.out


def test_metrics_command_renders_export(tmp_path, capsys):
    metrics_path = tmp_path / "metrics.json"
    assert main(
        [
            "--metrics", str(metrics_path),
            "plan", "h2combustion", "--tolerance", "1e-2",
        ]
    ) == 0
    capsys.readouterr()
    assert main(["metrics", str(metrics_path)]) == 0
    out = capsys.readouterr().out
    # the plan command records no metrics, but the export still renders
    assert "no metrics recorded" in out or "metric" in out


def test_metrics_command_missing_file(tmp_path, capsys):
    assert main(["metrics", str(tmp_path / "absent.json")]) == 1
    captured = capsys.readouterr()
    assert "error (OSError)" in captured.err


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


def test_audit_record_command(tmp_path, capsys):
    from repro.io import read_jsonl_records

    registry_path = tmp_path / "runs.jsonl"
    assert main(
        [
            "audit", "record", "h2combustion", "--tolerance", "1e-2",
            "--registry", str(registry_path),
        ]
    ) == 0
    out = capsys.readouterr().out
    assert "tightness" in out
    assert "recorded run-0001" in out
    (record,) = read_jsonl_records(str(registry_path))
    assert record["run_id"] == "run-0001"
    assert record["verdict"] in ("ok", "loose")
    assert record["layers"], "PSN MLP audits must carry per-layer rows"


def test_audit_record_forced_format(tmp_path, capsys):
    registry_path = tmp_path / "runs.jsonl"
    assert main(
        [
            "audit", "record", "h2combustion", "--tolerance", "2e-1",
            "--fmt", "int8", "--registry", str(registry_path),
        ]
    ) == 0
    assert "fmt=int8" in capsys.readouterr().out


def test_audit_record_rejects_infeasible_format(tmp_path, capsys):
    assert main(
        [
            "audit", "record", "h2combustion", "--tolerance", "1e-6",
            "--fmt", "int8", "--registry", str(tmp_path / "runs.jsonl"),
        ]
    ) == 1
    assert "error (ToleranceError)" in capsys.readouterr().err


def test_audit_report_and_diff(tmp_path, capsys):
    registry_path = tmp_path / "runs.jsonl"
    for _ in range(2):
        assert main(
            [
                "audit", "record", "h2combustion", "--tolerance", "1e-2",
                "--registry", str(registry_path),
            ]
        ) == 0
    capsys.readouterr()

    assert main(["audit", "report", str(registry_path)]) == 0
    out = capsys.readouterr().out
    assert "run-0001" in out and "run-0002" in out

    assert main(
        ["audit", "diff", "run-0001", "run-0002", "--registry", str(registry_path)]
    ) == 0
    out = capsys.readouterr().out
    assert "audit diff run-0001 -> run-0002" in out
    assert "no drift" in out


def test_audit_diff_unknown_run(tmp_path, capsys):
    registry_path = tmp_path / "runs.jsonl"
    assert main(
        [
            "audit", "record", "h2combustion", "--tolerance", "1e-2",
            "--registry", str(registry_path),
        ]
    ) == 0
    capsys.readouterr()
    assert main(
        ["audit", "diff", "run-0001", "run-0099", "--registry", str(registry_path)]
    ) == 1
    assert "error" in capsys.readouterr().err


def test_audit_flag_on_pipeline_command(tmp_path, capsys):
    from repro.io import read_jsonl_records
    from repro.obs import NULL_AUDITOR, get_auditor

    registry_path = tmp_path / "runs.jsonl"
    assert main(
        [
            "--audit", str(registry_path),
            "pipeline", "h2combustion", "--tolerance", "1e-2",
        ]
    ) == 0
    capsys.readouterr()
    (record,) = read_jsonl_records(str(registry_path))
    assert record["codec"] == "sz"
    assert get_auditor() is NULL_AUDITOR  # switched off after main


def test_observability_flushes_when_command_raises(tmp_path, capsys):
    from repro.obs import NULL_TRACER, get_auditor, get_tracer, NULL_AUDITOR

    trace_path = tmp_path / "trace.jsonl"
    metrics_path = tmp_path / "metrics.json"
    audit_path = tmp_path / "runs.jsonl"
    with pytest.raises(FileNotFoundError):
        main(
            [
                "--trace", str(trace_path), "--metrics", str(metrics_path),
                "--audit", str(audit_path),
                "compress", str(tmp_path / "missing.npy"),
                "--out", str(tmp_path / "out.rblob"), "--tolerance", "1e-3",
            ]
        )
    capsys.readouterr()
    # partial telemetry still lands on disk and the globals are reset
    assert trace_path.exists()
    assert metrics_path.exists()
    assert get_tracer() is NULL_TRACER
    assert get_auditor() is NULL_AUDITOR


def test_metrics_flush_survives_trace_export_failure(tmp_path, capsys, monkeypatch):
    from repro.obs import NULL_TRACER, Tracer, get_tracer

    def _boom(self, path):
        raise OSError("disk full")

    monkeypatch.setattr(Tracer, "export_jsonl", _boom)
    metrics_path = tmp_path / "metrics.json"
    with pytest.raises(OSError, match="disk full"):
        main(
            [
                "--trace", str(tmp_path / "trace.jsonl"),
                "--metrics", str(metrics_path),
                "pipeline", "h2combustion", "--tolerance", "1e-2",
            ]
        )
    capsys.readouterr()
    assert metrics_path.exists()  # later exports ran despite the failure
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


# A port outside 0-65535 must be refused before any socket call: getaddrinfo
# wraps it modulo 2**16 (73616 connects to 8080) and bind overflows.
@pytest.mark.parametrize(
    ("argv", "fragment"),
    [
        (["coordinate", "--port", "70000"], "--port must be in 0-65535"),
        (["coordinate", "--port", "-1"], "--port must be in 0-65535"),
        (["worker", "--connect", "127.0.0.1:73616"], "--connect port must be in 1-65535"),
        (["worker", "--connect", "127.0.0.1:0"], "--connect port must be in 1-65535"),
        (["worker", "--connect", "127.0.0.1:"], "--connect must be HOST:PORT"),
    ],
)
def test_distributed_commands_reject_out_of_range_ports(argv, fragment):
    from repro.cli import _validate_chunk_flags
    from repro.exceptions import ConfigurationError

    command, *flags = argv
    args = build_parser().parse_args(
        [command, "h2combustion", "--tolerance", "1e-2", "--chunk-size", "16", *flags]
    )
    with pytest.raises(ConfigurationError, match=fragment):
        _validate_chunk_flags(args)


@pytest.mark.parametrize(
    "argv",
    [
        ["coordinate", "--port", "0"],
        ["coordinate", "--port", "65535"],
        ["worker", "--connect", "localhost:1"],
        ["worker", "--connect", "127.0.0.1:65535"],
    ],
)
def test_distributed_commands_accept_the_port_range_ends(argv):
    from repro.cli import _validate_chunk_flags

    command, *flags = argv
    _validate_chunk_flags(build_parser().parse_args(
        [command, "h2combustion", "--tolerance", "1e-2", "--chunk-size", "16", *flags]
    ))


def test_coordinate_out_of_range_port_exits_with_typed_error(capsys):
    assert main(
        ["coordinate", "h2combustion", "--tolerance", "1e-2", "--chunk-size", "16",
         "--port", "70000"]
    ) == 1
    assert "error (ConfigurationError): --port must be in 0-65535" in capsys.readouterr().err
