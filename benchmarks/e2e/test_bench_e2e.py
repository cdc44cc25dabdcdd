"""Tests of the end-to-end benchmark itself (quick sizes).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``; about a
minute once the workload weights are cached under ``out/cache``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

import run as bench

SPEC = bench.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
EXACT_PER_LAYER = (
    "compress.sz.stored_bytes_per_raw_byte",
    "compress.zfp.stored_bytes_per_raw_byte",
    "compress.mgard.stored_bytes_per_raw_byte",
    "core.certificate.qoi_error_over_bound",
    "core.certificate.qoi_error_over_tolerance",
    "core.certificate.input_error_over_tolerance",
    "io.checkpoint.bytes_per_raw_byte",
)


def run_cli(*argv, cwd=bench.ROOT, script=os.path.join(bench.BENCH_DIR, "run.py")):
    return subprocess.run(
        [sys.executable, script, *argv], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def driver_run(workload: str, seed: int, trace: int):
    """(result object, full stdout) of one run in the driver's form."""
    done = run_cli(
        "--workload", workload, "--seed", str(seed), "--seconds", "1",
        "--trace", str(trace), "--quick",
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), done.stdout


@pytest.fixture(scope="module")
def bench_environment():
    """Thread pins and cache directories for in-process use of the cases."""
    env = bench.bench_env()
    bench.prepare(env)
    saved = dict(os.environ)
    os.environ.update(env)
    yield env
    os.environ.clear()
    os.environ.update(saved)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_printed_with_its_unit(workload, trace, section):
    result, stdout = driver_run(workload, 3, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    for name, metric in result["metrics"].items():
        assert NAME.match(name) and NAME.match(workload)
        assert isinstance(metric["value"], float) and metric["value"] == metric["value"]
        assert re.search(rf"^{re.escape(workload)}\s+{re.escape(name)}\s+\S+ \S+", stdout, re.M)
    assert re.search(rf"^{re.escape(workload)}\s+failed_ops_share\s+0 ratio", stdout, re.M)


def test_exact_metrics_repeat_for_a_seed_and_move_with_it():
    first, _ = driver_run("h2_sz_roundtrip", 3, 0)
    again, _ = driver_run("h2_sz_roundtrip", 3, 0)
    other, _ = driver_run("h2_sz_roundtrip", 4, 0)
    stored = "stored_bytes_per_raw_byte"
    assert first["metrics"][stored] == again["metrics"][stored]
    assert first["metrics"][stored] != other["metrics"][stored]
    assert first["metrics"]["field_mb_s"] != again["metrics"]["field_mb_s"]

    first, _ = driver_run("h2_chunked_pool", 3, 1)
    again, _ = driver_run("h2_chunked_pool", 3, 1)
    for name in EXACT_PER_LAYER:
        assert first["metrics"][name] == again["metrics"][name], name


def test_flipped_byte_in_a_stored_blob_is_a_counted_failure(bench_environment, tmp_path):
    import e2e_cases
    import e2e_child

    case = e2e_cases.BorghesiStoreRead(3, True, str(tmp_path))
    tally, spin = e2e_child.Tally(case), e2e_child.ReferenceSpin()
    e2e_child.run_iteration(case, tally, spin)
    assert (tally.attempted, tally.failed) == (3, 0)
    path = os.path.join(case.store_dir, "zfp.rblob")
    with open(path, "r+b") as handle:
        handle.seek(os.path.getsize(path) // 2)
        byte = handle.read(1)
        handle.seek(-1, os.SEEK_CUR)
        handle.write(bytes([byte[0] ^ 0x40]))
    e2e_child.run_iteration(case, tally, spin)
    assert (tally.attempted, tally.failed) == (6, 1)
    assert tally.reasons[0].startswith("zfp: ")
    case.close()


def test_too_tight_tolerance_is_a_counted_failure(bench_environment, tmp_path):
    import e2e_cases
    import e2e_child

    case = e2e_cases.H2SZRoundtrip(3, True, str(tmp_path))
    tally, spin = e2e_child.Tally(case), e2e_child.ReferenceSpin()
    e2e_child.run_iteration(case, tally, spin)
    assert (tally.attempted, tally.failed) == (1, 0)
    case.tolerance = 1e-9  # the check, not the plan: the run must now fail its certificate
    e2e_child.run_iteration(case, tally, spin)
    assert (tally.attempted, tally.failed) == (2, 1)
    assert "QoI error" in tally.reasons[0]
    assert tally.certificate["qoi_error_over_tolerance"] > 1.0


def test_full_run_writes_result_rows_and_compares_clean(tmp_path):
    result_file, rows_file = tmp_path / "a.json", tmp_path / "rows.json"
    done = run_cli(
        "--seed", "3", "--quick", "--workload", "h2_sz_roundtrip",
        "--out", str(result_file), "--rows-out", str(rows_file),
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(result_file.read_text())
    assert result["claim"] is None
    assert {"nproc", "workers", "thread_pins", "python", "numpy", "git_revision", "seed"} <= set(
        result["stamp"]
    )
    assert result["workloads"]["h2_sz_roundtrip"]["per_layer"]["layer_self_coverage"] >= 0.9
    rows = json.loads(rows_file.read_text())
    assert rows and all(
        {"path", "config", "seconds", "reps_s", "throughput_mb_s"} <= set(row) for row in rows
    )
    assert any(row["path"] == "e2e/h2_sz_roundtrip/distrib.loopback_s" for row in rows)

    assert run_cli("--compare", str(result_file), str(result_file)).returncode == 0
    end = result["workloads"]["h2_sz_roundtrip"]["end_to_end"]
    end["metrics"]["field_mb_s"][0] *= 0.5
    slower = tmp_path / "b.json"
    slower.write_text(json.dumps(result))
    done = run_cli("--compare", str(result_file), str(slower))
    assert done.returncode == 1 and "BEYOND BOUND" in done.stdout
    end["metrics"]["field_mb_s"][0] *= 2.0
    end["failed_ops_share"] = 0.01
    slower.write_text(json.dumps(result))
    assert run_cli("--compare", str(result_file), str(slower)).returncode == 1
    result["stamp"]["seed"] = 4
    slower.write_text(json.dumps(result))
    assert run_cli("--compare", str(result_file), str(slower)).returncode == 2


def test_no_result_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark's own
    files there is nothing to measure: non-zero exit, no result line."""
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    target = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(bench.BENCH_DIR, target, ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_cli(
        "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path), script=str(target / "run.py"),
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
