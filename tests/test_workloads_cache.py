"""Workload weight-cache robustness: corrupt caches retrain, never crash.

These reproduce the original seed failure — a corrupt ``.npz`` in the
cache directory crashed ``load_workload`` with ``zipfile.BadZipFile`` —
and pin the recovery behaviour: validate on load, delete the bad file,
retrain, and write the replacement atomically.
"""

import os

import numpy as np
import pytest

from repro.workloads import load_workload


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    return tmp_path


def _cache_file(cache_dir, epochs=1):
    return cache_dir / f"h2combustion-psn-e{epochs}-s1-seed0.npz"


def test_corrupt_cache_is_deleted_and_retrained(cache_dir):
    path = _cache_file(cache_dir)
    path.write_bytes(b"PK\x03\x04 this is not a real zip archive")
    with pytest.warns(RuntimeWarning, match="corrupt or stale"):
        workload = load_workload("h2combustion", epochs=1)
    assert np.isfinite(workload.final_train_loss)
    # the corrupt file was replaced by a valid cache
    archive = np.load(path)
    assert "__loss__" in archive.files


def test_truncated_cache_recovers(cache_dir):
    first = load_workload("h2combustion", epochs=1)
    path = _cache_file(cache_dir)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.warns(RuntimeWarning):
        again = load_workload("h2combustion", epochs=1)
    assert np.allclose(
        first.model.state_dict()["0.raw_weight"],
        again.model.state_dict()["0.raw_weight"],
    )


def test_cache_with_nonfinite_weights_rejected(cache_dir):
    workload = load_workload("h2combustion", epochs=1)
    path = _cache_file(cache_dir)
    with np.load(path) as archive:
        state = {key: archive[key] for key in archive.files}
    first_key = next(key for key in state if key != "__loss__")
    state[first_key] = np.full_like(state[first_key], np.nan)
    np.savez(path, **state)
    with pytest.warns(RuntimeWarning, match="non-finite"):
        again = load_workload("h2combustion", epochs=1)
    for value in again.model.state_dict().values():
        assert np.all(np.isfinite(value))
    assert np.allclose(
        workload.model.state_dict()[first_key], again.model.state_dict()[first_key]
    )


def test_cache_write_is_atomic(cache_dir):
    load_workload("h2combustion", epochs=1)
    leftovers = [p for p in os.listdir(cache_dir) if ".tmp" in p]
    assert not leftovers


def test_valid_cache_is_reused(cache_dir):
    first = load_workload("h2combustion", epochs=1)
    path = _cache_file(cache_dir)
    mtime = path.stat().st_mtime_ns
    second = load_workload("h2combustion", epochs=1)
    assert path.stat().st_mtime_ns == mtime  # no rewrite, no retrain
    assert np.array_equal(
        first.model.state_dict()["0.raw_weight"],
        second.model.state_dict()["0.raw_weight"],
    )
