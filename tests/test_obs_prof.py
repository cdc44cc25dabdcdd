"""Tests for the sampling profiler and its observability wiring.

The contract under test is the cost model the module docstring promises:
**exactly zero** when profiling is off (no sampler thread, no
tracemalloc, the null singleton) and a **metered** duty cycle at or
below ``max_overhead`` when on.  On top of that: folded-stack
aggregation must be a pure multiset sum (order/partition invariant —
the property remote shipping relies on), speedscope exports must be
structurally valid, and pipeline executions must attach their profile
window only when a profiler is live.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.compress import SZCompressor
from repro.core import ErrorFlowAnalyzer, InferencePipeline, TolerancePlanner
from repro.obs.prof import (
    NULL_PROFILER,
    SamplingProfiler,
    StackAccumulator,
    diff_rows,
    disable_profile,
    enable_profile,
    get_profiler,
    profile_capture,
    write_profile,
)
from repro.obs.server import MetricsServer

_SAMPLER = "repro-prof-sampler"


def _sampler_threads():
    return [t for t in threading.enumerate() if t.name == _SAMPLER]


@pytest.fixture(autouse=True)
def _no_leaked_profiler():
    """Every test starts and ends with profiling globally off."""
    disable_profile()
    yield
    disable_profile()
    assert _sampler_threads() == []


def _busy(stop: threading.Event) -> None:
    x = np.ones((64, 64))
    while not stop.is_set():
        x = x @ x / 64.0


# -- folded-stack aggregation ------------------------------------------------


ROW_STRATEGY = st.lists(
    st.tuples(
        st.sampled_from(["main;a:f", "main;a:f;b:g", "w0;c:h", "w1;c:h;d:i"]),
        st.integers(1, 50),
    ),
    max_size=30,
)


@given(rows=ROW_STRATEGY, seed=st.integers(0, 2**16))
@settings(max_examples=60, deadline=None)
def test_merge_rows_is_order_and_partition_invariant(rows, seed):
    """Aggregation is a multiset sum: any shuffle, any batching, one answer."""
    rng = np.random.default_rng(seed)
    direct = StackAccumulator()
    direct.merge_rows([list(r) for r in rows])

    shuffled = [list(rows[i]) for i in rng.permutation(len(rows))]
    pieces = StackAccumulator()
    while shuffled:
        take = int(rng.integers(1, len(shuffled) + 1))
        pieces.merge_rows(shuffled[:take])
        shuffled = shuffled[take:]

    assert direct.snapshot() == pieces.snapshot()
    assert direct.total() == sum(count for _, count in rows)


def test_add_and_rows_roundtrip():
    acc = StackAccumulator()
    acc.add("main", ("mod:f", "mod:g"), count=2)
    acc.add("main", ("mod:f", "mod:g"))
    acc.add("w0", ("mod:h",))
    assert acc.snapshot() == {"main;mod:f;mod:g": 3, "w0;mod:h": 1}
    assert acc.rows() == [["main;mod:f;mod:g", 3], ["w0;mod:h", 1]]
    top = acc.top(1)
    assert top[0]["samples"] == 3 and top[0]["fraction"] == pytest.approx(0.75)


def test_merge_rows_skips_malformed_evidence():
    acc = StackAccumulator()
    acc.merge_rows([["main;a:f", 2], None, ["x"], ["main;a:f", "NaNish"], ["b;c", 0]])
    assert acc.snapshot() == {"main;a:f": 2}


def test_diff_rows_returns_only_fresh_samples():
    baseline = {"main;a:f": 3, "main;b:g": 5}
    current = {"main;a:f": 7, "main;b:g": 5, "w0;c:h": 1}
    assert diff_rows(current, baseline) == [["main;a:f", 4], ["w0;c:h", 1]]
    assert diff_rows(baseline, baseline) == []


def test_to_folded_format():
    acc = StackAccumulator()
    assert acc.to_folded() == ""
    acc.add("main", ("mod:f", "mod:g"), count=4)
    assert acc.to_folded() == "main;mod:f;mod:g 4\n"


def test_to_speedscope_is_structurally_valid():
    acc = StackAccumulator()
    acc.add("main", ("a:f", "a:g"), count=3)
    acc.add("main", ("a:f",), count=1)
    acc.add("w0", ("b:h",), count=2)
    doc = acc.to_speedscope(name="t")
    assert doc["$schema"] == "https://www.speedscope.app/file-format-schema.json"
    n_frames = len(doc["shared"]["frames"])
    assert n_frames == 3
    assert len(doc["profiles"]) == 2  # one per thread
    for profile in doc["profiles"]:
        assert profile["type"] == "sampled"
        assert len(profile["samples"]) == len(profile["weights"])
        assert profile["endValue"] == sum(profile["weights"])
        for sample in profile["samples"]:
            assert sample and all(0 <= idx < n_frames for idx in sample)
    # the whole document survives JSON
    assert json.loads(json.dumps(doc)) == doc


# -- the off state: exactly zero ---------------------------------------------


def test_off_by_default_is_null_and_spawns_nothing():
    import tracemalloc

    assert get_profiler() is NULL_PROFILER
    assert not get_profiler().enabled
    assert _sampler_threads() == []
    assert not tracemalloc.is_tracing()
    # null hooks are inert and allocation-shaped like the live ones
    assert NULL_PROFILER.begin_window() is None
    assert NULL_PROFILER.end_window(None) == {}
    assert NULL_PROFILER.overhead_fraction() == 0.0
    assert NULL_PROFILER.start() is NULL_PROFILER
    assert "off" in NULL_PROFILER.render_hot()


def test_profile_capture_installs_and_restores():
    before = get_profiler()
    with profile_capture(hz=200.0) as profiler:
        assert get_profiler() is profiler
        assert profiler.enabled and profiler.running
        assert len(_sampler_threads()) == 1
    assert get_profiler() is before
    assert not profiler.running
    assert _sampler_threads() == []


def test_profile_capture_restores_on_exception():
    with pytest.raises(RuntimeError):
        with profile_capture():
            raise RuntimeError("boom")
    assert get_profiler() is NULL_PROFILER
    assert _sampler_threads() == []


def test_enable_disable_roundtrip_returns_stopped_instance():
    profiler = enable_profile(hz=300.0)
    assert get_profiler() is profiler
    stopped = disable_profile()
    assert stopped is profiler and not stopped.running
    assert get_profiler() is NULL_PROFILER
    # idempotent: disabling again is a no-op on the null singleton
    assert disable_profile() is NULL_PROFILER


def test_profiler_rejects_bad_rates():
    with pytest.raises(ValueError):
        SamplingProfiler(hz=0)
    with pytest.raises(ValueError):
        SamplingProfiler(max_overhead=0.0)
    with pytest.raises(ValueError):
        SamplingProfiler(max_overhead=1.5)


# -- the on state: samples collected, overhead metered ------------------------


def test_profiler_samples_a_busy_thread():
    stop = threading.Event()
    worker = threading.Thread(target=_busy, args=(stop,), name="busy-w", daemon=True)
    worker.start()
    try:
        with profile_capture(hz=400.0) as profiler:
            deadline = time.perf_counter() + 5.0
            while profiler.stacks.total() < 5 and time.perf_counter() < deadline:
                time.sleep(0.01)
    finally:
        stop.set()
        worker.join(timeout=5.0)
    assert profiler.stacks.total() >= 5
    folded = profiler.stacks.to_folded()
    assert "busy-w;" in folded
    # root-first folded stacks name module:qualname frames
    assert "_busy" in folded


def test_measured_overhead_stays_under_governor_cap():
    stop = threading.Event()
    worker = threading.Thread(target=_busy, args=(stop,), daemon=True)
    worker.start()
    try:
        with profile_capture(hz=100.0, max_overhead=0.05) as profiler:
            time.sleep(0.6)
            overhead = profiler.overhead_fraction()
            samples = profiler.stats["samples"]
    finally:
        stop.set()
        worker.join(timeout=5.0)
    assert samples > 0
    assert overhead <= 0.05, f"sampler duty cycle {overhead:.4f} above the 5% cap"


def test_end_window_reports_only_delta_samples():
    profiler = SamplingProfiler(hz=100.0)
    profiler.stacks.add("main", ("a:f",), count=10)  # pre-window history
    window = profiler.begin_window()
    profiler.stacks.add("main", ("a:f",), count=3)
    profiler.stacks.add("main", ("b:g",), count=1)
    out = profiler.end_window(window)
    assert out["samples"] == 4
    assert {row["stack"]: row["samples"] for row in out["hot"]} == {
        "main;a:f": 3,
        "main;b:g": 1,
    }


def test_render_hot_mentions_rate_and_overhead():
    profiler = SamplingProfiler(hz=123.0)
    assert profiler.render_hot() == "(no samples yet)\n"
    profiler.stacks.add("main", ("a:f",), count=2)
    text = profiler.render_hot()
    assert "123 hz" in text and "main;a:f" in text and "overhead" in text


# -- file export --------------------------------------------------------------


def test_write_profile_selects_format_by_extension(tmp_path):
    profiler = SamplingProfiler()
    profiler.stacks.add("main", ("a:f", "a:g"), count=2)

    folded_path = tmp_path / "out.folded"
    assert write_profile(profiler, str(folded_path)) == "folded"
    assert folded_path.read_text() == "main;a:f;a:g 2\n"

    ss_path = tmp_path / "out.speedscope.json"
    assert write_profile(profiler, str(ss_path)) == "speedscope"
    doc = json.loads(ss_path.read_text())
    assert doc["name"] == "out.speedscope.json"
    assert [f["name"] for f in doc["shared"]["frames"]] == ["a:f", "a:g"]


# -- pipeline integration -----------------------------------------------------


@pytest.fixture
def pipeline(trained_spectral_mlp):
    plan = TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp)).plan(
        1e-2, norm="linf", quant_fraction=0.5
    )
    return InferencePipeline(trained_spectral_mlp, SZCompressor(), plan)


@pytest.fixture
def fields(rng):
    x = np.linspace(0, 2 * np.pi, 32)
    xx, yy = np.meshgrid(x, x)
    planes = [np.sin((i + 1) * xx) * np.cos(yy) * 0.8 for i in range(5)]
    return np.stack(planes).astype(np.float32)


def test_execute_attaches_profile_only_when_enabled(pipeline, fields):
    result = pipeline.execute(fields)
    assert "profile" not in result.extra

    with profile_capture(hz=200.0) as profiler:
        result = pipeline.execute(fields)
        profile = result.extra["profile"]
        assert profile["hz"] == 200.0
        assert profile["seconds"] > 0
        assert profile["samples"] >= 0 and isinstance(profile["hot"], list)
        # the governor bounds the duty cycle per completed sample + sleep
        # cycle; a ~5 ms execute ends inside the first one, before the
        # sleep owed for a cold first sample.  Read the fraction once
        # enough cycles are behind it for the invariant to apply.
        deadline = time.perf_counter() + 10.0
        while profiler.stats["samples"] < 25 and time.perf_counter() < deadline:
            profile = pipeline.execute(fields).extra["profile"]
    assert profiler.stats["samples"] >= 25
    assert 0.0 <= profile["overhead_fraction"] <= 0.05


def test_execute_chunked_attaches_profile_window(pipeline, fields):
    with profile_capture(hz=200.0):
        result = pipeline.execute_chunked(fields, chunk_size=16, chunk_axis=1)
    assert "profile" in result.extra
    assert result.extra["profile"]["seconds"] > 0


def test_fused_kernel_frames_attributed_in_folded_export(pipeline, fields):
    """A profiled run through the compiled backend keeps its synthetic
    kernel filename, so backend time is attributable in the flamegraph."""
    with profile_capture(hz=800.0) as profiler:
        deadline = time.perf_counter() + 10.0
        while time.perf_counter() < deadline:
            pipeline.execute(fields)
            folded = profiler.stacks.to_folded()
            if "_fused_forward" in folded:
                break
    assert "_fused_forward" in folded, folded[-2000:]


# -- /profile endpoint --------------------------------------------------------


def _get(url: str):
    with urllib.request.urlopen(url, timeout=5.0) as response:
        return response.status, response.read()


def test_metrics_server_serves_profile_route():
    with MetricsServer() as server:
        host, port = server.address
        base = f"http://{host}:{port}"
        code, body = _get(f"{base}/profile")
        assert code == 200 and b"profiling off" in body
        with profile_capture(hz=100.0) as profiler:
            profiler.stacks.add("main", ("mod:hotspot",), count=9)
            code, body = _get(f"{base}/profile")
            assert code == 200 and b"mod:hotspot" in body


def test_metrics_server_profile_fn_override():
    with MetricsServer(profile_fn=lambda: "custom profile body\n") as server:
        host, port = server.address
        code, body = _get(f"http://{host}:{port}/profile")
        assert code == 200 and body == b"custom profile body\n"


# -- distributed shipping: METRICS frames carry folded-stack deltas -----------


def test_worker_metrics_frames_carry_profile_deltas():
    from repro.distrib.protocol import msg_metrics

    message = msg_metrics("w0", profile=[["w0;a:f", 2]])
    assert message["profile"] == [["w0;a:f", 2]]
    assert "profile" not in msg_metrics("w0")


def test_coordinator_merges_remote_profile_rows_with_registry_guard():
    """Cross-process rows merge; same-registry (thread-harness) rows do
    not — those samples are already in this process's accumulator."""
    from repro.distrib.coordinator import ShardCoordinator
    from repro.distrib.protocol import msg_metrics, registry_token

    with profile_capture(hz=50.0) as profiler:
        local = msg_metrics(
            "w-local", registry=registry_token(), profile=[["w;a:f", 5]]
        )
        remote = msg_metrics(
            "w-remote", registry="other-process", profile=[["w;a:f", 5]]
        )
        handle = ShardCoordinator._handle_metrics
        handle(object(), "w-local", local)
        assert profiler.stacks.snapshot().get("w;a:f") is None
        handle(object(), "w-remote", remote)
        assert profiler.stacks.snapshot().get("w;a:f") == 5
    # profiling off: remote rows are dropped, not accumulated
    ShardCoordinator._handle_metrics(object(), "w-remote", remote)
    assert get_profiler() is NULL_PROFILER
