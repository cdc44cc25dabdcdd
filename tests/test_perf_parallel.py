"""Tests for CPU counting, the side lane and the chunked paths."""

import os
import sys
import threading
import time

import numpy as np
import pytest

from repro.compress.sz import SZCompressor
from repro.core.errorflow import ErrorFlowAnalyzer
from repro.core.pipeline import InferencePipeline
from repro.core.planner import TolerancePlanner
from repro.exceptions import PlanningError
from repro.perf import parallel
from repro.perf.parallel import SideLane, resolve_workers


# -- resolve_workers ------------------------------------------------------------


def test_resolve_workers():
    assert resolve_workers(None) == 1
    assert resolve_workers(1) == 1
    assert resolve_workers(3) == 3
    assert resolve_workers(0) >= 1  # one per CPU
    assert resolve_workers(-1) >= 1


# -- InferencePipeline.execute_chunked ------------------------------------------


@pytest.fixture
def pipeline_setup(trained_spectral_mlp):
    x = np.linspace(0, 2 * np.pi, 32)
    xx, yy = np.meshgrid(x, x)
    fields = np.stack(
        [np.sin((i + 1) * xx) * np.cos(yy) * 0.8 for i in range(5)]
    ).astype(np.float32)
    planner = TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp))
    return trained_spectral_mlp, fields, planner


def test_execute_chunked_parallel_matches_serial(pipeline_setup):
    model, fields, planner = pipeline_setup
    plan = planner.plan(1e-2, norm="linf", quant_fraction=0.5)
    pipeline = InferencePipeline(model, SZCompressor(), plan)
    serial = pipeline.execute_chunked(fields, chunk_size=8, chunk_axis=1, workers=1)
    parallel = pipeline.execute_chunked(fields, chunk_size=8, chunk_axis=1, workers=4)
    assert np.array_equal(serial.outputs, parallel.outputs)
    assert np.array_equal(serial.reference_outputs, parallel.reference_outputs)
    assert serial.extra["chunked"]["n_chunks"] == 4
    assert parallel.extra["chunked"]["workers"] == 4


def test_execute_chunked_honours_tolerance(pipeline_setup):
    model, fields, planner = pipeline_setup
    tolerance = 1e-2
    plan = planner.plan(tolerance, norm="linf", quant_fraction=0.5)
    pipeline = InferencePipeline(model, SZCompressor(), plan)
    result = pipeline.execute_chunked(fields, chunk_size=8, chunk_axis=1, workers=2)
    assert result.outputs.shape == (32 * 32, 3)
    assert result.qoi_error("linf", relative=False) <= tolerance
    assert result.input_error_linf <= plan.input_tolerance
    assert result.extra["chunked"]["compression_ratio"] > 1.0


def test_execute_chunked_output_shape_matches_unchunked(pipeline_setup):
    model, fields, planner = pipeline_setup
    plan = planner.plan(1e-2, norm="linf", quant_fraction=0.5)
    pipeline = InferencePipeline(model, SZCompressor(), plan)
    whole = pipeline.execute(fields)
    chunked = pipeline.execute_chunked(fields, chunk_size=8, chunk_axis=1)
    assert chunked.outputs.shape == whole.outputs.shape
    # References are computed on uncompressed data: identical either way.
    assert np.allclose(
        chunked.reference_outputs, whole.reference_outputs, atol=1e-6
    )


def test_execute_chunked_holds_l2_plans(pipeline_setup):
    """An L2 plan's budget is per sample, so it holds chunk by chunk: the
    chunked run certifies like the whole one."""
    model, fields, planner = pipeline_setup
    tolerance = 5e-2
    plan = planner.plan(tolerance, norm="l2", quant_fraction=0.5)
    pipeline = InferencePipeline(model, SZCompressor(), plan)
    chunked = pipeline.execute_chunked(fields, chunk_size=8, chunk_axis=1, workers=2)
    whole = pipeline.execute(fields)
    assert chunked.outputs.shape == whole.outputs.shape
    assert chunked.input_error_linf <= plan.codec_tolerance
    assert chunked.input_error_l2_max <= plan.input_tolerance
    assert chunked.qoi_error("l2", relative=False) <= tolerance


def test_execute_chunked_rejects_bad_chunk_size(pipeline_setup):
    model, fields, planner = pipeline_setup
    plan = planner.plan(1e-2, norm="linf", quant_fraction=0.5)
    pipeline = InferencePipeline(model, SZCompressor(), plan)
    with pytest.raises(PlanningError):
        pipeline.execute_chunked(fields, chunk_size=0)


# -- SideLane -------------------------------------------------------------------


def test_side_lane_runs_beside_the_body_on_two_cpus(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    lane = SideLane("unit-lane")
    in_body = threading.Event()

    def fn():
        assert in_body.wait(timeout=10)  # only passes if the body runs meanwhile
        return threading.current_thread().name

    with lane.beside(fn) as result:
        in_body.set()
    assert result().startswith("unit-lane")
    assert not lane._free.locked()


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs an affinity mask of two CPUs",
)
def test_side_lane_keeps_off_the_callers_cpu(monkeypatch):
    mask = os.sched_getaffinity(0)
    others = parallel._other_cpus()
    assert others < mask and len(others) == len(mask) - 1
    lane = SideLane("unit-lane")
    try:
        os.sched_setaffinity(0, {min(mask), max(mask)})
        with lane.beside(lambda: os.sched_getaffinity(0)) as lane_mask:
            pass
        assert len(lane_mask()) == 1 and lane_mask() < {min(mask), max(mask)}
        # a caller confined to one CPU leaves nothing to move to
        os.sched_setaffinity(0, {min(mask)})
        assert parallel._other_cpus() == set()
    finally:
        os.sched_setaffinity(0, mask)
    # nowhere to move to (or no procfs to ask): the lane thread stays as it is
    monkeypatch.setattr(parallel, "_other_cpus", lambda: set())
    with SideLane("unit-lane").beside(lambda: os.sched_getaffinity(0)) as unmoved:
        pass
    assert unmoved() == mask


def test_side_lane_is_inline_on_one_cpu_and_while_busy(monkeypatch):
    lane = SideLane("unit-lane")
    order = []
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 1)
    with lane.beside(lambda: order.append("fn") or threading.current_thread()) as result:
        order.append("body")
    assert result() is threading.current_thread() and order == ["body", "fn"]

    # busy is "a callable is running on it", not "a body is open"
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    started, release = threading.Event(), threading.Event()

    def blocked():
        started.set()
        assert release.wait(timeout=10)
        return threading.current_thread()

    with lane.beside(blocked) as outer:
        assert started.wait(timeout=10)
        with lane.beside(threading.current_thread) as inner:  # lane is taken
            pass
        assert inner() is threading.current_thread()
        release.set()
        assert outer() is not threading.current_thread()
        # the callable has returned: free again, well inside the body
        assert not lane._free.locked()
        with lane.beside(threading.current_thread) as second:
            pass
        assert second() is outer()
    assert not lane._free.locked()


def test_side_lane_borrowed_from_its_own_thread_goes_inline(monkeypatch):
    """What runs on the lane finds the lane taken (by itself): its own
    borrow is an inline call, not a wait for a thread that is waiting."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    lane = SideLane("unit-lane")

    def nested():
        with lane.beside(threading.current_thread) as inner:
            pass
        return inner(), threading.current_thread()

    with lane.beside(nested) as result:
        pass
    inner_thread, lane_thread = result()
    assert inner_thread is lane_thread is not threading.current_thread()
    assert not lane._free.locked()


def _hold(lane):
    """``lane.beside`` of a callable that holds the lane from ``started``
    until ``release`` is set, with the two events."""
    started, release = threading.Event(), threading.Event()
    return lane.beside(lambda: started.set() or release.wait(timeout=10)), started, release


def test_side_lane_queues_behind_a_busy_lane_and_takes_back_what_it_did_not_start(
    monkeypatch,
):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    lane = SideLane("unit-lane")
    held, started, release = _hold(lane)
    calls = []

    def fn():
        calls.append(threading.current_thread())
        return len(calls)

    with held as holder:
        assert started.wait(timeout=10)
        with lane.beside(fn) as queued:
            assert queued is not fn  # queued behind the holder, not inline
        # the body ended before the lane got to it: handed back, not run yet
        assert calls == [] and lane._free.locked()
        assert queued() == 1 and calls == [threading.current_thread()]
        release.set()
    assert holder() is True and not lane._free.locked()


def test_side_lane_waits_for_a_queued_callable_it_started(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    lane = SideLane("unit-lane")
    held, started, release = _hold(lane)
    running, finished = threading.Event(), threading.Event()

    def fn():
        running.set()
        time.sleep(0.05)
        finished.set()
        return threading.current_thread().name

    with held:
        assert started.wait(timeout=10)
        with lane.beside(fn) as queued:
            release.set()
            assert running.wait(timeout=10)
        assert finished.is_set()  # joined before the block was left
    assert queued().startswith("unit-lane") and not lane._free.locked()


@pytest.mark.parametrize("started_on_lane", [False, True])
def test_an_error_of_a_queued_callable_surfaces_after_the_join(started_on_lane, monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    lane = SideLane("unit-lane")
    held, started, release = _hold(lane)
    threads = []

    def failing():
        threads.append(threading.current_thread())
        raise LookupError("queued")

    with held:
        assert started.wait(timeout=10)
        with lane.beside(failing) as queued:
            if started_on_lane:
                release.set()
                while not threads:
                    time.sleep(0.001)
        release.set()
    with pytest.raises(LookupError, match="queued"):
        queued()
    assert len(threads) == 1
    assert (threads[0] is threading.current_thread()) != started_on_lane
    assert not lane._free.locked()


def test_side_lane_floor_and_thread_count(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    lane = SideLane("unit-lane")
    main = threading.current_thread()
    for nbytes, on_lane in (
        (parallel.LANE_MIN_BYTES - 1, False), (parallel.LANE_MIN_BYTES, True), (None, True)
    ):
        with lane.beside(threading.current_thread, nbytes=nbytes) as result:
            pass
        assert (result() is not main) == on_lane
    baseline = threading.active_count()
    for _ in range(300):
        with lane.beside(threading.current_thread) as result:
            pass
    assert threading.active_count() == baseline
    assert parallel.side_lane() is parallel.side_lane()


def test_side_lane_joins_before_an_error_of_the_body_leaves(monkeypatch):
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    lane = SideLane("unit-lane")
    release, done = threading.Event(), threading.Event()

    def fn():
        release.wait(timeout=10)
        done.set()

    with pytest.raises(KeyError, match="body"):
        with lane.beside(fn):
            threading.Timer(0.05, release.set).start()
            raise KeyError("body")
    assert done.is_set() and not lane._free.locked()

    def failing():
        raise LookupError("lane")

    with lane.beside(failing) as result:
        pass
    with pytest.raises(LookupError, match="lane"):
        result()
    with pytest.raises(KeyError, match="body"):  # the body's error wins, the lane's is dropped
        with lane.beside(failing):
            raise KeyError("body")


def test_side_lane_under_contention_runs_one_at_a_time(monkeypatch):
    """Six callers hammer one lane under a 10 us switch interval: the
    lane never runs two callables at once, every caller gets its own
    result back, and nothing is left held."""
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    lane = SideLane("stress-lane")
    running, worst, on_lane, failures = [0], [0], [0], []

    def caller(key):
        def fn(token):
            lane_thread = threading.current_thread().name.startswith("stress-lane")
            if lane_thread:
                running[0] += 1
                worst[0] = max(worst[0], running[0])
            total = sum(range(200))  # a few switch intervals of bytecode
            if lane_thread:
                on_lane[0] += 1
                running[0] -= 1
            return token, total

        try:
            for step in range(300):
                with lane.beside(lambda: fn((key, step))) as result:
                    pass
                assert result() == ((key, step), 19900)
        except Exception as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=caller, args=(key,)) for key in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not failures
    assert worst[0] == 1 and on_lane[0] > 0
    assert not lane._free.locked()
    assert sum(t.name.startswith("stress-lane") for t in threading.enumerate()) <= 1
