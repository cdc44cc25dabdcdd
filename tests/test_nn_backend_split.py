"""A fused MLP kernel runs a large batch as two halves on two CPUs.

The contract is that nobody can tell from the result: split equals
whole bit for bit (whole is what a process confined to one CPU computes,
so the tests obtain it by cutting the calling thread's affinity), and
the first-call probe refuses a split that changes a byte or saves no
time.  The tests of the same split inside ``InferencePipeline.execute``
sit in ``tests/test_core_pipeline_lanes.py``.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import load_workload
from repro.datasets import make_eurosat
from repro.models import borghesi_net, resnet18
from repro.nn import Sequential
from repro.nn.backend import CompiledForward, fused
from repro.perf import parallel
from repro.perf.parallel import side_lane, usable_cpus
from repro.quant import STANDARD_FORMATS, quantize_model
from tests.conftest import one_cpu

pytestmark = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="whole is obtained by cutting the affinity mask"
)
_TWO_CPUS = usable_cpus() >= 2
needs_two_cpus = pytest.mark.skipif(not _TWO_CPUS, reason="a split needs two usable CPUs")

#: the floor the tests run under: 100 rows of 13 float32
_FLOOR = 100 * 13 * 4


@pytest.fixture(autouse=True)
def keep_every_equal_split(monkeypatch):
    """Test batches are small and the test process's BLAS may be
    threaded, both of which the probe's time condition refuses; without
    it every split whose bytes are equal is kept, and checked."""
    monkeypatch.setattr(parallel, "LANE_MIN_BYTES", _FLOOR)
    monkeypatch.setattr(fused, "_SPLIT_KEEP_RATIO", float("inf"))


def _pair(fmt="fp16"):
    """A Borghesi-shaped net (8 hidden PReLU layers) and its quantized twin."""
    model = borghesi_net(rng=np.random.default_rng(5), width=16)
    model.eval()
    return model, quantize_model(model, STANDARD_FORMATS[fmt]).model


def _halves(n):
    return (fused._cut(n), n - fused._cut(n))


def _buffers(forward):
    return [a for s in forward._kernel._local.buffers.values() for a in s.arrays]


# -- differential: split == whole ------------------------------------------------


@pytest.mark.parametrize("name,tolerance", [("h2combustion", 1e-3), ("borghesi", 1e-1)])
def test_split_equals_whole_on_the_workload_models(name, tolerance):
    """On one CPU (CI runs this file under ``taskset -c 0`` too) the same
    calls are whole, and say so."""
    from repro.core import TolerancePlanner

    workload = load_workload(name)
    model = workload.qoi_model()
    plan = TolerancePlanner(workload.qoi_analyzer()).plan(tolerance, norm="linf")
    fields = workload.dataset.fields
    # the pipeline's own mapping: F-ordered samples, whose halves are strided
    x = fields.reshape(fields.shape[0], -1).T.astype(np.float32)
    for network in (model, quantize_model(model, plan.fmt).model):
        forward = CompiledForward(network)
        probed, split = forward(x), forward(x)
        assert forward.last_split == (_halves(len(x)) if _TWO_CPUS else None)
        assert forward.stats["splits"] == int(_TWO_CPUS)
        with one_cpu():
            whole = forward(x)
        assert forward.last_split is None
        for out in (probed, split):
            assert out.dtype == whole.dtype and out.tobytes() == whole.tobytes()
        assert forward._kernel.split_rejections == {}


_PAIR = _pair()


@given(
    rows=st.one_of(st.sampled_from([2, 3, 5, 7, 97, 101, 211]), st.integers(2, 260)),
    dtype=st.sampled_from([np.float16, np.float32, np.float64]),
    quantized=st.booleans(),
    seed=st.integers(0, 2**16),
)
@example(rows=99, dtype=np.float32, quantized=True, seed=0)  # one row under the floor
@example(rows=100, dtype=np.float32, quantized=True, seed=0)  # at it
@example(rows=199, dtype=np.float16, quantized=False, seed=0)
@example(rows=200, dtype=np.float16, quantized=False, seed=0)
@settings(max_examples=60, deadline=None)
def test_split_equals_whole_over_rows_dtypes_and_both_models(rows, dtype, quantized, seed):
    forward = CompiledForward(_PAIR[quantized])
    x = np.random.default_rng(seed).uniform(-1, 1, (rows, 13)).astype(dtype)
    first, second = forward(x), forward(x)
    # equal bytes are the BLAS build's to give (here: not with a half of
    # one row, nor with float64 halves cut inside a block of 16 rows);
    # what must hold is that a split is either refused for that or equal
    rejections = forward._kernel.split_rejections
    if x.nbytes < _FLOOR or not _TWO_CPUS:
        assert forward.last_split is None and rejections == {}
    elif rejections:
        assert forward.last_split is None and rejections == {"bytes": 1}
    else:
        assert forward.last_split == _halves(rows)
    with one_cpu():
        whole = forward(x)
    for out in (first, second):
        assert out.dtype == whole.dtype and out.shape == whole.shape
        assert out.tobytes() == whole.tobytes()
        assert not any(np.shares_memory(out, buffer) for buffer in _buffers(forward))


@needs_two_cpus
def test_returned_arrays_survive_later_calls(rng):
    forward = CompiledForward(_pair()[1])
    x = rng.uniform(-1, 1, (300, 13)).astype(np.float32)
    outs = [forward(x) for _ in range(3)]  # probe, split, split
    kept = [out.copy() for out in outs]
    forward(rng.uniform(-1, 1, (300, 13)).astype(np.float32))
    assert forward.stats["splits"] == 3
    for out, copy in zip(outs, kept):
        assert np.array_equal(out, copy) and out.flags.c_contiguous and out.flags.owndata


def _resnet18(rng, in_channels=3, base_width=8):
    """A PSN ResNet18 without its head, in eval mode."""
    model = resnet18(
        in_channels=in_channels, base_width=base_width, rng=rng, spectral=True, alpha_init=0.8
    )
    model = Sequential(*list(model)[:-1])
    model.eval()
    return model


@needs_two_cpus
@pytest.mark.parametrize("case", ["eurosat", "resnet18"])
def test_conv_split_equals_whole(case, rng):
    """A conv batch runs as two halves of images, each with the buffer set
    of the thread that runs it, after a probe of one round: the EuroSAT
    QoI network on the end-to-end benchmark's 30 images (the weights do
    not decide which bytes a split gives) and a narrower ResNet18 on 16
    small images, full precision and fp16."""
    if case == "eurosat":
        model = _resnet18(np.random.default_rng(3), in_channels=13, base_width=16)
        data = make_eurosat(n_per_class=3, image_size=24, rng=np.random.default_rng(1))
        x = np.concatenate([data.train_inputs, data.test_inputs]).astype(np.float32)
    else:
        model = _resnet18(rng)
        x = rng.uniform(-1, 1, (16, 3, 16, 16)).astype(np.float32)
    n, half, main = len(x), len(x) // 2, threading.current_thread()
    for network in (model, quantize_model(model, STANDARD_FORMATS["fp16"]).model):
        forward = CompiledForward(network)
        with one_cpu():
            whole = forward(x)
        assert whole.tobytes() == network(x).tobytes()  # fused == interpreter
        kernel, calls = forward._kernel, []
        fn = kernel.fn

        def spy(batch, buffers):
            calls.append((threading.current_thread() is main, len(batch)))
            return fn(batch, buffers)

        kernel.fn = spy
        probed, split = forward(x), forward(x)
        assert forward.last_split == (half, n - half) and kernel.split_rejections == {}
        halves = [(True, half), (False, n - half)]
        assert sorted(calls) == sorted(halves + [(True, n)] + halves)  # one extra whole
        assert [key[0][0] for key in kernel._local.buffers] == [n, half]
        for out in (probed, split):
            assert out.dtype == whole.dtype and out.tobytes() == whole.tobytes()


# -- the probe ------------------------------------------------------------------


def _patched(forward, x, half_fn):
    """Compile, then route calls on fewer rows than ``x`` has to ``half_fn``."""
    with one_cpu():
        forward(x)
    kernel = forward._kernel
    fn = kernel.fn

    def patched(batch, buffers):
        out = fn(batch, buffers)
        return half_fn(out) if len(batch) < len(x) else out

    kernel.fn = patched
    return kernel


@needs_two_cpus
@pytest.mark.parametrize(
    "reason,half_fn,ratio",
    [
        ("bytes", lambda out: np.nextafter(out, np.float32(np.inf)), float("inf")),
        ("slower", lambda out: time.sleep(0.05) or out, 0.8),
    ],
)
def test_probe_rejects_and_counts_the_reason(reason, half_fn, ratio, rng, monkeypatch):
    monkeypatch.setattr(fused, "_SPLIT_KEEP_RATIO", ratio)
    forward = CompiledForward(_pair()[1])
    x = rng.uniform(-1, 1, (400, 13)).astype(np.float32)
    kernel = _patched(forward, x, half_fn)
    with one_cpu():
        whole = forward(x)
    outs = [forward(x) for _ in range(3)]
    assert all(out.tobytes() == whole.tobytes() for out in outs)
    assert forward.stats["splits"] == 0 and forward.last_split is None
    assert kernel.split_rejections == {reason: 1}  # asked once, then it sticks
    # ... until the kernel recompiles: the new one asks again
    monkeypatch.setattr(fused, "_SPLIT_KEEP_RATIO", float("inf"))
    next(iter(forward.model.parameters())).bump_version()
    forward(x), forward(x)
    assert forward._kernel is not kernel and forward.last_split == _halves(len(x))


def _held_lane():
    """``side_lane().beside`` of a callable that holds the lane from
    ``started`` until ``release`` is set, with the two events."""
    started, release = threading.Event(), threading.Event()
    held = side_lane().beside(lambda: started.set() or release.wait(timeout=10))
    return held, started, release


@needs_two_cpus
def test_a_busy_lane_leaves_the_call_whole_and_the_probe_open(rng):
    """The upper half is queued behind the callable on the lane; when the
    lower half is done first, the caller takes it back: the call ran on
    one lane, and a probe it was part of decides nothing."""
    forward = CompiledForward(_pair()[1])
    x = rng.uniform(-1, 1, (400, 13)).astype(np.float32)
    with one_cpu():
        whole = forward(x)
    held, started, release = _held_lane()
    with held:
        assert started.wait(timeout=10)
        probing = forward(x)
        release.set()
    assert forward.last_split is None and probing.tobytes() == whole.tobytes()
    verdicts = [s.split for s in forward._kernel._local.buffers.values()]
    assert verdicts == [None] and forward._kernel.split_rejections == {}
    forward(x), forward(x)  # the lane is free: probe, then split
    assert forward.last_split == _halves(len(x))
    # a kept split behind a busy lane: the same bytes, both halves here
    held, started, release = _held_lane()
    with held:
        assert started.wait(timeout=10)
        busy = forward(x)
        release.set()
    assert forward.last_split is None and busy.tobytes() == whole.tobytes()
    # ... and once the lane is free before the lower half ends, it runs the upper
    kernel, main = forward._kernel, threading.current_thread()
    fn, upper_started = kernel.fn, threading.Event()

    def half(batch, buffers):
        if threading.current_thread() is main:
            release.set()
            assert upper_started.wait(timeout=10)
        else:
            upper_started.set()
        return fn(batch, buffers)

    kernel.fn = half
    held, started, release = _held_lane()
    with held:
        assert started.wait(timeout=10)
        freed = forward(x)
    assert forward.last_split == _halves(len(x)) and freed.tobytes() == whole.tobytes()
    kernel.fn = fn
    # a forward running *on* the lane finds it taken by itself
    with side_lane().beside(lambda: (forward(x), forward.last_split)) as result:
        pass
    assert result()[1] is None and result()[0].tobytes() == whole.tobytes()
    assert forward._kernel.split_rejections == {}


@pytest.mark.parametrize(
    "same,split_s,whole_s,reason",
    [
        (True, [0.012, 0.004, 0.009], [0.010, 0.008, 0.011], None),  # best half vs best whole
        (True, [0.060, 0.055, 0.070], [0.010, 0.012, 0.011], "slower"),
        (False, [0.004, 0.003, 0.005], [0.010, 0.008, 0.011], "bytes"),
        (True, [], [], None),  # a conv round the lane took no half of: the bytes decide
        (False, [], [], "bytes"),
    ],
)
def test_the_probe_rule_on_injected_timings(same, split_s, whole_s, reason, monkeypatch):
    monkeypatch.setattr(fused, "_SPLIT_KEEP_RATIO", 1.0)
    assert fused._split_verdict(same, split_s, whole_s) == reason


@needs_two_cpus
@pytest.mark.parametrize("lane", ["busy", "free"])
def test_a_conv_probe_is_one_round_timed_only_where_the_lane_ran_a_half(lane, rng, monkeypatch):
    """Behind a busy lane the caller takes the upper half back and the one
    round goes untimed; on a free lane the one round is timed.  Either way
    an unpatched probe keeps the split, or refuses it for bytes, as the
    rule (tested on injected timings above) says on what it measured."""
    asked, rule = [], fused._split_verdict
    monkeypatch.setattr(fused, "_split_verdict", lambda *times: asked.append(times) or rule(*times))
    forward = CompiledForward(_resnet18(rng))
    x = rng.uniform(-1, 1, (16, 3, 16, 16)).astype(np.float32)
    main, upper_ran, lane_free = threading.current_thread(), threading.Event(), [lane == "free"]

    def lower_waits_for_a_free_lane(out):
        if threading.current_thread() is not main:
            upper_ran.set()
        elif lane_free[0]:
            assert upper_ran.wait(timeout=10)
        return out

    kernel = _patched(forward, x, lower_waits_for_a_free_lane)
    with one_cpu():
        whole = forward(x)
    if lane == "busy":
        held, started, release = _held_lane()
        with held:
            assert started.wait(timeout=10)
            probed = forward(x)
            release.set()
        lane_free[0] = True
    else:
        probed = forward(x)
    [(same, split_s, whole_s)] = asked
    verdict = kernel._local.buffers[(x.shape, x.dtype)].split
    assert probed.tobytes() == whole.tobytes() and forward.last_split is None
    assert len(split_s) == len(whole_s) == (1 if lane == "free" else 0)
    assert verdict is same
    assert kernel.split_rejections == ({} if same else {"bytes": 1})
    upper_ran.clear()
    again = forward(x)
    assert again.tobytes() == whole.tobytes()
    assert forward.last_split == ((8, 8) if verdict else None)


@needs_two_cpus
@pytest.mark.parametrize("failing", ["lower", "upper"])
def test_an_error_in_either_half_leaves_after_both_are_joined(failing, rng):
    forward = CompiledForward(_pair()[1])
    x = rng.uniform(-1, 1, (400, 13)).astype(np.float32)
    forward(x), forward(x)
    assert forward.last_split == _halves(len(x))
    kernel, main = forward._kernel, threading.current_thread()
    fn, other_done = kernel.fn, threading.Event()

    def half(batch, buffers):
        lower = threading.current_thread() is main
        if lower == (failing == "lower"):
            raise FloatingPointError(f"{failing} half")
        time.sleep(0.05)
        other_done.set()
        return fn(batch, buffers)

    kernel.fn = half
    with pytest.raises(FloatingPointError, match=failing):
        forward(x)
    assert other_done.is_set() and not side_lane()._free.locked()
    kernel.fn = fn
    forward(x)
    assert forward.last_split == _halves(len(x))


# -- calls that never split -------------------------------------------------------


@needs_two_cpus
def test_conv_instrumented_reference_hooked_and_training_calls_stay_whole(rng, monkeypatch):
    x = rng.uniform(-1, 1, (400, 13)).astype(np.float32)
    model, twin = _pair()

    # a conv program splits too, unless its one-round probe finds other
    # bytes in the halves than in the whole batch
    conv = _resnet18(rng)
    images = rng.uniform(-1, 1, (8, 3, 16, 16)).astype(np.float32)
    assert images.nbytes >= _FLOOR
    conv_forward = CompiledForward(conv)
    with one_cpu():
        conv_whole = conv_forward(images)
    conv_kernel, calls = conv_forward._kernel, []
    conv_fn = conv_kernel.fn

    def off_by_one_ulp(batch, buffers):
        calls.append(len(batch))
        out = conv_fn(batch, buffers)
        return np.nextafter(out, np.float32(np.inf)) if len(batch) < len(images) else out

    conv_kernel.fn = off_by_one_ulp
    outs = conv_forward(images), conv_forward(images)
    assert conv_forward.last_fallback_reason is None and conv_forward.stats["splits"] == 0
    assert sorted(calls) == [4, 4, 8, 8]  # two halves and one whole, then whole
    assert conv_kernel.split_rejections == {"bytes": 1}
    assert all(out.tobytes() == conv_whole.tobytes() for out in outs)

    instrumented = CompiledForward(twin, instrument=True)
    instrumented(x), instrumented(x)
    assert instrumented.last_op_seconds and instrumented.stats["splits"] == 0

    monkeypatch.setenv("REPRO_BACKEND", "reference")
    interpreter = CompiledForward(twin)
    interpreter(x), interpreter(x)
    assert interpreter.stats["splits"] == 0 and interpreter.last_split is None
    monkeypatch.delenv("REPRO_BACKEND")

    forward = CompiledForward(model)
    forward(x), forward(x)
    assert forward.last_split == _halves(len(x))
    handle = model.register_forward_hook(lambda *_: None)
    forward(x)
    assert forward.last_fallback_reason == "forward-hooks" and forward.last_split is None
    handle.remove()
    model.train()
    forward(x)
    assert forward.last_fallback_reason == "training-mode" and forward.last_split is None
    model.eval()
    forward(x)
    assert forward.last_split == _halves(len(x)) and forward.stats["splits"] == 2
    assert instrumented._kernel.split_rejections == forward._kernel.split_rejections == {}


def test_one_cpu_never_asks(rng):
    """No lane, no probe: a process on one CPU pays nothing and decides nothing."""
    forward = CompiledForward(_pair()[1])
    x = rng.uniform(-1, 1, (400, 13)).astype(np.float32)
    with one_cpu():
        forward(x), forward(x)
    assert forward.stats["splits"] == 0
    assert [s.split for s in forward._kernel._local.buffers.values()] == [None]
