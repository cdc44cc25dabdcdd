"""The two lanes of ``InferencePipeline.execute``.

The certificate's reference forward runs on the process's one side-lane
thread while compress -> decompress -> quantized forward runs on the
caller's, and the quantized forward of an MLP borrows the lane again,
once that forward has returned, for the upper half of its batch.  Every
result must be, bit for bit, what the inline order gives; inline is what
a process confined to one CPU gets, so the tests obtain it by cutting
the calling thread's affinity to one CPU.
"""

import os
import threading
import time
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import load_workload, obs
from repro.compress import SZCompressor
from repro.core import ErrorFlowAnalyzer, InferencePipeline, TolerancePlanner
from repro.datasets import make_eurosat
from repro.exceptions import IntegrityError
from repro.io import CheckpointJournal, blob_from_bytes, blob_to_bytes
from repro.models import resnet18
from repro.nn import Sequential
from repro.nn.backend import fused
from repro.perf import parallel
from repro.perf.parallel import SideLane, side_lane, usable_cpus
from repro.resilience import corrupt_payload_byte
from repro.resilience.supervisor import fork_available
from tests.conftest import one_cpu

needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or usable_cpus() < 2,
    reason="the lane needs two usable CPUs and an affinity mask to cut",
)

_LANE_THREAD = "repro-lane"


@pytest.fixture(scope="module", autouse=True)
def lane_for_any_size():
    """The tests use fields of a few KB; take the size floor away so
    that they reach the lane (the floor has a test of its own), and the
    probe's time condition, which a small batch or a threaded BLAS fails:
    every split whose bytes are equal is kept and checked."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parallel, "LANE_MIN_BYTES", 0)
        patch.setattr(fused, "_SPLIT_KEEP_RATIO", float("inf"))
        yield


class Reshape:
    """A ``samples_from_fields`` that notes the thread of every call made
    on the source array itself, which is the reference side's call."""

    def __init__(self, source, fn=None):
        self.source = source
        self.fn = fn or (lambda f: f.reshape(f.shape[0], -1).T.astype(np.float32))
        self.reference_threads = []

    def __call__(self, fields):
        if fields is self.source:
            self.reference_threads.append(threading.current_thread().name)
        return self.fn(fields)

    def used_lane(self) -> bool:
        return any(name.startswith(_LANE_THREAD) for name in self.reference_threads)


def assert_same_result(got, expected):
    for name in ("outputs", "reference_outputs"):
        a, b = getattr(got, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name
    assert got.blob.payload == expected.blob.payload
    assert got.input_error_linf == expected.input_error_linf
    assert got.input_error_l2_max == expected.input_error_l2_max
    assert got.extra["integrity"] == expected.extra["integrity"]


def _images(fields):
    return fields.astype(np.float32)


def _workload_case(name):
    workload = load_workload(name)
    plan = TolerancePlanner(workload.analyzer).plan(1e-2, norm="linf")
    return workload.model, plan, workload.dataset.fields.astype(np.float32), None


def _eurosat_case():
    """The EuroSAT workload's PSN ResNet18 QoI model, untrained: what the
    lanes must agree on does not depend on the weights."""
    rng = np.random.default_rng(3)
    model = resnet18(in_channels=13, base_width=16, rng=rng, spectral=True, alpha_init=0.8)
    qoi = Sequential(*list(model)[:-1])
    qoi.eval()
    images = make_eurosat(n_per_class=1, image_size=16, rng=rng).train_inputs[:6]
    analyzer = ErrorFlowAnalyzer(qoi, images.shape[1:])
    return qoi, TolerancePlanner(analyzer).plan(1e-1, norm="linf"), images, _images


@pytest.fixture
def small(trained_spectral_mlp):
    """The session MLP behind a pipeline, with a (5, 32, 32) field."""
    plan = TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp)).plan(
        1e-2, norm="linf", quant_fraction=0.5
    )
    x = np.linspace(0, 2 * np.pi, 32)
    xx, yy = np.meshgrid(x, x)
    fields = np.stack(
        [np.sin((i + 1) * xx) * np.cos(yy) * 0.8 for i in range(5)]
    ).astype(np.float32)
    return InferencePipeline(trained_spectral_mlp, SZCompressor(), plan), fields


# -- differential: lane == inline ----------------------------------------------


@needs_two_cpus
@pytest.mark.parametrize("case", ["h2combustion", "borghesi", "eurosat"])
def test_lane_equals_inline_on_the_workload_models(case):
    model, plan, fields, reshape = (
        _eurosat_case() if case == "eurosat" else _workload_case(case)
    )
    pipe = InferencePipeline(model, SZCompressor(), plan)
    beside, inline = Reshape(fields, reshape), Reshape(fields, reshape)
    with_lane = pipe.execute(fields, samples_from_fields=beside)
    with one_cpu():
        alone = pipe.execute(fields, samples_from_fields=inline)
    assert beside.used_lane() and not inline.used_lane()
    assert inline.reference_threads == [threading.current_thread().name]
    assert_same_result(with_lane, alone)
    # The guard's achieved error, taken without widened copies of field and
    # reconstruction, is what the copying expression gives.
    restored = pipe.codec.decompress(with_lane.blob)
    delta = np.asarray(fields, dtype=np.float64) - np.asarray(restored, dtype=np.float64)
    assert with_lane.extra["integrity"]["input_contract"]["achieved"] == float(np.abs(delta).max())


@needs_two_cpus
@pytest.mark.parametrize("case", ["h2combustion", "borghesi", "eurosat"])
def test_split_quantized_forward_equals_the_one_cpu_execute(case):
    """The second ``execute`` of a pipeline (the first compiled and probed)
    runs its quantized forward as two halves, one of them on the lane the
    reference forward has left by then; the conv model's split is kept or
    refused for its bytes."""
    model, plan, fields, reshape = (
        _eurosat_case() if case == "eurosat" else _workload_case(case)
    )
    mapping = reshape or (lambda f: f.reshape(f.shape[0], -1).T.astype(np.float32))

    def after_the_reference(f):
        if f is not fields:  # the data side: let the reference side finish first
            deadline = time.monotonic() + 30
            while side_lane()._free.locked() and time.monotonic() < deadline:
                time.sleep(0.001)
        return mapping(f)

    pipe = InferencePipeline(model, SZCompressor(), plan)
    pipe.execute(fields, samples_from_fields=after_the_reference)
    kernel = pipe._forward_quant._kernel
    fn, calls = kernel.fn, []

    def spy(x, buffers):
        calls.append((threading.current_thread().name, len(x)))
        return fn(x, buffers)

    kernel.fn = spy
    with obs.capture() as (tracer, metrics):
        both = pipe.execute(fields, samples_from_fields=after_the_reference)
        on_two = sorted(calls)
        del calls[:]
        with one_cpu():
            alone = pipe.execute(fields, samples_from_fields=after_the_reference)
    assert_same_result(both, alone)
    n, main = len(both.outputs), threading.current_thread().name
    assert calls == [(main, n)] and "split" not in alone.extra["backend"]
    two_lanes, one_lane = tracer.find("pipeline.inference")
    assert one_lane.attributes["lanes"] == 1
    if case == "eurosat" and "split" not in both.extra["backend"]:
        # the conv probe keeps a split on equal bytes only: a BLAS whose
        # 3 + 3 images round otherwise than 6 refuses it, and the call
        # stays whole
        assert kernel.split_rejections.get("bytes", 0) >= 1
        assert on_two == [(main, n)] and two_lanes.attributes["lanes"] == 1
        assert pipe._forward_quant.stats["splits"] == 0
        return
    assert two_lanes.attributes["lanes"] == 2
    if case == "eurosat":  # kept: ``assert_same_result`` checked its bytes
        return
    cut = fused._cut(n)
    assert both.extra["backend"]["split"] == [cut, n - cut]
    assert on_two == sorted([(main, cut), (_LANE_THREAD + "_0", n - cut)])
    assert pipe._forward_quant.stats["splits"] == 1
    assert metrics.value("backend_split_calls_total", backend="fused") == 1


@pytest.mark.parametrize("case", ["h2combustion", "borghesi", "eurosat"])
def test_fused_and_reference_backends_certify_alike(case):
    """One pipeline per workload through the fused backend and through the
    reference interpreter (``CompiledForward(model, "reference")``): the
    fused pipeline's second ``execute`` runs the split MLP or conv forward
    where two CPUs allow it, and every run gives the interpreter's bytes,
    blob and certificate ratios."""
    model, plan, fields, reshape = (
        _eurosat_case() if case == "eurosat" else _workload_case(case)
    )
    mapping = reshape or (lambda f: f.reshape(f.shape[0], -1).T.astype(np.float32))

    def after_the_reference(f):
        if f is not fields:  # the data side: the lane is free for a half once this returns
            deadline = time.monotonic() + 30
            while side_lane()._free.locked() and time.monotonic() < deadline:
                time.sleep(0.001)
        return mapping(f)

    runs, pipes = {}, {}
    for backend in ("fused", "reference"):
        pipe = pipes[backend] = InferencePipeline(model, SZCompressor(), plan, backend=backend)
        runs[backend] = [
            pipe.execute(fields, samples_from_fields=after_the_reference) for _ in range(2)
        ]
        assert pipe._forward_quant.backend_name == backend
    expected = runs["reference"][0]
    assert "split" not in expected.extra["backend"]
    for got in runs["fused"] + runs["reference"][1:]:
        assert_same_result(got, expected)
        for norm in ("linf", "l2"):
            ratio = got.qoi_error(norm, relative=False) / plan.qoi_tolerance
            assert ratio == expected.qoi_error(norm, relative=False) / plan.qoi_tolerance
    if usable_cpus() >= 2:  # a conv split is kept on equal bytes only
        refused = pipes["fused"]._forward_quant._kernel.split_rejections.get("bytes", 0)
        assert "split" in runs["fused"][1].extra["backend"] or (case == "eurosat" and refused)


@needs_two_cpus
@given(
    height=st.integers(1, 24),
    width=st.integers(1, 24),
    mapping=st.sampled_from(["default", "transposed", "strided"]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_lane_equals_inline_over_shapes_and_sample_mappings(
    trained_spectral_mlp, height, width, mapping, seed
):
    plan = TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp)).plan(
        1e-2, norm="linf", quant_fraction=0.5
    )
    pipe = InferencePipeline(trained_spectral_mlp, SZCompressor(), plan)
    fields = np.random.default_rng(seed).uniform(-1, 1, (5, height, width)).astype(np.float32)
    reshape = {
        "default": None,
        # column-major sample order: not a view of the default mapping
        "transposed": lambda f: f.transpose(0, 2, 1).reshape(5, -1).T.astype(np.float32),
        # every other sample, so the two sides see fewer rows than the codec
        "strided": lambda f: f.reshape(5, -1).T[::2].astype(np.float32),
    }[mapping]
    with_lane = pipe.execute(fields, samples_from_fields=reshape)
    with one_cpu():
        alone = pipe.execute(fields, samples_from_fields=reshape)
    assert_same_result(with_lane, alone)


@needs_two_cpus
def test_chunked_serial_with_the_lane_commits_what_inline_commits(small, tmp_path):
    """Serial chunks, each an ``execute`` with the lane, against the same
    run confined to one CPU: assembled arrays and the journaled artifacts."""
    pipe, fields = small
    lane_dir, inline_dir = str(tmp_path / "lane"), str(tmp_path / "inline")
    with_lane = pipe.execute_chunked(
        fields, 4, chunk_axis=1, executor="serial", checkpoint=lane_dir
    )
    with one_cpu():
        alone = pipe.execute_chunked(
            fields, 4, chunk_axis=1, executor="serial", checkpoint=inline_dir
        )
    assert_same_result(with_lane, alone)
    lane_journal, inline_journal = CheckpointJournal(lane_dir), CheckpointJournal(inline_dir)
    lane_entries = {entry["chunk"]: entry for entry in lane_journal.entries()}
    inline_entries = {entry["chunk"]: entry for entry in inline_journal.entries()}
    assert sorted(lane_entries) == sorted(inline_entries) == list(range(8))
    for index, entry in lane_entries.items():
        reference = inline_entries[index]
        assert entry["observed_qoi_error"] == reference["observed_qoi_error"]
        assert entry["input_error_linf"] == reference["input_error_linf"]
        got, expected = lane_journal.load(entry), inline_journal.load(reference)
        assert got["outputs"].tobytes() == expected["outputs"].tobytes()
        assert got["blob_bytes"] == expected["blob_bytes"]


@needs_two_cpus
def test_small_fields_stay_inline(small, monkeypatch):
    pipe, fields = small
    monkeypatch.setattr(parallel, "LANE_MIN_BYTES", fields.nbytes + 1)
    below = Reshape(fields)
    pipe.execute(fields, samples_from_fields=below)
    # one floor for both borrowers: the forward of a small batch is never probed
    kernel = pipe._forward_quant._kernel
    assert [b.split for b in kernel._local.buffers.values()] == [False]
    assert kernel.split_rejections == {}
    monkeypatch.setattr(parallel, "LANE_MIN_BYTES", fields.nbytes)
    at = Reshape(fields)
    pipe.execute(fields, samples_from_fields=at)
    assert not below.used_lane() and at.used_lane()


# -- lifecycle -------------------------------------------------------------------


@needs_two_cpus
@pytest.mark.skipif(not fork_available(), reason="the process executor forks")
def test_warm_lane_then_forked_pool_runs_clean(small, tmp_path):
    pipe, fields = small
    reshape = Reshape(fields)
    serial = pipe.execute(fields, samples_from_fields=reshape)
    assert reshape.used_lane()  # the lane thread exists, parked, when the pool forks
    pooled = pipe.execute_chunked(
        fields, 4, chunk_axis=1, workers=2, executor="process",
        checkpoint=str(tmp_path / "journal"),
    )
    supervision = pooled.extra["supervision"]
    assert supervision["retries"] == 0 and supervision["respawns"] == 0
    assert supervision["quarantined"] == []
    assert np.allclose(pooled.outputs, serial.outputs, atol=1e-2)
    # and the parent's lane still works after the children are gone
    again = Reshape(fields)
    assert_same_result(pipe.execute(fields, samples_from_fields=again), serial)
    assert again.used_lane()


def test_a_forked_child_gets_a_lane_of_its_own():
    """The parent's executor thread does not exist in a child; a lane
    that kept it would queue work nobody runs."""
    if not fork_available():
        pytest.skip("no fork on this platform")
    lane = SideLane("test-lane")
    with lane.beside(lambda: threading.current_thread().name) as name:
        pass
    parent_executor = lane._executor
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - forked child
        code = 1
        try:
            fresh = lane._executor is not parent_executor and not lane._free.locked()
            with lane.beside(lambda: 6 * 7) as answer:
                pass
            os.write(write_end, b"ok" if fresh and answer() == 42 else b"no")
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    try:
        assert os.read(read_end, 2) == b"ok"
    finally:
        os.close(read_end)
        os.waitpid(pid, 0)
    assert lane._executor is parent_executor
    if usable_cpus() > 1:
        assert name().startswith("test-lane")


def test_many_executes_add_at_most_one_thread(small):
    pipe, fields = small
    baseline = threading.active_count()
    for _ in range(200):
        pipe.execute(fields)
    assert threading.active_count() <= baseline + 1


@needs_two_cpus
def test_two_concurrent_executes_share_one_lane(small):
    """Both callers are inside their data path at the same moment (the
    barrier sits in the data side's reshape) and the reference side that
    got the lane stays on it until then, so the other reference side is
    queued behind it: it runs on the lane after the first, or on its own
    caller's thread if that caller's data path ends first."""
    pipe, fields = small
    with one_cpu():
        expected = pipe.execute(fields)
    barrier, met = threading.Barrier(2, timeout=30), threading.Event()
    reshapes, results, errors = {}, {}, []

    def caller(key):
        own = fields.copy()

        def meet(f):
            if f is not own:
                barrier.wait()
                met.set()
            elif threading.current_thread().name.startswith(_LANE_THREAD):
                assert met.wait(timeout=30)
            return f.reshape(f.shape[0], -1).T.astype(np.float32)

        reshapes[key] = Reshape(own, meet)
        try:
            results[key] = pipe.execute(own, samples_from_fields=reshapes[key])
        except Exception as exc:  # surfaced below, with the thread joined
            errors.append(exc)

    threads = [threading.Thread(target=caller, args=(key,), name=f"caller-{key}") for key in "ab"]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    assert not errors
    assert any(r.used_lane() for r in reshapes.values())
    for key, reshape in reshapes.items():
        assert len(reshape.reference_threads) == 1
        assert reshape.used_lane() or reshape.reference_threads == [f"caller-{key}"]
    for result in results.values():
        assert_same_result(result, expected)


class ReferenceBoom(ValueError):
    pass


@pytest.mark.parametrize("confined", [False, True])
def test_reference_side_failure_surfaces_as_itself(small, confined):
    pipe, fields = small
    if confined and not hasattr(os, "sched_setaffinity"):
        pytest.skip("no affinity mask to cut")

    def reshape(f):
        if f is fields:
            raise ReferenceBoom("no samples for the reference side")
        return f.reshape(f.shape[0], -1).T.astype(np.float32)

    with one_cpu() if confined else nullcontext():
        with pytest.raises(ReferenceBoom, match="reference side"):
            pipe.execute(fields, samples_from_fields=reshape)
    assert not side_lane()._free.locked()
    healthy = Reshape(fields)
    pipe.execute(fields, samples_from_fields=healthy)
    assert healthy.used_lane() == (usable_cpus() > 1)


def test_corrupt_blob_raises_integrity_error_with_the_lane_drained(small, monkeypatch):
    pipe, fields = small
    started, release, finished = threading.Event(), threading.Event(), threading.Event()
    forward_ref = pipe._forward_ref

    def slow_reference(samples):
        started.set()
        release.wait(timeout=30)
        out = forward_ref(samples)
        finished.set()
        return out

    def corrupt_load(blob):
        if usable_cpus() > 1:
            # the reference side is mid-flight when the data side fails
            assert started.wait(timeout=30)
        threading.Timer(0.05, release.set).start()
        return pipe.codec.safe_decompress(
            blob_from_bytes(corrupt_payload_byte(blob_to_bytes(blob), offset=7))
        )

    monkeypatch.setattr(pipe, "_forward_ref", slow_reference)
    monkeypatch.setattr(pipe, "load", corrupt_load)
    with pytest.raises(IntegrityError):
        pipe.execute(fields)
    if usable_cpus() > 1:
        # drained: the reference forward ran to its end before the error left
        assert finished.is_set()
    else:
        assert not started.is_set()  # inline order: the data side failed first
    assert not side_lane()._free.locked()


@needs_two_cpus
def test_audit_hooks_attach_only_after_the_join(small):
    """The audit re-runs both models under capture hooks; a hook live
    while the lane's forward runs would push it onto the interpreter."""
    pipe, fields = small
    with obs.audit_capture() as auditor:
        reshape = Reshape(fields)
        audited = pipe.execute(fields, samples_from_fields=reshape)
        with one_cpu():
            alone = pipe.execute(fields)
    assert reshape.used_lane()
    assert len(auditor.records) == 2
    assert "fallback_reference" not in audited.extra["backend"]
    assert "fallback_quant" not in audited.extra["backend"]
    assert_same_result(audited, alone)
    assert audited.extra["audit"]["layers"] == alone.extra["audit"]["layers"]


# -- tracing ---------------------------------------------------------------------


@needs_two_cpus
def test_reference_span_is_an_overlapped_child_of_execute(small):
    pipe, fields = small
    pipe.execute(fields)
    with obs.capture() as (tracer, _):
        pipe.execute(fields)
        with one_cpu():
            pipe.execute(fields)
    lane_root, inline_root = tracer.find("pipeline.execute")
    lane_span, inline_span = tracer.find("pipeline.reference")
    assert [root.name for root in tracer.roots] == ["pipeline.execute"] * 2

    assert lane_span.parent_id == lane_root.span_id and lane_span.overlapped
    assert lane_span.trace_id == lane_root.trace_id
    assert tracer.overlapped(lane_root) == [lane_span]
    serial = tracer.children(lane_root)
    assert lane_span not in serial
    assert {"pipeline.compress", "pipeline.decompress", "pipeline.inference"} <= {
        span.name for span in serial
    }
    assert sum(span.duration_s for span in serial) <= lane_root.duration_s

    assert inline_span.parent_id == inline_root.span_id and not inline_span.overlapped
    assert inline_span in tracer.children(inline_root) and not tracer.overlapped(inline_root)
    assert sum(s.duration_s for s in tracer.children(inline_root)) <= inline_root.duration_s

    tree = tracer.render_tree().splitlines()
    reference_lines = [line for line in tree if "pipeline.reference" in line]
    assert len(reference_lines) == 2 and all(line.startswith("  ") for line in reference_lines)
    assert "beside" in reference_lines[0] and "%" in reference_lines[1]
    exported = [d for d in tracer.to_dicts() if d["name"] == "pipeline.reference"]
    assert [d["overlapped"] for d in exported] == [True, False]
    assert all(span.duration_s > 0 for span in (lane_span, inline_span))
