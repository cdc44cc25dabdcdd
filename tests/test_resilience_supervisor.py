"""Fault-tolerance suite: retry schedules, chaos injection, the
supervised process pool, and checkpoint-resume.

The contract under test is the robustness tentpole: a chunked run
survives killed workers, hung tasks and poison chunks without losing
certification, and a killed run resumes bit-identically from its
checkpoint journal at *any* kill point.
"""

import base64
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.compress.sz import SZCompressor
from repro.core.chunked import ChunkRun
from repro.core.errorflow import ErrorFlowAnalyzer
from repro.core.pipeline import InferencePipeline
from repro.core.planner import TolerancePlanner
from repro.exceptions import ConfigurationError, IntegrityError, ReproError
from repro.nn.backend import CompiledForward
from repro.io import (
    CheckpointJournal,
    append_jsonl,
    blob_from_bytes,
    blob_to_bytes,
    digest_array,
    digest_bytes,
    read_jsonl_records,
)
from repro.obs import audit_capture
from repro.obs.audit import LayerwiseErrorRecorder
from repro.obs.registry import RunRegistry
from repro.resilience import (
    CHAOS_ENV_VAR,
    ChaosError,
    ChaosInjector,
    ChaosRule,
    RetryPolicy,
    SupervisedPool,
    corrupt_result,
    flip_bit,
    fork_available,
    truncate,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="supervised pool requires fork"
)

#: fast schedule so pool tests never sleep for real
FAST_RETRY = RetryPolicy(max_retries=2, base_delay=0.01, max_delay=0.05, jitter=0.0)


@pytest.fixture(autouse=True)
def _no_ambient_chaos(monkeypatch):
    """Tests control chaos explicitly; the environment must not leak in."""
    monkeypatch.delenv(CHAOS_ENV_VAR, raising=False)


# -- RetryPolicy ------------------------------------------------------------


def test_retry_schedule_doubles_then_saturates():
    policy = RetryPolicy(max_retries=6, base_delay=0.1, max_delay=0.8, jitter=0.0)
    schedule = [policy.delay(k) for k in range(policy.max_retries)]
    assert schedule == pytest.approx([0.1, 0.2, 0.4, 0.8, 0.8, 0.8])


def test_retry_jitter_is_deterministic_and_bounded():
    policy = RetryPolicy(max_retries=4, base_delay=0.1, max_delay=2.0, jitter=0.25, seed=3)
    again = RetryPolicy(max_retries=4, base_delay=0.1, max_delay=2.0, jitter=0.25, seed=3)
    for attempt in range(4):
        delay = policy.delay(attempt)
        assert delay == again.delay(attempt)  # pure function of (seed, attempt)
        base = min(2.0, 0.1 * 2**attempt)
        assert base <= delay <= base * 1.25


def test_retry_different_seeds_decorrelate():
    policy_a, policy_b = RetryPolicy(jitter=0.5, seed=1), RetryPolicy(jitter=0.5, seed=2)
    delays_a = [policy_a.delay(k) for k in range(policy_a.max_retries)]
    delays_b = [policy_b.delay(k) for k in range(policy_b.max_retries)]
    assert delays_a != delays_b


@pytest.mark.parametrize(
    "kwargs",
    [
        {"max_retries": -1},
        {"base_delay": -0.1},
        {"max_delay": -1.0},
        {"jitter": -0.5},
    ],
)
def test_retry_policy_rejects_bad_config(kwargs):
    with pytest.raises(ConfigurationError):
        RetryPolicy(**kwargs)


# -- chaos spec parsing -----------------------------------------------------


def test_chaos_spec_grammar():
    injector = ChaosInjector.from_spec("kill@1, raise@2:all, hang@0=5, slow@*:2=0.1")
    assert injector.rules == [
        ChaosRule(action="kill", task=1, attempts=1, param=0.1),
        ChaosRule(action="raise", task=2, attempts=None, param=0.1),
        ChaosRule(action="hang", task=0, attempts=1, param=5.0),
        ChaosRule(action="slow", task=None, attempts=2, param=0.1),
    ]


@pytest.mark.parametrize(
    "spec",
    ["kill", "explode@1", "kill@x", "kill@1:maybe", "kill@1:0", "hang@1=soon",
     "disconnect@1"],
)
def test_chaos_spec_rejects_malformed(spec):
    """Malformed rules and unknown actions are refused; ``disconnect`` is
    unknown (there is no coordinator connection for a pool to sever)."""
    with pytest.raises(ConfigurationError):
        ChaosInjector.from_spec(spec)


def test_chaos_from_env(monkeypatch):
    assert ChaosInjector.from_env() is None
    monkeypatch.setenv(CHAOS_ENV_VAR, "raise@3")
    injector = ChaosInjector.from_env()
    assert injector.rules == [ChaosRule(action="raise", task=3, param=0.1)]


def test_chaos_rule_matching_respects_attempt_budget():
    once = ChaosRule(action="raise", task=2, attempts=1)
    assert once.matches(2, 0) and not once.matches(2, 1)
    assert not once.matches(3, 0)
    forever = ChaosRule(action="raise", task=None, attempts=None)
    assert forever.matches(0, 0) and forever.matches(7, 9)


def test_chaos_raise_fires_only_on_matching_attempt():
    injector = ChaosInjector.from_spec("raise@4")
    with pytest.raises(ChaosError):
        injector.before_task(4, 0)
    injector.before_task(4, 1)  # retry attempt passes clean
    injector.before_task(5, 0)  # other tasks untouched


def test_corrupt_result_poisons_arrays_not_originals():
    original = np.ones((8, 8), dtype=np.float32)
    injector = ChaosInjector.from_spec("corrupt@0")
    poisoned = injector.after_task(0, 0, original)
    assert np.isnan(poisoned).any()
    assert not np.isnan(original).any()  # copy semantics
    assert injector.after_task(1, 0, original) is original  # non-matching task


def test_corrupt_result_reaches_outputs_attribute():
    class Boxed:
        def __init__(self):
            self.outputs = np.ones(16, dtype=np.float32)

    box = Boxed()
    poisoned = corrupt_result(box, fraction=0.2)
    assert np.isnan(poisoned.outputs).any()
    assert not np.isnan(box.outputs).any()


# -- SupervisedPool ---------------------------------------------------------


def _square(x):
    return x * x


def test_pool_happy_path_ordered_results():
    pool = SupervisedPool(_square, workers=2, retry=FAST_RETRY)
    report = pool.run(list(range(10)))
    assert report.results() == [x * x for x in range(10)]
    assert report.executor == "process"
    assert report.retries == 0 and report.respawns == 0
    assert report.quarantined == [] and not report.breaker_tripped


def test_pool_inline_when_single_worker():
    pool = SupervisedPool(_square, workers=1, retry=FAST_RETRY)
    report = pool.run([1, 2, 3])
    assert report.results() == [1, 4, 9]
    assert report.executor == "inline"


def test_pool_empty_payloads():
    report = SupervisedPool(_square, workers=2, retry=FAST_RETRY).run([])
    assert report.results() == [] and report.outcomes == {}


@pytest.mark.parametrize("workers", [1, 2])
def test_pool_refuses_duplicate_task_ids(workers):
    ran = []
    pool = SupervisedPool(ran.append, workers=workers, retry=FAST_RETRY)
    with pytest.raises(ConfigurationError, match="distinct"):
        pool.run([3, 1, 3])
    assert ran == []


def test_pool_keys_everything_by_task_id():
    """Ids are not positions: each hook and the report see the id itself."""
    seen = []
    pool = SupervisedPool(
        _square, workers=2, retry=FAST_RETRY, chaos=ChaosInjector.from_spec("raise@7:all"),
        validate=lambda task_id, result: seen.append((task_id, result)),
    )
    report = pool.run([7, 2, 5])
    assert sorted(seen) == [(2, 4), (5, 25)]
    assert report.quarantined == [7] and sorted(report.outcomes) == [2, 5, 7]
    assert report.results() == [4, 25, None]


def test_pool_respawns_after_worker_kill():
    chaos = ChaosInjector.from_spec("kill@1")
    with obs.capture() as (tracer, _):
        pool = SupervisedPool(_square, workers=2, retry=FAST_RETRY, chaos=chaos)
        report = pool.run(list(range(6)))
    assert report.results() == [x * x for x in range(6)]
    assert report.respawns == 1
    assert report.retries == 1
    assert report.outcomes[1].attempts == 2
    # the run's span carries the same counts
    (run,) = tracer.find("supervisor.run")
    assert (run.attributes["respawns"], run.attributes["retries"]) == (1, 1)


def test_pool_retries_transient_exception():
    chaos = ChaosInjector.from_spec("raise@3")  # a rule names a task id
    report = SupervisedPool(_square, workers=2, retry=FAST_RETRY, chaos=chaos).run(
        [3, 4]
    )
    assert report.results() == [9, 16]
    assert report.retries == 1 and report.respawns == 0  # no process died


def test_pool_quarantines_poison_task():
    chaos = ChaosInjector.from_spec("raise@2:all")  # fails on every attempt
    with obs.capture() as (tracer, _):
        pool = SupervisedPool(_square, workers=2, retry=FAST_RETRY, chaos=chaos)
        report = pool.run(list(range(5)))
    assert report.quarantined == [2]
    outcome = report.outcomes[2]
    assert outcome.quarantined and outcome.result is None
    assert "injected failure" in outcome.error
    assert outcome.attempts == FAST_RETRY.max_retries + 1
    assert report.results() == [0, 1, None, 9, 16]
    (run,) = tracer.find("supervisor.run")
    assert (run.attributes["retries"], run.attributes["quarantined"]) == (2, [2])


def test_pool_deadline_kills_hung_worker():
    chaos = ChaosInjector.from_spec("hang@5=60")
    pool = SupervisedPool(
        _square, workers=2, retry=FAST_RETRY, chaos=chaos, task_timeout=0.5
    )
    report = pool.run([5, 6])
    assert report.results() == [25, 36]
    assert report.respawns == 1  # the hung worker was killed and replaced
    assert report.outcomes[5].attempts == 2


def test_pool_stale_heartbeat_kills_frozen_worker(tmp_path, monkeypatch):
    """With no task deadline, a stale heartbeat is the only sign of a worker
    that is alive but not making progress: a task that SIGSTOPs its own
    worker on its first attempt is killed, respawned and retried once."""
    from repro.resilience import supervisor

    monkeypatch.setattr(supervisor, "_STALE_AFTER", 0.5)
    marker = tmp_path / "stopped-once"

    def freeze_first_attempt(x):
        if x == 1 and not marker.exists():
            marker.touch()
            os.kill(os.getpid(), signal.SIGSTOP)
        return x * x

    pool = SupervisedPool(freeze_first_attempt, workers=2, retry=FAST_RETRY)
    report = pool.run(list(range(4)))
    assert report.results() == [x * x for x in range(4)]
    assert (report.respawns, report.retries) == (1, 1)
    assert report.outcomes[1].attempts == 2


def test_pool_circuit_breaker_degrades_to_inline():
    chaos = ChaosInjector.from_spec("kill@*:all")  # every worker dies, always
    with obs.capture() as (tracer, _):
        pool = SupervisedPool(
            _square, workers=2, retry=RetryPolicy(max_retries=20, base_delay=0.0, jitter=0.0),
            chaos=chaos,
        )
        report = pool.run(list(range(8)))
    assert report.breaker_tripped
    # chaos models *worker* faults and is never applied inline, so the
    # degraded serial pass completes every task
    assert report.results() == [x * x for x in range(8)]
    # a two-worker pool trips at 2 * workers + 1 respawns
    assert report.respawns >= 5
    (run,) = tracer.find("supervisor.run")
    assert run.attributes["breaker_tripped"] is True
    assert all(outcome.inline for outcome in report.outcomes.values() if outcome.attempts)


def test_pool_validate_rejects_corrupt_result_then_retry_succeeds(tmp_path):
    chaos = ChaosInjector.from_spec("corrupt@1")  # first attempt only
    commit_log = str(tmp_path / "commits.log")

    def make_field(x):
        return np.full(32, float(x), dtype=np.float32)

    def validate(task_id, result):
        if np.isnan(result).any():
            raise IntegrityError(f"NaN in task {task_id} result")

    def commit(task_id, result, attempts):
        # runs in the worker, after the chaos hooks: it sees what the
        # parent will see, and what it returns rides back on the outcome
        _append_line(commit_log, f"{task_id} {attempts} {int(np.isnan(result).any())}")
        return {"task": task_id, "attempts": attempts}

    pool = SupervisedPool(
        make_field, workers=2, retry=FAST_RETRY, chaos=chaos, validate=validate,
        commit=commit,
    )
    report = pool.run([0, 1, 2])
    assert report.retries == 1 and report.quarantined == []
    assert report.outcomes[1].attempts == 2
    for task_id, outcome in report.outcomes.items():
        assert not np.isnan(outcome.result).any()
        assert outcome.result[0] == float(task_id)
        # the commit the parent keeps is the accepted attempt's
        assert outcome.committed == {"task": task_id, "attempts": outcome.attempts}
    # the rejected attempt was committed too (corrupt), then superseded
    assert sorted(_read_lines(commit_log)) == ["0 1 0", "1 1 1", "1 2 0", "2 1 0"]


def _append_line(path, text):
    append_jsonl(path, {"line": text})  # one O_APPEND write: safe across workers


def _read_lines(path):
    return [record["line"] for record in read_jsonl_records(path)]


def test_pool_worker_death_charges_only_the_running_task(tmp_path):
    """Regression: worker 0 dies holding task 0 (running) and task 2
    (queued behind it, two-deep window).  The queued message must die
    with the worker's own pipe — its replacement must not run it as
    well as whoever the parent rescheduled it to — and only the running
    task is charged an attempt."""
    executions = str(tmp_path / "executions.log")

    def recorded(x):
        _append_line(executions, str(x))
        return x * x

    seen = []
    chaos = ChaosInjector.from_spec("kill@0")
    pool = SupervisedPool(
        recorded, workers=2, retry=FAST_RETRY, chaos=chaos,
        validate=lambda tid, res: seen.append(tid),
    )
    report = pool.run(list(range(6)))
    assert report.results() == [x * x for x in range(6)]
    assert sorted(seen) == list(range(6))  # validated exactly once each
    assert sorted(_read_lines(executions)) == [str(x) for x in range(6)]  # ran once each
    assert report.respawns == 1 and report.retries == 1
    assert report.outcomes[0].attempts == 2  # the running task was charged
    assert all(report.outcomes[t].attempts == 1 for t in range(1, 6))  # nothing else


def test_pool_send_to_a_dead_workers_pipe_is_a_respawn():
    """A worker that died between the liveness check and the dispatch
    shows as ``OSError`` on its task pipe: the death the next sweep would
    find.  The task never started, so it is re-readied, not charged."""
    pool = SupervisedPool(lambda x: x * x, workers=2, retry=FAST_RETRY)
    spawn, broken = pool._spawn, []

    class Hungup:
        def send(self, message):
            raise BrokenPipeError("worker hung up")

        def close(self):
            pass

    def first_worker_hangs_up(ctx, slot):
        worker = spawn(ctx, slot)
        if not broken:
            broken.append(worker.tasks)
            worker.tasks = Hungup()
        return worker

    pool._spawn = first_worker_hangs_up
    report = pool.run(list(range(6)))
    broken[0].close()
    assert report.results() == [x * x for x in range(6)]
    assert report.respawns == 1 and report.retries == 0
    assert all(outcome.attempts == 1 for outcome in report.outcomes.values())


def test_pool_survives_deaths_behind_large_results():
    """Regression: a worker reports a result far larger than a pipe
    buffer and dies in the task queued behind it.  The report must be
    whole before the worker moves on — a torn one, with the dead writer
    holding a shared lock, used to block the parent's read forever."""

    def big(x):
        return np.zeros(200_000) + x  # 1.6 MB pickled

    chaos = ChaosInjector.from_spec("kill@3,kill@7,kill@12,kill@18")
    pool = SupervisedPool(big, workers=2, retry=FAST_RETRY, chaos=chaos)
    reports = []
    runner = threading.Thread(
        target=lambda: reports.append(pool.run(list(range(24)))), daemon=True
    )
    runner.start()
    runner.join(timeout=60)
    assert reports, "the pool hung behind a dead worker"
    (report,) = reports
    assert [int(r[0]) for r in report.results()] == list(range(24))
    assert all(r.shape == (200_000,) for r in report.results())
    assert report.respawns == 4 and report.retries == 4
    assert report.quarantined == [] and not report.breaker_tripped
    assert {t for t, o in report.outcomes.items() if o.attempts == 2} == {3, 7, 12, 18}


def test_pool_death_is_charged_after_what_the_worker_reported():
    """Worker 0 reports task 0 and dies in task 2 while the parent is
    busy in ``validate``: the unread report still counts, and the
    failure goes to the task the last "start" named, not to task 0."""

    def staggered(x):
        if x == 0:
            time.sleep(0.1)  # task 1's report arrives first
        return x * x

    def validate(task_id, result):
        if task_id == 1:
            time.sleep(0.5)  # worker 0 finishes task 0 and dies meanwhile

    chaos = ChaosInjector.from_spec("kill@2")
    pool = SupervisedPool(
        staggered, workers=2, retry=FAST_RETRY, chaos=chaos, validate=validate
    )
    report = pool.run(list(range(4)))
    assert report.results() == [0, 1, 4, 9]
    assert report.respawns == 1 and report.retries == 1
    assert report.outcomes[0].attempts == 1
    assert report.outcomes[2].attempts == 2


@pytest.mark.parametrize(
    "mask, workers, ppid, expected",
    [
        # the pool fills the mask: one CPU per slot, no offset
        ({4, 5}, 2, 7, [{4}, {5}]),
        # more workers than CPUs wrap around
        ({0, 1}, 3, 7, [{0}, {1}, {0}]),
        # room to spare: disjoint blocks, so a task's BLAS threads fit
        (set(range(16)), 2, 7, [set(range(8)), set(range(8, 16))]),
        # a pool that leaves CPUs over starts where its parent's pid says,
        # so two pools on one host do not both sit on CPUs 0..2
        (set(range(4)), 3, 5, [{1}, {2}, {3}]),
        (set(range(4)), 3, 6, [{2}, {3}, {0}]),
    ],
)
def test_pool_pins_each_slot_to_its_block_of_the_mask(
    monkeypatch, mask, workers, ppid, expected
):
    pinned = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(mask), raising=False)
    monkeypatch.setattr(
        os, "sched_setaffinity", lambda pid, cpus: pinned.append(set(cpus)), raising=False
    )
    monkeypatch.setattr(os, "getppid", lambda: ppid)
    pool = SupervisedPool(_square, workers=workers)
    for slot in range(workers):
        pool._pin(slot)
    assert pinned == expected


def test_pool_inline_commits_after_validate():
    committed = []

    def validate(task_id, result):
        if result == 4 and "rejected-once" not in committed:
            committed.append("rejected-once")
            raise IntegrityError("first look at task 2 is bad")

    pool = SupervisedPool(
        _square, workers=1, retry=FAST_RETRY, validate=validate,
        commit=lambda tid, res, attempts: committed.append((tid, attempts)) or tid,
    )
    report = pool.run([1, 2, 3])
    assert committed == [(1, 1), "rejected-once", (2, 2), (3, 1)]
    assert [report.outcomes[t].committed for t in (1, 2, 3)] == [1, 2, 3]


def test_pool_reports_what_pack_returns_from_a_worker():
    """``pack`` shapes what crosses the pipe; inline there is no pipe."""

    def negate(task_id, result):
        return -result

    pool = SupervisedPool(_square, workers=2, retry=FAST_RETRY, pack=negate)
    assert pool.run([1, 2, 3]).results() == [-1, -4, -9]
    inline = SupervisedPool(_square, workers=1, retry=FAST_RETRY, pack=negate)
    assert inline.run([1, 2, 3]).results() == [1, 4, 9]


def test_pool_reports_one_outcome_per_task_and_counts_quarantines():
    chaos = ChaosInjector.from_spec("raise@1,raise@3:all")
    pool = SupervisedPool(_square, workers=2, retry=FAST_RETRY, chaos=chaos)
    with obs.capture() as (tracer, _):
        report = pool.run(list(range(5)))
    succeeded = {t: o.result for t, o in report.outcomes.items() if not o.quarantined}
    assert succeeded == {0: 0, 1: 1, 2: 4, 4: 16}
    assert report.quarantined == [3]
    (run,) = tracer.find("supervisor.run")
    assert run.attributes["quarantined"] == [3]


def test_pool_stitches_child_spans_into_parent_trace():
    def traced_task(x):
        with obs.get_tracer().span("child.work", value=x):
            return x * x

    with obs.capture() as (tracer, _):
        with tracer.span("test.run") as root:
            report = SupervisedPool(traced_task, workers=2, retry=FAST_RETRY).run(
                [1, 2, 3]
            )
        task_spans = tracer.find("supervisor.task")
        child_spans = tracer.find("child.work")
    assert len(task_spans) == 3 and len(child_spans) == 3
    task_ids = {span.span_id for span in task_spans}
    for child in child_spans:
        # forked-child spans reparent under the task span that ran them
        assert child.parent_id in task_ids
        assert child.trace_id == root.trace_id
    for task in task_spans:
        assert task.trace_id == root.trace_id
    assert sorted(span.attributes["value"] for span in child_spans) == [1, 2, 3]
    # the child-measured wall rides back onto the task span
    assert sorted(task.attributes["task"] for task in task_spans) == sorted(report.outcomes)
    assert all(
        isinstance(task.attributes["worker_seconds"], float)
        and task.attributes["worker_seconds"] >= 0.0
        for task in task_spans
    )


def test_pool_rejects_nonpositive_timeout():
    with pytest.raises(ConfigurationError):
        SupervisedPool(_square, workers=2, task_timeout=0.0)


# -- pipeline integration ---------------------------------------------------


@pytest.fixture(scope="module")
def chunked_setup(trained_spectral_mlp):
    x = np.linspace(0, 2 * np.pi, 32)
    xx, yy = np.meshgrid(x, x)
    fields = np.stack(
        [np.sin((i + 1) * xx) * np.cos(yy) * 0.8 for i in range(5)]
    ).astype(np.float32)
    planner = TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp))
    plan = planner.plan(1e-2, norm="linf", quant_fraction=0.5)
    pipeline = InferencePipeline(trained_spectral_mlp, SZCompressor(), plan)
    serial = pipeline.execute_chunked(fields, chunk_size=8, chunk_axis=1, workers=1)
    return pipeline, fields, serial


def _chunked(pipeline, fields, **kwargs):
    return pipeline.execute_chunked(fields, chunk_size=8, chunk_axis=1, **kwargs)


def test_pipeline_survives_sigkill_and_hang(chunked_setup):
    """The acceptance scenario: a killed worker and a hung task, and the
    assembled result is still bit-identical to the serial run."""
    pipeline, fields, serial = chunked_setup
    chaos = ChaosInjector.from_spec("kill@1,hang@2=30")
    result = _chunked(
        pipeline, fields, workers=2, executor="process", chaos=chaos,
        task_timeout=3.0,
    )
    assert np.array_equal(result.outputs, serial.outputs)
    assert np.array_equal(result.reference_outputs, serial.reference_outputs)
    supervision = result.extra["supervision"]
    assert supervision["respawns"] == 2  # one SIGKILL, one deadline kill
    assert supervision["retries"] == 2
    assert supervision["quarantined"] == []
    # no loss of certification
    assert result.qoi_error("linf") <= pipeline.plan.qoi_tolerance


def test_l2_plan_runs_chunked_on_a_pool_journals_and_resumes(
    chunked_setup, trained_spectral_mlp, tmp_path
):
    """An L2 plan's budget is per sample, so a chunked ZFP run on the
    process pool certifies, and its resume replays every chunk and
    reproduces the outputs and the certificate byte for byte."""
    from repro.compress import ZFPCompressor

    _, fields, _ = chunked_setup
    tolerance = 1e-2
    plan = TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp)).plan(tolerance, norm="l2")
    pipeline = InferencePipeline(trained_spectral_mlp, ZFPCompressor(), plan)
    checkpoint = str(tmp_path / "l2")
    first = _chunked(pipeline, fields, workers=2, executor="process", checkpoint=checkpoint)
    again = _chunked(
        pipeline, fields, workers=2, executor="process", checkpoint=checkpoint, resume=True
    )
    assert again.extra["checkpoint"]["replayed_chunks"] == first.extra["chunked"]["n_chunks"]
    assert np.array_equal(again.outputs, first.outputs)
    for result in (first, again):
        assert result.certificate.input_error_l2_max <= plan.input_tolerance
        assert result.qoi_error("l2") <= tolerance
    assert again.certificate == first.certificate


def test_pipeline_quarantine_degrades_to_lossless(chunked_setup):
    pipeline, fields, serial = chunked_setup
    chaos = ChaosInjector.from_spec("raise@1:all")  # chunk 1 is a poison pill
    result = _chunked(
        pipeline, fields, workers=2, executor="process", chaos=chaos,
        max_task_retries=1,
    )
    supervision = result.extra["supervision"]
    assert supervision["quarantined"] == [1]
    assert result.extra["integrity"]["degraded"]
    # the quarantined chunk re-ran losslessly in the parent: outputs are
    # finite, complete, and the tolerance still holds
    assert result.outputs.shape == serial.outputs.shape
    assert np.isfinite(result.outputs).all()
    assert result.qoi_error("linf") <= pipeline.plan.qoi_tolerance
    # untouched chunks match the serial run exactly
    rows_per_chunk = serial.outputs.shape[0] // 4
    assert np.array_equal(
        result.outputs[:rows_per_chunk], serial.outputs[:rows_per_chunk]
    )


def test_both_kernels_compile_in_the_parent_before_the_pool_forks(
    chunked_setup, monkeypatch
):
    """A kernel a pool worker compiles dies with the run, so the slab's
    shape probe runs both compiled forwards in the parent: with compiling
    refused anywhere else, a pooled run of a fresh pipeline still computes
    every chunk in its workers."""
    pipeline, fields, serial = chunked_setup
    parent, compile_ = os.getpid(), CompiledForward._compile

    def parent_only(self, version):
        if os.getpid() != parent:
            raise RuntimeError("kernel compiled in a pool worker")
        return compile_(self, version)

    monkeypatch.setattr(CompiledForward, "_compile", parent_only)
    fresh = InferencePipeline(pipeline.model, SZCompressor(), pipeline.plan)
    result = _chunked(fresh, fields, workers=2, executor="process", max_task_retries=1)
    assert result.extra["supervision"]["quarantined"] == []
    assert not result.extra["integrity"]["degraded"]
    assert fresh._forward_quant.stats["compiles"] == fresh._forward_ref.stats["compiles"] == 1
    assert np.array_equal(result.outputs, serial.outputs)


def test_pipeline_chaos_requires_process_executor(chunked_setup):
    pipeline, fields, _ = chunked_setup
    with pytest.raises(ConfigurationError, match="process executor"):
        _chunked(
            pipeline, fields, workers=1, chaos=ChaosInjector.from_spec("raise@0")
        )


def test_pipeline_audit_adopted_across_faults(chunked_setup, tmp_path):
    pipeline, fields, _ = chunked_setup
    chaos = ChaosInjector.from_spec("kill@1")
    with audit_capture(registry=str(tmp_path / "runs.jsonl")) as auditor:
        _chunked(
            pipeline, fields, workers=2, executor="process", chaos=chaos
        )
        records = list(auditor.records)
    assert len(records) == 4  # one per chunk, despite the kill/retry
    assert sorted(record.run_id for record in records) == [
        f"run-{i:04d}" for i in range(1, 5)
    ]


# -- the output slab: pool workers write rows, reports carry the rest -------


_ROWS = 8 * 32  # samples per 8-row chunk of the 5 x 32 x 32 fields


def test_killed_worker_leaves_no_rows_behind(chunked_setup, monkeypatch, tmp_path):
    """A worker SIGKILLed halfway through writing chunk 1's rows: the
    retry elsewhere writes every row again, so the slab holds the serial
    run's bytes."""
    pipeline, fields, serial = chunked_setup
    real_pack, marker = ChunkRun.pack, str(tmp_path / "killed")

    def pack_then_die(self, index, result):
        if index == 1 and not os.path.exists(marker):
            open(marker, "w").close()
            outputs, reference = self.rows(index)
            outputs[: len(outputs) // 2] = np.nan
            reference[: len(reference) // 2] = -1.0
            os.kill(os.getpid(), signal.SIGKILL)
        return real_pack(self, index, result)

    monkeypatch.setattr(ChunkRun, "pack", pack_then_die)
    result = _chunked(pipeline, fields, workers=2, executor="process")
    assert os.path.exists(marker)
    supervision = result.extra["supervision"]
    assert supervision["respawns"] == 1 and supervision["retries"] == 1
    assert np.array_equal(result.outputs, serial.outputs)
    assert np.array_equal(result.reference_outputs, serial.reference_outputs)


def test_corrupt_rows_are_caught_in_the_slab(chunked_setup, monkeypatch):
    """Without a journal nothing screens in the worker: the NaN rows a
    ``corrupt`` rule puts in the slab are caught by the parent's screen
    of the rows where they landed, and the retry overwrites them."""
    pipeline, fields, serial = chunked_setup
    real_screen, rejected = ChunkRun.screen, []

    def screen(self, index, result):
        try:
            real_screen(self, index, result)
        except IntegrityError:
            rejected.append((index, result.outputs is None))
            raise

    monkeypatch.setattr(ChunkRun, "screen", screen)
    result = _chunked(
        pipeline, fields, workers=2, executor="process",
        chaos=ChaosInjector.from_spec("corrupt@1"),
    )
    assert rejected == [(1, True)]  # a packed report, screened in the slab
    assert result.extra["supervision"]["retries"] == 1
    assert np.array_equal(result.outputs, serial.outputs)


def test_quarantined_chunk_writes_its_rows_inline(chunked_setup):
    pipeline, fields, serial = chunked_setup
    result = _chunked(
        pipeline, fields, workers=2, executor="process", max_task_retries=1,
        chaos=ChaosInjector.from_spec("raise@1:all"),
    )
    assert result.extra["supervision"]["quarantined"] == [1]
    lossless = pipeline.execute(
        np.ascontiguousarray(fields[:, 8:16]), force_lossless=True
    )
    chunk = slice(_ROWS, 2 * _ROWS)
    assert np.array_equal(result.outputs[chunk], lossless.outputs)
    assert np.array_equal(result.reference_outputs[chunk], lossless.reference_outputs)
    others = np.ones(len(serial.outputs), dtype=bool)
    others[chunk] = False
    assert np.array_equal(result.outputs[others], serial.outputs[others])


def test_breaker_tripped_chunks_write_their_rows_inline(chunked_setup):
    """Every worker dies on every task: the breaker trips and what is left
    runs in the parent, whose rows land in the same slab."""
    pipeline, fields, serial = chunked_setup
    result = _chunked(
        pipeline, fields, workers=2, executor="process", max_task_retries=8,
        chaos=ChaosInjector.from_spec("kill@*:all"),
    )
    supervision = result.extra["supervision"]
    assert supervision["breaker_tripped"] and supervision["quarantined"] == []
    assert np.array_equal(result.outputs, serial.outputs)
    assert np.array_equal(result.reference_outputs, serial.reference_outputs)


def test_worker_reports_carry_the_blob_not_the_rows(chunked_setup, monkeypatch, tmp_path):
    """A pool worker's pickled report is the blob bytes plus at most 4 KB:
    its rows (6 KB here, ~160 KB on a production chunk) are in the slab."""
    import pickle
    from multiprocessing import connection

    pipeline, fields, serial = chunked_setup
    real_recv, reports = connection.Connection.recv, []

    def recv(self):
        message = real_recv(self)
        if isinstance(message, tuple) and message[0] == "done":
            reports.append((len(pickle.dumps(message)), message[2]))
        return message

    monkeypatch.setattr(connection.Connection, "recv", recv)
    result = _chunked(
        pipeline, fields, workers=2, executor="process", checkpoint=str(tmp_path / "ck")
    )
    assert np.array_equal(result.outputs, serial.outputs)
    assert len(reports) == 4
    for size, packed in reports:
        assert packed.outputs is None and packed.reference_outputs is None
        assert size <= len(packed.blob.payload) + 4096
    assert serial.outputs[:_ROWS].nbytes + serial.reference_outputs[:_ROWS].nbytes > 4096


def test_chunked_run_spans_cover_the_parents_serial_time(chunked_setup, tmp_path):
    pipeline, fields, _ = chunked_setup
    with obs.capture() as (tracer, _):
        _chunked(pipeline, fields, workers=2, executor="process", checkpoint=str(tmp_path / "ck"))
        prepare = tracer.find("chunked.prepare")
        spawns, shutdowns = tracer.find("supervisor.spawn"), tracer.find("supervisor.shutdown")
    assert [span.attributes["step"] for span in prepare] == ["split", "journal"]
    assert sorted(span.attributes["slot"] for span in spawns) == [0, 1]
    assert len(shutdowns) == 1 and shutdowns[0].attributes["workers"] == 2


# -- checkpoint / resume ----------------------------------------------------


def test_checkpoint_journal_roundtrip(tmp_path):
    journal = CheckpointJournal(str(tmp_path / "ck"))
    data = np.arange(12, dtype=np.float32).reshape(3, 4)
    manifest = {"fingerprint": {"plan": "p"}, "chunk_digests": [digest_array(data)]}
    assert journal.begin(manifest) == {}
    entry = journal.record(
        0, blob_bytes=b"blob-bytes", entry={"input_digest": digest_array(data)},
    )
    assert entry["artifact"] == os.path.join("chunks", "chunk-0000.rblob")
    assert journal.load(entry) == b"blob-bytes"
    # the artifact is the blob and nothing else
    assert (tmp_path / "ck" / entry["artifact"]).read_bytes() == b"blob-bytes"
    # resume sees the completed chunk
    completed = journal.begin(manifest, resume=True)
    assert set(completed) == {0}


def test_checkpoint_rejects_fingerprint_mismatch(tmp_path):
    journal = CheckpointJournal(str(tmp_path / "ck"))
    data = np.zeros(4, dtype=np.float32)
    journal.begin({"fingerprint": {"plan": "a"}, "chunk_digests": [digest_array(data)]})
    with pytest.raises(IntegrityError, match="different run"):
        CheckpointJournal(str(tmp_path / "ck")).begin(
            {"fingerprint": {"plan": "b"}, "chunk_digests": [digest_array(data)]},
            resume=True,
        )


def test_checkpoint_rejects_changed_inputs(tmp_path):
    journal = CheckpointJournal(str(tmp_path / "ck"))
    data = np.zeros(4, dtype=np.float32)
    journal.begin({"fingerprint": {"plan": "a"}, "chunk_digests": [digest_array(data)]})
    with pytest.raises(IntegrityError, match="data changed"):
        CheckpointJournal(str(tmp_path / "ck")).begin(
            {
                "fingerprint": {"plan": "a"},
                "chunk_digests": [digest_array(data + 1)],
            },
            resume=True,
        )


@pytest.fixture(scope="module")
def written_manifest(chunked_setup, tmp_path_factory):
    """A real run's manifest, and the bytes ``begin`` wrote for it."""
    pipeline, fields, _ = chunked_setup
    manifest = ChunkRun(pipeline, fields, 8, 1).manifest
    ck = str(tmp_path_factory.mktemp("manifest") / "ck")
    CheckpointJournal(ck).begin(manifest)
    with open(os.path.join(ck, "manifest.json"), "rb") as handle:
        return manifest, handle.read()


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_damaged_manifest_never_resumes_another_run(written_manifest, tmp_path_factory, data):
    """Property: a checkpoint whose ``manifest.json`` is cut short or has
    one bit flipped refuses to resume with ``IntegrityError`` — unless it
    still parses to the same manifest (a cut trailing newline, an
    exponent's ``e`` flipped to ``E``), which resumes as before."""
    manifest, raw = written_manifest
    if data.draw(st.booleans(), label="truncate"):
        mutated = truncate(raw, data.draw(st.integers(0, len(raw) - 1), label="length"))
    else:
        mutated = flip_bit(raw, data.draw(st.integers(0, 8 * len(raw) - 1), label="bit"))
    try:
        unchanged = json.loads(mutated) == json.loads(raw)
    except ValueError:  # not JSON, or not UTF-8
        unchanged = False
    ck = str(tmp_path_factory.mktemp("damaged"))
    os.makedirs(os.path.join(ck, "chunks"))
    with open(os.path.join(ck, "manifest.json"), "wb") as handle:
        handle.write(mutated)
    if unchanged:
        assert CheckpointJournal(ck).begin(manifest, resume=True) == {}
    else:
        with pytest.raises(IntegrityError):
            CheckpointJournal(ck).begin(manifest, resume=True)


def test_checkpoint_drops_tampered_artifact(tmp_path):
    journal = CheckpointJournal(str(tmp_path / "ck"))
    data = np.arange(8, dtype=np.float32)
    manifest = {"fingerprint": {}, "chunk_digests": [digest_array(data)]}
    journal.begin(manifest)
    entry = journal.record(
        0, blob_bytes=b"blob-bytes", entry={"input_digest": digest_array(data)},
    )
    artifact = tmp_path / "ck" / entry["artifact"]
    blob = bytearray(artifact.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    artifact.write_bytes(bytes(blob))
    # the tampered entry is silently dropped: the chunk gets recomputed
    assert CheckpointJournal(str(tmp_path / "ck")).begin(manifest, resume=True) == {}


def test_resume_hands_out_the_bytes_it_verified_once(tmp_path):
    journal = CheckpointJournal(str(tmp_path / "ck"))
    data = np.arange(8, dtype=np.float32)
    manifest = {"fingerprint": {}, "chunk_digests": [digest_array(data)]}
    journal.begin(manifest)
    journal.record(0, blob_bytes=b"x", entry={"input_digest": digest_array(data)})
    resumed = CheckpointJournal(str(tmp_path / "ck"))
    (entry,) = resumed.begin(manifest, resume=True).values()
    artifact = tmp_path / "ck" / entry["artifact"]
    artifact.write_bytes(b"changed after begin() verified it")
    # what begin() verified is what the first load replays, read once ...
    assert resumed.load(entry) == b"x"
    # ... and after that the file on disk is read, and checked, again
    with pytest.raises(IntegrityError, match="digest mismatch"):
        resumed.load(entry)


def test_pipeline_resume_skips_completed_chunks(chunked_setup, tmp_path):
    pipeline, fields, serial = chunked_setup
    ck = str(tmp_path / "ck")
    full = _chunked(pipeline, fields, workers=1, checkpoint=ck)
    assert full.extra["checkpoint"]["computed_chunks"] == 4
    # simulate a crash after two chunks: keep only the first 2 journal lines
    journal_path = os.path.join(ck, "journal.jsonl")
    with open(journal_path, encoding="utf-8") as handle:
        lines = handle.readlines()
    assert len(lines) == 4
    with open(journal_path, "w", encoding="utf-8") as handle:
        handle.writelines(lines[:2])
    resumed = _chunked(pipeline, fields, workers=1, checkpoint=ck, resume=True)
    assert resumed.extra["checkpoint"]["replayed_chunks"] == 2
    assert resumed.extra["checkpoint"]["computed_chunks"] == 2
    assert np.array_equal(resumed.outputs, full.outputs)
    assert np.array_equal(resumed.reference_outputs, full.reference_outputs)
    assert np.array_equal(resumed.outputs, serial.outputs)


def test_chaos_names_a_chunk_on_a_resumed_pool_run(chunked_setup, tmp_path):
    """A chaos task is a chunk index on every path: resumed from the first
    two lines of a serial journal, the pool computes chunks 2 and 3 and
    ``raise@3:all`` quarantines chunk 3, not a position in that list."""
    pipeline, fields, serial = chunked_setup
    ck = str(tmp_path / "ck")
    _chunked(pipeline, fields, executor="serial", checkpoint=ck)
    journal_path = os.path.join(ck, "journal.jsonl")
    with open(journal_path, encoding="utf-8") as handle:
        lines = handle.readlines()
    with open(journal_path, "w", encoding="utf-8") as handle:
        handle.writelines(lines[:2])
    resumed = _chunked(
        pipeline, fields, workers=2, executor="process", checkpoint=ck, resume=True,
        max_task_retries=1, chaos=ChaosInjector.from_spec("raise@3:all"),
    )
    assert resumed.extra["checkpoint"]["replayed_chunks"] == 2
    assert resumed.extra["supervision"]["quarantined"] == [3]
    kept = slice(0, 3 * _ROWS)
    assert np.array_equal(resumed.outputs[kept], serial.outputs[kept])


def test_pipeline_resume_tolerates_torn_journal_tail(chunked_setup, tmp_path):
    pipeline, fields, _ = chunked_setup
    ck = str(tmp_path / "ck")
    full = _chunked(pipeline, fields, workers=1, checkpoint=ck)
    journal_path = os.path.join(ck, "journal.jsonl")
    with open(journal_path, "ab") as handle:
        handle.write(b'{"chunk": 3, "artifact": "chu')  # writer died mid-append
    resumed = _chunked(pipeline, fields, workers=1, checkpoint=ck, resume=True)
    assert resumed.extra["checkpoint"]["replayed_chunks"] == 4
    assert np.array_equal(resumed.outputs, full.outputs)


def test_a_chunk_recorded_after_a_torn_journal_line_replays(tmp_path):
    """A run killed mid-append leaves a torn line; the resumed run's next
    record starts on a line of its own, so a second resume replays that
    chunk and every later one instead of losing it to the torn bytes or
    failing on them."""
    manifest = {"fingerprint": {"codec": "test"}, "chunk_digests": ["d0", "d1", "d2"]}
    journal = CheckpointJournal(str(tmp_path))
    journal.begin(manifest)
    journal.record(0, blob_bytes=b"blob-0", entry={"input_digest": "d0"})
    with open(journal.journal_path, "ab") as handle:
        handle.write(b'{"chunk": 1, "artifact": "chu')  # writer died mid-append
    resumed = CheckpointJournal(str(tmp_path))
    assert set(resumed.begin(manifest, resume=True)) == {0}
    resumed.record(1, blob_bytes=b"blob-1", entry={"input_digest": "d1"})
    assert set(CheckpointJournal(str(tmp_path)).begin(manifest, resume=True)) == {0, 1}
    resumed.record(2, blob_bytes=b"blob-2", entry={"input_digest": "d2"})
    completed = CheckpointJournal(str(tmp_path)).begin(manifest, resume=True)
    assert set(completed) == {0, 1, 2}
    assert [resumed.load(completed[i]) for i in range(3)] == [b"blob-0", b"blob-1", b"blob-2"]


def test_pipeline_resume_rejects_different_plan(chunked_setup, tmp_path):
    pipeline, fields, _ = chunked_setup
    ck = str(tmp_path / "ck")
    _chunked(pipeline, fields, workers=1, checkpoint=ck)
    planner = TolerancePlanner(ErrorFlowAnalyzer(pipeline.model))
    other_plan = planner.plan(1e-3, norm="linf", quant_fraction=0.5)
    other = InferencePipeline(pipeline.model, SZCompressor(), other_plan)
    with pytest.raises(IntegrityError, match="different run"):
        _chunked(other, fields, workers=1, checkpoint=ck, resume=True)


def test_pipeline_resume_requires_checkpoint(chunked_setup):
    pipeline, fields, _ = chunked_setup
    with pytest.raises(ConfigurationError, match="checkpoint"):
        _chunked(pipeline, fields, workers=1, resume=True)


# -- resume is bit-identical at every kill point ----------------------------


@pytest.fixture(scope="module")
def baseline_checkpoint(chunked_setup, tmp_path_factory):
    """One uninterrupted checkpointed run with auditing: the oracle —
    plus the same run journaled by pool workers (each commits its own
    chunks, so the lines land in completion order)."""
    pipeline, fields, _ = chunked_setup
    ck = str(tmp_path_factory.mktemp("baseline") / "ck")
    with audit_capture() as auditor:
        full = _chunked(pipeline, fields, workers=1, checkpoint=ck)
        verdicts = [record.verdict for record in auditor.records]
    pool_ck = str(tmp_path_factory.mktemp("baseline-pool") / "ck")
    with audit_capture():
        _chunked(pipeline, fields, workers=2, executor="process", checkpoint=pool_ck)
    return {"serial": ck, "pool": pool_ck}, full, verdicts


@settings(max_examples=12, deadline=None)
@given(
    kill_point=st.integers(min_value=0, max_value=4),
    torn=st.booleans(),
    writer=st.sampled_from(["serial", "pool"]),
)
def test_resume_bit_identical_across_kill_points(
    chunked_setup, baseline_checkpoint, kill_point, torn, writer
):
    """Property: for every prefix of the journal (any kill point, with or
    without a torn trailing line), whether the parent or the pool
    workers wrote it, the resumed run reproduces the uninterrupted run
    bit-for-bit — same outputs, same per-chunk audit verdicts."""
    pipeline, fields, _ = chunked_setup
    baselines, full, full_verdicts = baseline_checkpoint
    with tempfile.TemporaryDirectory() as scratch:
        ck = os.path.join(scratch, "ck")
        shutil.copytree(baselines[writer], ck)
        journal_path = os.path.join(ck, "journal.jsonl")
        with open(journal_path, encoding="utf-8") as handle:
            lines = handle.readlines()
        with open(journal_path, "w", encoding="utf-8") as handle:
            handle.writelines(lines[:kill_point])
            if torn:
                handle.write('{"chunk": 9, "artifact": "chunk')  # mid-append kill
        with audit_capture() as auditor:
            resumed = _chunked(pipeline, fields, workers=1, checkpoint=ck, resume=True)
            verdicts = [record.verdict for record in auditor.records]
    assert resumed.extra["checkpoint"]["replayed_chunks"] == kill_point
    assert np.array_equal(resumed.outputs, full.outputs)
    assert np.array_equal(resumed.reference_outputs, full.reference_outputs)
    if writer == "serial":
        assert verdicts == full_verdicts  # same per-chunk audit decisions
    else:  # replayed-then-computed order follows the pool's completion order
        assert sorted(verdicts) == sorted(full_verdicts)


def _comparable_runs(path):
    """A registry's records, run ids and creation times aside, in a
    canonical order (a pool registers chunks as they complete)."""
    return sorted(
        json.dumps({k: v for k, v in run.items() if k not in ("run_id", "created_unix")},
                   sort_keys=True)
        for run in RunRegistry(path).runs()
    )


@pytest.mark.parametrize("writer", ["serial", "pool"])
def test_resume_re_audits_every_replayed_chunk(chunked_setup, tmp_path, monkeypatch, writer):
    """The audit is re-derived as the certificate is: a journal line
    carries no ``AuditRecord``, and one forged into a line (a violation with
    tightness 123 and no layers) never reaches the registry.  Resumed
    from a journal the parent or the pool workers wrote, the run registers
    the uninterrupted run's records field for field, each from one
    recorder pass per replayed chunk."""
    pipeline, fields, _ = chunked_setup
    with audit_capture(registry=str(tmp_path / "full.jsonl")):
        _chunked(pipeline, fields, workers=1)
    ck = str(tmp_path / "ck")
    with audit_capture(registry=str(tmp_path / "written.jsonl")):
        if writer == "serial":
            _chunked(pipeline, fields, workers=1, checkpoint=ck)
        else:
            _chunked(pipeline, fields, workers=2, executor="process", checkpoint=ck)
    full = _comparable_runs(str(tmp_path / "full.jsonl"))
    assert len(full) == 4 and _comparable_runs(str(tmp_path / "written.jsonl")) == full
    entries = CheckpointJournal(ck).entries()
    assert not any("audit" in entry for entry in entries)
    forged = dict(json.loads(full[0]), verdict="VIOLATION", qoi_tightness=123.0, layers=[])
    _rewrite_journal(ck, [dict(entries[0], audit=forged), *entries[1:]])

    passes = []
    real_audit = LayerwiseErrorRecorder.audit
    monkeypatch.setattr(
        LayerwiseErrorRecorder, "audit",
        lambda self, *args, **kw: passes.append(1) or real_audit(self, *args, **kw),
    )
    with audit_capture(registry=str(tmp_path / "resumed.jsonl")) as auditor:
        resumed = _chunked(pipeline, fields, workers=1, checkpoint=ck, resume=True)
    assert resumed.extra["checkpoint"]["replayed_chunks"] == 4
    assert len(passes) == 4
    assert 123.0 not in [record.qoi_tightness for record in auditor.records]
    assert _comparable_runs(str(tmp_path / "resumed.jsonl")) == full


# -- worker-side commit under faults -----------------------------------------


def _journal_lines(ck, chunk):
    return [e for e in CheckpointJournal(ck).entries() if e["chunk"] == chunk]


def _resume_all(pipeline, fields, ck):
    resumed = _chunked(pipeline, fields, workers=1, checkpoint=ck, resume=True)
    assert resumed.extra["checkpoint"]["replayed_chunks"] == 4
    return resumed


def test_worker_commit_never_journals_a_corrupt_result(chunked_setup, tmp_path):
    """chaos ``corrupt`` fires before the worker's commit: the commit
    screens what it is about to make durable, so the poisoned attempt
    fails in the worker and only the retry reaches the journal."""
    pipeline, fields, serial = chunked_setup
    ck = str(tmp_path / "ck")
    result = _chunked(
        pipeline, fields, workers=2, executor="process", checkpoint=ck,
        chaos=ChaosInjector.from_spec("corrupt@1"),
    )
    assert result.extra["supervision"]["retries"] == 1
    assert np.array_equal(result.outputs, serial.outputs)
    assert [e["attempts"] for e in _journal_lines(ck, 1)] == [2]
    assert np.array_equal(_resume_all(pipeline, fields, ck).outputs, serial.outputs)


def test_result_corrupted_after_commit_is_rejected_and_retry_replays(
    chunked_setup, tmp_path, monkeypatch
):
    """A result poisoned between the worker's commit and the parent (the
    queue, here a patched commit) is caught by the parent's re-screen
    and retried; of the two journal lines the retry's is replayed."""
    pipeline, fields, serial = chunked_setup
    real_commit = ChunkRun.commit

    def commit_then_poison(self, journal, index, result, attempts=1, **kw):
        entry = real_commit(self, journal, index, result, attempts, **kw)
        if index == 1 and attempts == 1:
            result.outputs = corrupt_result(result.outputs)
        return entry

    monkeypatch.setattr(ChunkRun, "commit", commit_then_poison)
    ck = str(tmp_path / "ck")
    result = _chunked(pipeline, fields, workers=2, executor="process", checkpoint=ck)
    assert result.extra["supervision"]["retries"] == 1
    assert np.array_equal(result.outputs, serial.outputs)
    assert [e["attempts"] for e in _journal_lines(ck, 1)] == [1, 2]
    monkeypatch.undo()
    manifest = ChunkRun(pipeline, fields, 8, chunk_axis=1).manifest
    assert CheckpointJournal(ck).begin(manifest, resume=True)[1]["attempts"] == 2
    assert np.array_equal(_resume_all(pipeline, fields, ck).outputs, serial.outputs)


def test_more_committing_workers_than_cores_keep_the_journal_whole(chunked_setup, tmp_path):
    """Stress: every worker appends to one journal file.  With more
    workers than cores and 2-row chunks the appends interleave freely;
    whole lines, one per chunk, each verifiable, must come out."""
    pipeline, fields, _ = chunked_setup
    serial = pipeline.execute_chunked(fields, chunk_size=2, chunk_axis=1, workers=1)
    ck = str(tmp_path / "ck")
    workers = 2 * (os.cpu_count() or 1) + 1
    result = pipeline.execute_chunked(
        fields, chunk_size=2, chunk_axis=1, workers=workers, executor="process",
        checkpoint=ck, task_timeout=60.0,
    )
    assert np.array_equal(result.outputs, serial.outputs)
    entries = CheckpointJournal(ck).entries()  # raises on a torn line mid-file
    assert sorted(entry["chunk"] for entry in entries) == list(range(16))
    resumed = pipeline.execute_chunked(
        fields, chunk_size=2, chunk_axis=1, workers=1, checkpoint=ck, resume=True
    )
    assert resumed.extra["checkpoint"]["replayed_chunks"] == 16
    assert np.array_equal(resumed.outputs, serial.outputs)


def test_recommitted_chunk_replays_the_overwriting_commit(tmp_path):
    """Two commits of one chunk with different bytes: the artifact path
    is overwritten, so the stale line's digest no longer verifies."""
    journal = CheckpointJournal(str(tmp_path / "ck"))
    data = np.arange(8, dtype=np.float32)
    manifest = {"fingerprint": {}, "chunk_digests": [digest_array(data)]}
    journal.begin(manifest)
    input_digest = digest_array(data)
    stale = journal.record(
        0, blob_bytes=b"stale", entry={"attempts": 1, "input_digest": input_digest},
    )
    fresh = journal.record(
        0, blob_bytes=b"fresh", entry={"attempts": 2, "input_digest": input_digest}
    )
    assert stale["artifact"] == fresh["artifact"]
    assert stale["artifact_digest"] != fresh["artifact_digest"]
    completed = CheckpointJournal(str(tmp_path / "ck")).begin(manifest, resume=True)
    assert completed[0]["attempts"] == 2
    assert journal.load(completed[0]) == b"fresh"


# -- journal replay trusts no line -------------------------------------------


def _two_chunk_journal(tmp_path):
    """A committed two-chunk checkpoint: its path, manifest and lines."""
    ck = str(tmp_path / "ck")
    chunks = [np.arange(8, dtype=np.float32) + offset for offset in (0, 8)]
    manifest = {"fingerprint": {}, "chunk_digests": [digest_array(c) for c in chunks]}
    journal = CheckpointJournal(ck)
    journal.begin(manifest)
    for index, chunk in enumerate(chunks):
        journal.record(
            index, blob_bytes=chunk.tobytes(), entry={"input_digest": digest_array(chunk)}
        )
    return ck, manifest, journal.entries()


def _rewrite_journal(ck, lines):
    with open(os.path.join(ck, "journal.jsonl"), "w", encoding="utf-8") as handle:
        handle.writelines(json.dumps(line) + "\n" for line in lines)


def _replayed(ck, manifest):
    return set(CheckpointJournal(ck).begin(manifest, resume=True))


def test_replay_drops_a_journal_line_that_is_not_an_object(tmp_path):
    ck, manifest, (first, second) = _two_chunk_journal(tmp_path)
    _rewrite_journal(ck, [[first], second])
    assert _replayed(ck, manifest) == {1}


def test_replay_drops_a_line_whose_artifact_is_not_a_path(tmp_path):
    ck, manifest, (first, second) = _two_chunk_journal(tmp_path)
    _rewrite_journal(ck, [dict(first, artifact=0), second])
    assert _replayed(ck, manifest) == {1}


def test_replay_never_reads_an_artifact_outside_the_checkpoint(tmp_path):
    """A line naming an absolute path, with the digest of what is there:
    replay reads only ``chunks/chunk-0000.rblob``, so the line is dropped."""
    ck, manifest, (first, second) = _two_chunk_journal(tmp_path)
    forged = b"forged blob bytes"
    elsewhere = tmp_path / "elsewhere.rblob"
    elsewhere.write_bytes(forged)
    _rewrite_journal(ck, [
        dict(first, artifact=str(elsewhere), artifact_digest=digest_bytes(forged)),
        second,
    ])
    assert _replayed(ck, manifest) == {1}


def test_replay_drops_an_entry_without_input_digest(tmp_path):
    """Chunk 0's line relabelled as chunk 1 with no input digest must not
    replay chunk 0's artifact as chunk 1's; the distributed coordinator
    refuses the same result on the wire."""
    ck, manifest, (first, _) = _two_chunk_journal(tmp_path)
    stolen = dict(first, chunk=1)
    del stolen["input_digest"]
    _rewrite_journal(ck, [first, stolen])
    assert _replayed(ck, manifest) == {0}


_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 5), st.floats(allow_nan=False),
    st.text(max_size=12), st.sampled_from(["/etc/hostname", "chunks/chunk-0000.rblob", "../ck"]),
    st.lists(st.integers(0, 3), max_size=2),
)


@settings(max_examples=25, deadline=None)
@given(
    line=st.integers(0, 3),
    key=st.sampled_from(["chunk", "artifact", "artifact_digest", "input_digest", None]),
    value=st.one_of(_JSON_VALUES, st.just("<delete>"), st.just("<other line>")),
)
# the last line names the first line's digest, whose bytes replay has
# already verified: they belong to chunk 0 and must not replay as chunk 3
@example(line=3, key="artifact_digest", value="<other line>")
def test_resume_survives_any_mutation_of_one_journal_line(
    chunked_setup, baseline_checkpoint, line, key, value
):
    """Property: rewrite one identity field of one line of a real run's
    journal (or the whole line, ``key=None``) to any JSON value, delete
    it, or copy it from another line.  Resume never crashes, a changed
    line's chunk is recomputed, and the outputs are the uninterrupted
    run's bit for bit."""
    pipeline, fields, _ = chunked_setup
    baselines, full, _ = baseline_checkpoint
    with tempfile.TemporaryDirectory() as scratch:
        ck = os.path.join(scratch, "ck")
        shutil.copytree(baselines["serial"], ck)
        entries = CheckpointJournal(ck).entries()
        original = json.dumps(entries[line], sort_keys=True)
        other = entries[(line + 1) % len(entries)]
        if key is None:
            entries[line] = other if value == "<other line>" else value
        elif value == "<delete>":
            del entries[line][key]
        else:
            entries[line][key] = other[key] if value == "<other line>" else value
        _rewrite_journal(ck, entries)
        changed = json.dumps(entries[line], sort_keys=True) != original
        resumed = _chunked(pipeline, fields, workers=1, checkpoint=ck, resume=True)
    assert resumed.extra["checkpoint"]["replayed_chunks"] == (3 if changed else 4)
    assert np.array_equal(resumed.outputs, full.outputs)
    assert np.array_equal(resumed.reference_outputs, full.reference_outputs)


def test_replay_cross_checks_the_journaled_qoi_error(chunked_setup, tmp_path):
    """The artifact stores the blob alone; replay decodes it, recomputes
    both outputs from it and the digest-pinned input chunk, and the
    certificate they give must be the one the journal line certifies."""
    pipeline, fields, serial = chunked_setup
    ck = str(tmp_path / "ck")
    _chunked(pipeline, fields, workers=1, checkpoint=ck)
    assert sorted(os.listdir(os.path.join(ck, "chunks"))) == [
        f"chunk-{index:04d}.rblob" for index in range(4)
    ]
    with open(os.path.join(ck, "chunks", "chunk-0002.rblob"), "rb") as handle:
        data = handle.read()
    assert blob_to_bytes(blob_from_bytes(data)) == data
    resumed = _resume_all(pipeline, fields, ck)
    assert np.array_equal(resumed.outputs, serial.outputs)
    assert np.array_equal(resumed.reference_outputs, serial.reference_outputs)
    assert resumed.certificate == serial.certificate

    entries = CheckpointJournal(ck).entries()
    entries[2]["certificate"]["qoi_error"] *= 0.5  # a rosier certificate than was earned
    _rewrite_journal(ck, entries)
    with pytest.raises(IntegrityError, match="chunk 2 replays with certificate"):
        _chunked(pipeline, fields, workers=1, checkpoint=ck, resume=True)


_CERTIFICATE_FIELDS = (
    "norm", "qoi_tolerance", "fmt", "quant_bound", "input_tolerance", "codec_tolerance",
    "qoi_error", "input_error_linf", "input_error_l2_max", "codec_error",
)


def _rewrites(name, value):
    """For one certificate field: a well-formed value the run did not earn,
    then values no certificate may hold."""
    if name == "norm":
        return ["l2", "L2", None]
    if name == "fmt":
        return ["int8", "", 16]
    # 1e-3 is far outside the replay's round-off slack
    return [value + 1e-3, value * 0.5 if value else 1e-3, -value - 1.0, float("nan"),
            float("inf"), str(value), 1, None, True]


@pytest.mark.parametrize("name", [*_CERTIFICATE_FIELDS, "<missing>", "<extra>"])
def test_resume_refuses_any_rewrite_of_a_journaled_certificate(
    chunked_setup, baseline_checkpoint, name
):
    """Per-field fuzz over a real journal: rewrite one field of line 2's
    certificate (or drop one, or add one) and the resumed run raises
    :class:`IntegrityError` naming that chunk, rather than adopting a
    certificate the blob does not earn."""
    pipeline, fields, _ = chunked_setup
    baselines, _, _ = baseline_checkpoint
    entries = CheckpointJournal(baselines["serial"]).entries()
    assert [entry["chunk"] for entry in entries] == [0, 1, 2, 3]
    certificate = entries[2]["certificate"]
    if name == "<missing>":
        variants = [{k: v for k, v in certificate.items() if k != field}
                    for field in _CERTIFICATE_FIELDS]
    elif name == "<extra>":
        variants = [dict(certificate, margin=0.0), dict(certificate, kind="verified")]
    else:
        variants = [dict(certificate, **{name: value})
                    for value in _rewrites(name, certificate[name])]
    for variant in variants:
        with tempfile.TemporaryDirectory() as scratch:
            ck = os.path.join(scratch, "ck")
            shutil.copytree(baselines["serial"], ck)
            _rewrite_journal(ck, [*entries[:2], dict(entries[2], certificate=variant), entries[3]])
            with pytest.raises(IntegrityError, match="certificate"):
                _chunked(pipeline, fields, workers=1, checkpoint=ck, resume=True)


def test_v1_checkpoint_directory_is_refused(chunked_setup, tmp_path):
    import json

    pipeline, fields, _ = chunked_setup
    ck = str(tmp_path / "ck")
    _chunked(pipeline, fields, workers=1, checkpoint=ck)
    manifest_path = os.path.join(ck, "manifest.json")
    with open(manifest_path, encoding="utf-8") as handle:
        manifest = json.load(handle)
    assert manifest["format_version"] == 6
    manifest["format_version"] = 1
    with open(manifest_path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    with pytest.raises(IntegrityError, match="format version"):
        _chunked(pipeline, fields, workers=1, checkpoint=ck, resume=True)


#: a checkpoint directory as the format-2 writer left it: one chunk of
#: ``np.arange(4, dtype=np.float32)`` whose npz artifact held the chunk's
#: outputs beside a four-byte blob
_V2_CHECKPOINT = {
    "manifest.json": (
        "ewogICJjaHVua19kaWdlc3RzIjogWwogICAgIjZmZDIzMmI1N2YzZTlmYzVhYjg0MGI1M2ExMzllZWMxIgogIF0s"
        "CiAgImZpbmdlcnByaW50IjogewogICAgInBsYW4iOiAidjIiCiAgfSwKICAiZm9ybWF0X3ZlcnNpb24iOiAyCn0K"
    ),
    "journal.jsonl": (
        "eyJhcnRpZmFjdCI6ICJjaHVua3MvY2h1bmstMDAwMC5ucHoiLCAiYXJ0aWZhY3RfZGlnZXN0IjogIjgzMTMzMDYz"
        "NDI1MGI5MWExYmY0NWE1YTJhNDU3NGEwIiwgImNodW5rIjogMCwgImlucHV0X2RpZ2VzdCI6ICI2ZmQyMzJiNTdm"
        "M2U5ZmM1YWI4NDBiNTNhMTM5ZWVjMSJ9Cg=="
    ),
    "chunks/chunk-0000.npz": (
        "UEsDBC0AAAAAAAAAIQBSMxP7//////////8LABQAb3V0cHV0cy5ucHkBABAAkAAAAAAAAACQAAAAAAAAAJNOVU1Q"
        "WQEAdgB7J2Rlc2NyJzogJzxmNCcsICdmb3J0cmFuX29yZGVyJzogRmFsc2UsICdzaGFwZSc6ICg0LCksIH0gICAg"
        "ICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAKAAAAAAAA"
        "gD8AAABAAABAQFBLAwQtAAAAAAAAACEA+yAYY///////////CAAUAGJsb2IubnB5AQAQAIQAAAAAAAAAhAAAAAAA"
        "AACTTlVNUFkBAHYAeydkZXNjcic6ICd8dTEnLCAnZm9ydHJhbl9vcmRlcic6IEZhbHNlLCAnc2hhcGUnOiAoNCwp"
        "LCB9ICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgICAgCmJs"
        "b2JQSwECLQMtAAAAAAAAACEAUjMT+5AAAACQAAAACwAAAAAAAAAAAAAAgAEAAAAAb3V0cHV0cy5ucHlQSwECLQMt"
        "AAAAAAAAACEA+yAYY4QAAACEAAAACAAAAAAAAAAAAAAAgAHNAAAAYmxvYi5ucHlQSwUGAAAAAAIAAgBvAAAAiwEA"
        "AAAA"
    ),
}


#: a checkpoint directory as the format-3 writer left it: one chunk of
#: ``np.arange(4, dtype=np.float32)`` whose journal line held loose error
#: keys and an integrity dict where a format-4 line holds a certificate
_V3_CHECKPOINT = {
    "manifest.json": (
        "ewogICJjaHVua19kaWdlc3RzIjogWwogICAgIjZmZDIzMmI1N2YzZTlmYzVhYjg0MGI1M2ExMzllZWMxIgogIF0s"
        "CiAgImZpbmdlcnByaW50IjogewogICAgInBsYW4iOiAidjMiCiAgfSwKICAiZm9ybWF0X3ZlcnNpb24iOiAzCn0K"
    ),
    "journal.jsonl": (
        "eyJhcnRpZmFjdCI6ICJjaHVua3MvY2h1bmstMDAwMC5yYmxvYiIsICJhcnRpZmFjdF9kaWdlc3QiOiAiOGFlNzg2"
        "OTgxMjBlOTIyZGNmMjhmZGE0NzJjZjA1MmYiLCAiYXR0ZW1wdHMiOiAxLCAiYXVkaXQiOiBudWxsLCAiY2h1bmsi"
        "OiAwLCAiaW5wdXRfZGlnZXN0IjogIjZmZDIzMmI1N2YzZTlmYzVhYjg0MGI1M2ExMzllZWMxIiwgImlucHV0X2Vy"
        "cm9yX2wyX21heCI6IDAuMDEsICJpbnB1dF9lcnJvcl9saW5mIjogMC4wMDUsICJpbnRlZ3JpdHkiOiB7ImRlZ3Jh"
        "ZGVkIjogZmFsc2UsICJzY3JlZW5lZCI6IHRydWV9LCAib2JzZXJ2ZWRfcW9pX2Vycm9yIjogMC4wMDEsICJxdWFy"
        "YW50aW5lZCI6IGZhbHNlLCAidGltaW5ncyI6IHsiY29tcHJlc3MiOiAwLjAsICJkZWNvbXByZXNzIjogMC4wLCAi"
        "aW5mZXJlbmNlIjogMC4wfX0K"
    ),
    "chunks/chunk-0000.rblob": (
        "UkJMQgIAswAAAJejdLJ7ImNvZGVjIjoic3oiLCJzaGFwZSI6WzRdLCJkdHlwZSI6ImZsb2F0MzIiLCJtb2RlIjoi"
        "YWJzIiwidG9sZXJhbmNlIjowLjAxLCJtZXRhZGF0YSI6eyJhbmNob3Jfc3RyaWRlIjo2NCwiZWIiOjAuMDA5OTk4"
        "NTY0NzEwMTUzODEsImludGVycG9sYXRpb24iOiJkeW5hbWljIiwicHJlY2lzaW9uIjoiZmxvYXQzMiJ9fT8Uf6Mg"
        "eoQ/AQAAAAAAAAAGAAAAAAAAAAAAAEhVRjQDAAAABQAAAAAAAAAQAAAwAAAAAGQAAAABAAAAAAAEAAAAAAAQEQAF"
        "WA=="
    ),
}


#: a checkpoint directory as the format-4 writer left it: the format-3
#: chunk, its line holding a certificate beside the audit's record, timings
#: and task seconds a format-5 line drops — the record rewritten to a
#: verdict nobody earned (VIOLATION, tightness 123, no layers)
_V4_CHECKPOINT = {
    "manifest.json": (
        "ewogICJjaHVua19kaWdlc3RzIjogWwogICAgIjZmZDIzMmI1N2YzZTlmYzVhYjg0MGI1M2ExMzllZWMxIgogIF0s"
        "CiAgImZpbmdlcnByaW50IjogewogICAgInBsYW4iOiAidjQiCiAgfSwKICAiZm9ybWF0X3ZlcnNpb24iOiA0Cn0K"
    ),
    "journal.jsonl": (
        "eyJhcnRpZmFjdCI6ICJjaHVua3MvY2h1bmstMDAwMC5yYmxvYiIsICJhcnRpZmFjdF9kaWdlc3QiOiAiOGFlNzg2"
        "OTgxMjBlOTIyZGNmMjhmZGE0NzJjZjA1MmYiLCAiYXR0ZW1wdHMiOiAxLCAiYXVkaXQiOiB7ImNvZGVjIjogInN6"
        "IiwgImNyZWF0ZWRfdW5peCI6IDAuMCwgImZtdCI6ICJmcDE2IiwgImlucHV0X2Vycm9yX2wyIjogMC4wMSwgImlu"
        "cHV0X2Vycm9yX2xpbmYiOiAwLjAwNSwgImlucHV0X3RvbGVyYW5jZSI6IDAuMDEsICJsYWJlbCI6ICIiLCAibGF5"
        "ZXJzIjogW10sICJsYXllcndpc2UiOiB0cnVlLCAibWV0YWRhdGEiOiB7fSwgIm5vcm0iOiAibGluZiIsICJxb2lf"
        "b2JzZXJ2ZWQiOiAwLjAwMSwgInFvaV9wcmVkaWN0ZWQiOiAwLjAwNCwgInFvaV90aWdodG5lc3MiOiAxMjMuMCwg"
        "InFvaV90b2xlcmFuY2UiOiAwLjAxLCAicnVuX2lkIjogInJ1bi0wMDAxIiwgInZlcmRpY3QiOiAiVklPTEFUSU9O"
        "IiwgIndlaWdodF92ZXJzaW9uIjogMX0sICJjZXJ0aWZpY2F0ZSI6IHsiY29kZWNfZXJyb3IiOiAwLjAwNSwgImNv"
        "ZGVjX3RvbGVyYW5jZSI6IDAuMDEsICJmbXQiOiAiZnAxNiIsICJpbnB1dF9lcnJvcl9sMl9tYXgiOiAwLjAxLCAi"
        "aW5wdXRfZXJyb3JfbGluZiI6IDAuMDA1LCAiaW5wdXRfdG9sZXJhbmNlIjogMC4wMSwgIm5vcm0iOiAibGluZiIs"
        "ICJxb2lfZXJyb3IiOiAwLjAwMSwgInFvaV90b2xlcmFuY2UiOiAwLjAxLCAicXVhbnRfYm91bmQiOiAwLjAwMn0s"
        "ICJjaHVuayI6IDAsICJpbnB1dF9kaWdlc3QiOiAiNmZkMjMyYjU3ZjNlOWZjNWFiODQwYjUzYTEzOWVlYzEiLCAi"
        "cXVhcmFudGluZWQiOiBmYWxzZSwgInRhc2tfc2Vjb25kcyI6IDAuMCwgInRpbWluZ3MiOiB7ImNvbXByZXNzIjog"
        "MC4wLCAiZGVjb21wcmVzcyI6IDAuMCwgImluZmVyZW5jZSI6IDAuMH19Cg=="
    ),
    "chunks/chunk-0000.rblob": _V3_CHECKPOINT["chunks/chunk-0000.rblob"],
}


def _refuse_pinned_checkpoint(tmp_path, pinned, version):
    """Resume a pinned directory of format ``version``: refused by an error
    naming both versions, and the refusal leaves it as it was."""
    ck = tmp_path / "ck"
    for name, text in pinned.items():
        (ck / name).parent.mkdir(parents=True, exist_ok=True)
        (ck / name).write_bytes(base64.b64decode(text))
    data = np.arange(4, dtype=np.float32)
    manifest = {"fingerprint": {"plan": f"v{version}"}, "chunk_digests": [digest_array(data)]}
    with pytest.raises(IntegrityError, match=f"format version {version} does not match 6"):
        CheckpointJournal(str(ck)).begin(manifest, resume=True)
    for name, text in pinned.items():
        assert (ck / name).read_bytes() == base64.b64decode(text)


def test_v2_checkpoint_directory_is_refused(tmp_path):
    """A pinned format-2 directory, whose artifact kept the outputs in an npz."""
    _refuse_pinned_checkpoint(tmp_path, _V2_CHECKPOINT, 2)


def test_v3_checkpoint_directory_is_refused(tmp_path):
    """A pinned format-3 directory, whose journal line held no certificate."""
    _refuse_pinned_checkpoint(tmp_path, _V3_CHECKPOINT, 3)


def test_v4_checkpoint_with_a_tampered_audit_is_refused(tmp_path):
    """Its lines carry an ``AuditRecord`` that replay would have adopted."""
    line = json.loads(base64.b64decode(_V4_CHECKPOINT["journal.jsonl"]))
    assert line["audit"]["verdict"] == "VIOLATION" and line["audit"]["layers"] == []
    _refuse_pinned_checkpoint(tmp_path, _V4_CHECKPOINT, 4)


def test_v5_checkpoint_directory_is_refused(tmp_path):
    """A format-5 directory: the format-4 line less its audit, timings and
    task seconds.  Its writer certified an image sample's input L2 error
    per pixel, so its certificates cannot be replayed against this one's."""
    line = json.loads(base64.b64decode(_V4_CHECKPOINT["journal.jsonl"]))
    line = {key: line[key] for key in (
        "input_digest", "attempts", "quarantined", "certificate", "chunk", "artifact",
        "artifact_digest",
    )}
    manifest = json.loads(base64.b64decode(_V4_CHECKPOINT["manifest.json"]))
    manifest.update(fingerprint={"plan": "v5"}, format_version=5)
    encoded = {
        "manifest.json": json.dumps(manifest), "journal.jsonl": json.dumps(line) + "\n",
    }
    pinned = {name: base64.b64encode(text.encode()).decode() for name, text in encoded.items()}
    pinned["chunks/chunk-0000.rblob"] = _V4_CHECKPOINT["chunks/chunk-0000.rblob"]
    _refuse_pinned_checkpoint(tmp_path, pinned, 5)


@pytest.mark.parametrize("writer, reader", [("fused", "reference"), ("reference", "fused")])
def test_a_journal_resumes_on_the_other_backend(chunked_setup, tmp_path, writer, reader):
    """One computation in two modes: a journal the ``writer`` backend wrote
    replays on the ``reader`` backend.  Replay recomputes the outputs
    there, so the resumed run is the reader's uninterrupted run bit for
    bit, and each chunk's certificate is the journaled one within the
    replay slack."""
    pipeline, fields, _ = chunked_setup

    def on(backend):
        return InferencePipeline(pipeline.model, pipeline.codec, pipeline.plan, backend=backend)

    ck = str(tmp_path / "ck")
    _chunked(on(writer), fields, workers=1, checkpoint=ck)
    reading = on(reader)
    oracle = _chunked(reading, fields, workers=1)
    resumed = _resume_all(reading, fields, ck)
    assert np.array_equal(resumed.outputs, oracle.outputs)
    assert np.array_equal(resumed.reference_outputs, oracle.reference_outputs)
    rows = len(resumed.outputs) // 4
    for entry in CheckpointJournal(ck).entries():
        chunk = slice(rows * entry["chunk"], rows * (entry["chunk"] + 1))
        reference = resumed.reference_outputs[chunk]
        observed = float(np.abs(resumed.outputs[chunk] - reference).max())
        slack = 1e-5 * max(1.0, float(np.abs(reference).max()))
        assert abs(observed - entry["certificate"]["qoi_error"]) <= slack
        assert observed <= pipeline.plan.qoi_tolerance


@pytest.mark.parametrize("resealed", [False, True])
@settings(max_examples=40, deadline=None)
@given(chunk=st.integers(0, 3), data=st.data())
def test_a_damaged_artifact_is_never_adopted(
    chunked_setup, baseline_checkpoint, resealed, chunk, data
):
    """Property: flip any bit of one chunk's artifact or cut it anywhere.
    As journaled, its line no longer verifies, so that chunk is recomputed
    and the resumed run is the uninterrupted one bit for bit.  With the
    line's digest rewritten to the damaged bytes (a writer that journaled
    bad bytes) the blob's CRC32 and length checks, the decoder and the QoI
    cross-check stand behind the digest: resume either refuses with a
    typed error or replays the uninterrupted run bit for bit — it never
    adopts a different result."""
    pipeline, fields, _ = chunked_setup
    baselines, full, _ = baseline_checkpoint
    with tempfile.TemporaryDirectory() as scratch:
        ck = os.path.join(scratch, "ck")
        shutil.copytree(baselines["serial"], ck)
        path = os.path.join(ck, "chunks", f"chunk-{chunk:04d}.rblob")
        with open(path, "rb") as handle:
            raw = handle.read()
        if data.draw(st.booleans(), label="truncate"):
            damaged = truncate(raw, data.draw(st.integers(0, len(raw) - 1), label="length"))
        else:
            damaged = flip_bit(raw, data.draw(st.integers(0, 8 * len(raw) - 1), label="bit"))
        with open(path, "wb") as handle:
            handle.write(damaged)
        if resealed:
            entries = CheckpointJournal(ck).entries()
            for entry in entries:
                if entry["chunk"] == chunk:
                    entry["artifact_digest"] = digest_bytes(damaged)
            _rewrite_journal(ck, entries)
        try:
            resumed = _chunked(pipeline, fields, workers=1, checkpoint=ck, resume=True)
        except ReproError:
            if resealed:
                return
            raise
    if not resealed:
        assert resumed.extra["checkpoint"]["replayed_chunks"] == 3
    assert np.array_equal(resumed.outputs, full.outputs)
    assert np.array_equal(resumed.reference_outputs, full.reference_outputs)


def test_digests_are_pinned():
    """The commit path hashes views, not copies; the values must not move."""
    data = np.arange(12, dtype=np.float32).reshape(3, 4)
    assert digest_array(data) == "0b42a916719a536a67971ee5c7178489"
    assert digest_array(data[:, ::2]) == digest_array(np.ascontiguousarray(data[:, ::2]))
    assert digest_bytes(b"abc") == "cf4ab791c62b8d2b2109c90275287816"


# -- hard-kill end-to-end: a really killed process resumes ------------------

_KILL_SCRIPT = textwrap.dedent(
    """
    import json, os, signal, sys, threading, time

    import numpy as np

    from repro.compress.sz import SZCompressor
    from repro.core.errorflow import ErrorFlowAnalyzer
    from repro.core.pipeline import InferencePipeline
    from repro.core.planner import TolerancePlanner
    from repro.nn import Identity, SpectralLinear, Sequential, Tanh

    mode, checkpoint, out_path = sys.argv[1], sys.argv[2], sys.argv[3]

    rng = np.random.default_rng(3)
    model = Sequential(
        SpectralLinear(5, 16, rng=rng, alpha_init=1.2), Tanh(),
        SpectralLinear(16, 3, rng=rng, alpha_init=1.2), Identity(),
    )
    model.eval()
    x = np.linspace(0, 2 * np.pi, 48)
    xx, yy = np.meshgrid(x, x)
    fields = np.stack(
        [np.sin((i + 1) * xx) * np.cos(yy) * 0.8 for i in range(5)]
    ).astype(np.float32)
    plan = TolerancePlanner(ErrorFlowAnalyzer(model)).plan(
        1e-2, norm="linf", quant_fraction=0.5
    )
    pipeline = InferencePipeline(model, SZCompressor(), plan)

    if mode == "killed":
        journal = os.path.join(checkpoint, "journal.jsonl")

        def assassin():
            while True:
                try:
                    with open(journal, "rb") as handle:
                        complete = handle.read().count(b"\\n")
                except OSError:
                    complete = 0
                if complete >= 2:
                    os.kill(os.getpid(), signal.SIGKILL)
                time.sleep(0.001)

        threading.Thread(target=assassin, daemon=True).start()

    result = pipeline.execute_chunked(
        fields, chunk_size=8, chunk_axis=1, workers=1,
        checkpoint=checkpoint, resume=(mode == "resume"),
    )
    if mode == "killed":
        time.sleep(10)  # the assassin always wins; we never reach save
    np.save(out_path, result.outputs)
    with open(out_path + ".meta.json", "w") as handle:
        json.dump(result.extra["checkpoint"], handle)
    """
)


@pytest.mark.integration
def test_hard_killed_run_resumes_bit_identically(tmp_path):
    """End-to-end: SIGKILL a real checkpointed process mid-run, resume it
    in a fresh process, and get the uninterrupted run's bytes."""
    script = tmp_path / "killable.py"
    script.write_text(_KILL_SCRIPT)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    env.pop(CHAOS_ENV_VAR, None)

    def run(mode, checkpoint, out):
        return subprocess.run(
            [sys.executable, str(script), mode, checkpoint, out],
            env=env, capture_output=True, text=True, timeout=300,
        )

    full = run("full", str(tmp_path / "ck_full"), str(tmp_path / "full.npy"))
    assert full.returncode == 0, full.stderr

    killed = run("killed", str(tmp_path / "ck"), str(tmp_path / "dead.npy"))
    assert killed.returncode == -signal.SIGKILL  # actually died mid-run
    assert not (tmp_path / "dead.npy").exists()
    journal = tmp_path / "ck" / "journal.jsonl"
    assert journal.exists()  # partial progress was durably journaled

    resumed = run("resume", str(tmp_path / "ck"), str(tmp_path / "resumed.npy"))
    assert resumed.returncode == 0, resumed.stderr
    meta = (tmp_path / "resumed.npy.meta.json").read_text()
    assert '"resumed": true' in meta
    assert np.array_equal(
        np.load(tmp_path / "resumed.npy"), np.load(tmp_path / "full.npy")
    )


# -- digest helpers ---------------------------------------------------------


def test_digest_array_distinguishes_views():
    data = np.arange(6, dtype=np.float32)
    assert digest_array(data) != digest_array(data.reshape(2, 3))
    assert digest_array(data) != digest_array(data.astype(np.float64))
    assert digest_array(data) == digest_array(data.copy())


def test_digest_bytes_is_stable():
    assert digest_bytes(b"abc") == digest_bytes(b"abc")
    assert digest_bytes(b"abc") != digest_bytes(b"abd")
