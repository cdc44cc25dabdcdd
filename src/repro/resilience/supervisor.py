"""Supervised process-based worker pool for chunked execution.

Whole chunk executes on threads gained nothing (docs/PERFORMANCE.md,
"Worker pools and chunked execution").  For chunks this module supplies
a pool of **forked worker processes** — true multi-core parallelism,
zero-copy inheritance of the model/chunks at fork time — wrapped in the
supervision a long-running production run needs:

* **pinned workers** — the inherited affinity mask is cut into one
  block of ``len(mask) // workers`` CPUs per slot (one CPU each once the
  pool fills the mask; a pool that does not fill it starts at an offset
  taken from its parent's pid, so pools of different processes spread;
  skipped where ``sched_setaffinity`` is missing): forked children of
  one parent otherwise share the parent's CPU for runs this short;
* **two-deep dispatch** — each worker has one task running and one
  already waiting in its own task pipe (a plain pipe: no feeder thread
  in the parent), so it never idles across done → parent wakes →
  dispatch;
* **synchronous reports** — every worker reports over a pipe of its
  own with a blocking ``send``: a result is in the pipe, whole, before
  the worker takes its next task, so a death in task N+1 cannot tear
  task N's report, and a dead worker reads as end-of-file on its pipe;
* **heartbeats & deadlines** — every worker beats a shared timestamp
  slot from a daemon thread and announces each task with a ``"start"``
  message, the anchor of that task's deadline (a queued task is not on
  the clock); the supervisor kills and replaces workers whose running
  task exceeded its deadline or whose heartbeat went stale;
* **death detection & respawn** — a worker that dies (OOM-kill, crash,
  injected SIGKILL) is detected by end-of-file on its report pipe, a
  failed send on its task pipe or liveness polling, and a fresh worker
  with fresh pipes is forked in
  its place; what the dead worker had fully reported still counts, the
  task its last ``"start"`` named is charged a failed attempt and
  rescheduled, and a task queued behind it never started and is
  re-readied for free;
* **worker-side commit** — an optional ``commit`` callable makes each
  result durable where it was computed, before it is reported (the
  checkpoint journal hook), and an optional ``pack`` then shrinks what
  crosses the pipe (chunk rows go to memory shared with the parent); the
  parent only validates what arrives;
* **bounded retry with backoff** — failed tasks are re-queued under a
  :class:`~repro.resilience.retry.RetryPolicy` (exponential backoff +
  deterministic jitter), never hammered;
* **poison-task quarantine** — a task that keeps failing after its
  retry budget is quarantined instead of sinking the run; the caller
  decides how to degrade it (a chunked run re-runs the chunk losslessly
  in-process);
* **circuit breaker** — ``2 * workers + 1`` worker respawns in one
  :meth:`SupervisedPool.run` trip the breaker: the pool is abandoned and
  every remaining task runs serially in-process, so a sick host degrades
  to slow, never to failed.

Results are checked by an optional ``validate`` hook in the parent *as
tasks complete* and collected into a :class:`SupervisionReport`, whose
summary (retries, respawns, quarantined tasks) the ``supervisor.run``
span carries; a worker's spans ride back with each result and are
adopted under the parent's ``supervisor.task`` span.

Task ids are the caller's own (a chunked run's are chunk indices): the
pool hands each id itself to ``task_fn``, the chaos hooks, ``validate``,
``commit`` and ``pack``, keys its report by it, and exposes results in
id order, so supervised and inline execution assemble identical outputs.
"""

from __future__ import annotations

import heapq
import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing import connection
from typing import Callable

from ..exceptions import ConfigurationError
from ..obs import get_logger, get_tracer
from .retry import RetryPolicy

__all__ = [
    "SupervisedPool",
    "SupervisionReport",
    "TaskOutcome",
    "fork_available",
]

_LOG = get_logger("supervisor")

#: supervisor poll granularity (seconds) — bounds fault-detection latency
_TICK = 0.05

#: worker join grace after the shutdown sentinel before a hard kill
_JOIN_GRACE = 1.0

#: tasks in flight per worker: one running, one already in its pipe, so
#: a worker never idles across done -> parent wakes -> dispatch
_WINDOW = 2

#: period of each worker's heartbeat thread (seconds)
_HEARTBEAT_INTERVAL = 0.1

#: a busy worker whose heartbeat is older than this is frozen (alive but
#: not making progress, e.g. SIGSTOP) and is killed (seconds)
_STALE_AFTER = 30.0


def fork_available() -> bool:
    """Whether fork-based worker processes are supported on this host."""
    try:
        return "fork" in multiprocessing.get_all_start_methods()
    except Exception:  # pragma: no cover - exotic platforms
        return False


@dataclass
class TaskOutcome:
    """Terminal state of one supervised task."""

    task_id: int
    result: object = None
    attempts: int = 1
    quarantined: bool = False
    error: "str | None" = None
    inline: bool = False
    #: what the pool's ``commit`` callable returned for this attempt
    committed: object = None


@dataclass
class SupervisionReport:
    """What one :meth:`SupervisedPool.run` observed and produced."""

    outcomes: "dict[int, TaskOutcome]" = field(default_factory=dict)
    retries: int = 0
    respawns: int = 0
    quarantined: "list[int]" = field(default_factory=list)
    breaker_tripped: bool = False
    workers: int = 0
    executor: str = "process"

    def results(self) -> list:
        """Results in task-id order (``None`` for quarantined tasks)."""
        return [
            self.outcomes[task_id].result
            for task_id in sorted(self.outcomes)
        ]

    def summary(self) -> dict:
        return {
            "executor": self.executor,
            "workers": self.workers,
            "tasks": len(self.outcomes),
            "retries": self.retries,
            "respawns": self.respawns,
            "quarantined": list(self.quarantined),
            "breaker_tripped": self.breaker_tripped,
        }


class _Worker:
    """Parent-side handle: process, its task pipe and report pipe, its
    tasks in flight."""

    __slots__ = ("process", "tasks", "reports", "inflight", "running", "started_at")

    def __init__(self, process, tasks, reports) -> None:
        self.process = process
        self.tasks = tasks
        self.reports = reports
        # task_id -> attempt, for every task sent and not yet reported
        self.inflight: "dict[int, int]" = {}
        # the task the last "start" message named and when it arrived;
        # None between tasks
        self.running: "int | None" = None
        self.started_at: "float | None" = None


class SupervisedPool:
    """Fault-tolerant map over forked worker processes.

    Parameters
    ----------
    task_fn:
        Callable executed as ``task_fn(task_id)`` inside a worker.
        Thanks to fork inheritance it may be a closure over arbitrarily
        heavy state (models, chunk arrays) — nothing is pickled except
        task ids and results.
    workers:
        Pool size; ``<= 1`` (or a fork-less platform) runs every task
        inline in-process — supervision bookkeeping without processes.
    task_timeout:
        Per-task deadline in seconds measured from the worker's
        ``"start"`` message (a task queued behind another is not on the
        clock); expiry kills the worker and reschedules the task.
        ``None`` disables.
    retry:
        Backoff/budget schedule for failed tasks (default
        ``RetryPolicy()``: 2 retries, 50 ms base, 2 s cap, 10% jitter).
    chaos:
        Optional :class:`~repro.resilience.inject.ChaosInjector`
        executed *inside workers* around each task (never inline in the
        parent) — the fault-injection seam the chaos tests and the CI
        chaos-smoke job use.
    validate:
        Optional ``validate(task_id, result)`` called in the parent on
        every completed result; raising treats the result as a task
        failure (corrupt-result detection).
    commit:
        Optional ``commit(task_id, result, attempts)`` run where
        the task ran — inside the worker, after the chaos hooks — to make
        the result durable before it is reported; raising fails the
        attempt.  What it returns rides back to the parent as
        ``TaskOutcome.committed``.
    pack:
        Optional ``pack(task_id, result)`` run inside the worker after
        ``commit``: what it returns is reported in place of ``result``, so
        ``validate`` and ``TaskOutcome.result`` see it.
        Inline execution has no pipe and reports ``result`` itself.
    label:
        Trace and log label for this pool.
    """

    def __init__(
        self,
        task_fn: Callable,
        workers: "int | None" = None,
        *,
        task_timeout: "float | None" = None,
        retry: "RetryPolicy | None" = None,
        chaos=None,
        validate: "Callable | None" = None,
        commit: "Callable | None" = None,
        pack: "Callable | None" = None,
        label: str = "supervised",
    ) -> None:
        from ..perf.parallel import resolve_workers

        self.task_fn = task_fn
        self.workers = resolve_workers(workers)
        if task_timeout is not None and task_timeout <= 0:
            raise ConfigurationError(
                f"task_timeout must be positive, got {task_timeout}"
            )
        self.task_timeout = task_timeout
        self.retry = retry if retry is not None else RetryPolicy()
        self.chaos = chaos
        self.validate = validate
        self.commit = commit
        self.pack = pack
        self.label = label

    # -- public entry point ------------------------------------------------

    def run(self, task_ids) -> SupervisionReport:
        """Execute every task under supervision.

        ``task_ids`` must be distinct; a duplicate is refused with
        :class:`~repro.exceptions.ConfigurationError`.  Returns a
        :class:`SupervisionReport` keyed by task id; quarantined tasks
        appear in ``report.quarantined`` with an errored
        :class:`TaskOutcome`.
        """
        tasks = list(task_ids)
        if len(set(tasks)) != len(tasks):
            raise ConfigurationError(f"task ids must be distinct, got {tasks}")
        report = SupervisionReport(workers=self.workers)
        if not tasks:
            return report
        inline = self.workers <= 1 or not fork_available()
        if inline:
            report.executor = "inline"
            report.workers = 1
        with get_tracer().span(
            "supervisor.run", pool=self.label, tasks=len(tasks), workers=report.workers
        ) as span:
            if inline:
                self._run_inline(tasks, report, {})
            else:
                self._run_supervised(tasks, report)
            span.set(**report.summary())
        return report

    # -- inline (serial / degraded) execution ------------------------------

    def _run_inline(self, task_ids, report, attempts_used) -> None:
        """Serial in-process execution with the same retry/quarantine
        semantics; used for ``workers <= 1`` and after a breaker trip.
        Chaos is never applied here — it models *worker* faults, and the
        parent must survive them."""
        for task_id in task_ids:
            attempt = attempts_used.get(task_id, 0)
            while True:
                attempt += 1
                try:
                    result = self.task_fn(task_id)
                    if self.validate is not None:
                        self.validate(task_id, result)
                    committed = None
                    if self.commit is not None:
                        committed = self.commit(task_id, result, attempt)
                except Exception as exc:
                    error = f"{type(exc).__name__}: {exc}"
                else:
                    report.outcomes[task_id] = TaskOutcome(
                        task_id=task_id, result=result, attempts=attempt, inline=True,
                        committed=committed,
                    )
                    break
                if attempt > self.retry.max_retries:
                    self._quarantine(report, task_id, attempt, error)
                    break
                report.retries += 1
                time.sleep(self.retry.delay(attempt - 1))

    # -- supervised process-pool execution ---------------------------------

    def _run_supervised(self, tasks, report) -> None:
        ctx = multiprocessing.get_context("fork")
        self._heartbeat = ctx.Array("d", self.workers, lock=False)
        workers = {slot: self._spawn(ctx, slot) for slot in range(self.workers)}

        n = len(tasks)
        ready: list = [(0.0, task_id, 0) for task_id in tasks]
        heapq.heapify(ready)
        failures: "dict[int, int]" = {}
        tracer = get_tracer()

        def fail_task(task_id: int, reason: str) -> None:
            failures[task_id] = count = failures.get(task_id, 0) + 1
            if count > self.retry.max_retries:
                self._quarantine(report, task_id, count, reason)
                return
            delay = self.retry.delay(count - 1)
            heapq.heappush(ready, (time.monotonic() + delay, task_id, count))
            report.retries += 1
            _LOG.warning(
                "task failed; retrying with backoff",
                task=task_id, attempt=count, backoff_s=round(delay, 4), reason=reason,
            )

        def receive(slot: int, worker: _Worker, message) -> None:
            kind, task_id = message[:2]
            if kind == "start":
                worker.running, worker.started_at = task_id, time.monotonic()
                return
            # done or error: the task is off this worker's books
            del worker.inflight[task_id]
            worker.running = worker.started_at = None
            if kind == "error":
                fail_task(task_id, message[2])
                return
            result, committed, child_spans, seconds = message[2:]
            try:
                if self.validate is not None:
                    self.validate(task_id, result)
            except Exception as exc:
                fail_task(task_id, f"invalid result: {exc}")
                return
            attempts = failures.get(task_id, 0) + 1
            report.outcomes[task_id] = TaskOutcome(
                task_id=task_id, result=result, attempts=attempts, committed=committed,
            )
            with tracer.span(
                "supervisor.task", pool=self.label, task=task_id,
                attempts=attempts, worker=slot,
            ) as task_span:
                # the wall the worker measured, injected chaos delays
                # included: what straggler analysis wants to see
                task_span.set(worker_seconds=seconds)
            # adopt the child's spans under the task span so the fork
            # boundary disappears from the trace
            if child_spans and tracer.enabled:
                tracer.merge_remote(child_spans, parent=task_span)

        def respawn(slot: int, reason: str) -> None:
            """Replace a dead or condemned worker.  Whatever it fully
            reported first still counts; then only the task its last
            "start" named is charged a failure — one queued behind it
            never started and goes back to the ready heap as it was."""
            if report.breaker_tripped:
                return  # pool already condemned: what is left runs inline
            worker = workers[slot]
            self._kill(worker)
            while True:
                try:
                    if not worker.reports.poll():
                        break
                    message = worker.reports.recv()
                except Exception:
                    break  # end of file, or a report torn by the kill
                receive(slot, worker, message)
            worker.reports.close()
            for task_id, attempt in worker.inflight.items():
                if task_id == worker.running:
                    fail_task(task_id, reason)
                else:
                    heapq.heappush(ready, (0.0, task_id, attempt))
            worker.inflight.clear()
            report.respawns += 1
            if report.respawns >= 2 * self.workers + 1:
                report.breaker_tripped = True
                _LOG.error(
                    "circuit breaker tripped: pool unhealthy, degrading to "
                    "serial in-process execution",
                    respawns=report.respawns, reason=reason,
                )
                return
            _LOG.warning("respawning worker", slot=slot, reason=reason)
            workers[slot] = self._spawn(ctx, slot)

        try:
            next_sweep = 0.0
            # quarantined tasks also land in report.outcomes, so outcome
            # count alone is the terminal-task count
            while len(report.outcomes) < n and not report.breaker_tripped:
                now = time.monotonic()
                # fill every worker one deep before any two deep, so the
                # tail of a run is spread over the pool
                for depth in range(1, _WINDOW + 1):
                    for slot, worker in list(workers.items()):
                        while (
                            ready
                            and ready[0][0] <= now
                            and len(worker.inflight) < depth
                            and worker.process.is_alive()
                        ):
                            __, task_id, attempt = heapq.heappop(ready)
                            worker.inflight[task_id] = attempt
                            try:
                                worker.tasks.send((task_id, attempt))
                            except OSError:  # the death the next sweep would find
                                respawn(slot, "worker died")
                                break

                # wait for worker traffic; a dead worker's pipe reads EOF
                by_pipe = {worker.reports: slot for slot, worker in workers.items()}
                traffic = connection.wait(list(by_pipe), timeout=_TICK)
                for pipe in traffic:
                    slot = by_pipe[pipe]
                    try:
                        message = pipe.recv()
                    except Exception:  # end of file, or an unreadable report
                        respawn(slot, "worker died")
                    else:
                        receive(slot, workers[slot], message)

                # liveness / deadline / heartbeat sweep, once per tick
                now = time.monotonic()
                if traffic and now < next_sweep:
                    continue
                next_sweep = now + _TICK
                for slot, worker in list(workers.items()):
                    if not worker.process.is_alive():
                        respawn(slot, "worker died")
                    elif not worker.inflight:
                        continue
                    elif (
                        self.task_timeout is not None
                        and worker.started_at is not None
                        and now - worker.started_at > self.task_timeout
                    ):
                        respawn(slot, f"deadline expired after {self.task_timeout}s")
                    elif now - self._heartbeat[slot] > _STALE_AFTER:
                        respawn(slot, "heartbeat went stale")
        finally:
            in_flight = sum(len(worker.inflight) for worker in workers.values())
            self._shutdown(workers)

        if report.breaker_tripped:
            remaining = [task_id for task_id in tasks if task_id not in report.outcomes]
            _LOG.warning(
                "executing remaining tasks serially in-process",
                remaining=len(remaining), in_flight=in_flight,
            )
            self._run_inline(remaining, report, dict(failures))

    # -- helpers -----------------------------------------------------------

    def _quarantine(self, report, task_id: int, attempts: int, reason: str) -> None:
        outcome = TaskOutcome(
            task_id=task_id, attempts=attempts, quarantined=True, error=reason
        )
        report.outcomes[task_id] = outcome
        report.quarantined.append(task_id)
        _LOG.error(
            "task quarantined after exhausting its retry budget",
            task=task_id, attempts=attempts, reason=reason,
        )

    def _spawn(self, ctx, slot: int) -> _Worker:
        """Fork a worker with a task pipe and a report pipe of its own:
        a message the previous holder of the slot never consumed must die
        with it, not be run by its replacement as well as by whoever the
        parent rescheduled the task to.  A two-deep window of small task
        tuples never fills a pipe, so ``send`` does not block."""
        self._heartbeat[slot] = time.monotonic()
        task_end, tasks = ctx.Pipe(duplex=False)
        reports, report_end = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=self._worker_main,
            args=(slot, task_end, report_end),
            name=f"{self.label}-{slot}",
            daemon=True,
        )
        with get_tracer().span("supervisor.spawn", pool=self.label, slot=slot):
            process.start()
        # the child holds the only write end of its reports (its death is
        # EOF here) and the only read end of its tasks (a send then raises)
        report_end.close()
        task_end.close()
        return _Worker(process, tasks, reports)

    def _kill(self, worker: _Worker) -> None:
        if worker.process.is_alive():
            worker.process.kill()
        worker.process.join(timeout=_JOIN_GRACE)
        worker.tasks.close()

    def _shutdown(self, workers: "dict[int, _Worker]") -> None:
        with get_tracer().span("supervisor.shutdown", pool=self.label, workers=len(workers)):
            for worker in workers.values():
                if worker.process.is_alive():
                    try:
                        worker.tasks.send(None)
                    except OSError:
                        pass
            deadline = time.monotonic() + _JOIN_GRACE
            for worker in workers.values():
                worker.process.join(timeout=max(0.0, deadline - time.monotonic()))
                self._kill(worker)
                worker.reports.close()

    # -- worker side -------------------------------------------------------

    def _pin(self, slot: int) -> None:
        """Confine this worker to slot ``slot``'s block of the inherited
        affinity mask (see the module docstring); a block wider than one
        CPU leaves room for threaded BLAS inside a task."""
        try:
            cpus = sorted(os.sched_getaffinity(0))
            share = max(1, len(cpus) // self.workers)
            first = slot * share
            if self.workers * share < len(cpus):
                first += os.getppid()
            os.sched_setaffinity(
                0, {cpus[(first + i) % len(cpus)] for i in range(share)}
            )
        except (AttributeError, OSError):
            pass

    def _worker_main(self, slot: int, tasks, reports) -> None:  # pragma: no cover - forked child
        """Forked worker loop: pin, beat, take task, run, commit, report."""
        from ..obs import get_auditor, set_auditor, set_tracer
        from ..obs.trace import Tracer

        self._pin(slot)

        # The child inherits the parent's live observability singletons.
        # The inherited tracer holds parent-owned spans and a shared lock,
        # so it is replaced: with tracing live the child gets its *own*
        # tracer carrying the inherited trace context (the parent's
        # ``supervisor.spawn`` span is still on this thread's stack, so
        # ``inject()`` anchors there), and its finished spans ship back
        # with each result for ``merge_remote`` to adopt under the task's
        # span.  A registry-backed auditor would race the parent on run-id
        # assignment — detach it.
        parent_tracer = get_tracer()
        child_tracer = None
        if parent_tracer.enabled:
            child_tracer = Tracer(remote_context=parent_tracer.inject())
        set_tracer(child_tracer)
        auditor = get_auditor()
        if auditor.enabled:
            set_auditor(auditor.detached())

        heartbeat = self._heartbeat
        stop = threading.Event()

        def beat() -> None:
            while not stop.is_set():
                heartbeat[slot] = time.monotonic()
                stop.wait(_HEARTBEAT_INTERVAL)

        threading.Thread(target=beat, daemon=True, name="heartbeat").start()

        span_cursor = 0
        while True:
            message = tasks.recv()
            if message is None:
                break
            task_id, attempt = message
            # blocking sends: a report is whole in the pipe before this
            # worker can die in a later task
            reports.send(("start", task_id))
            started = time.perf_counter()
            try:
                if self.chaos is not None:
                    self.chaos.before_task(task_id, attempt)
                result = self.task_fn(task_id)
                if self.chaos is not None:
                    result = self.chaos.after_task(task_id, attempt, result)
                seconds = time.perf_counter() - started
                committed = None
                if self.commit is not None:
                    committed = self.commit(task_id, result, attempt + 1)
                if self.pack is not None:
                    result = self.pack(task_id, result)
                spans = []
                if child_tracer is not None:
                    spans, span_cursor = child_tracer.dicts_since(span_cursor)
                reports.send(("done", task_id, result, committed, spans, seconds))
            except BaseException as exc:
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                try:
                    reports.send(("error", task_id, detail))
                except Exception:
                    os._exit(1)
        stop.set()
