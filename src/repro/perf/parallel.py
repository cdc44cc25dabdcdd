"""Worker-pool execution for the chunked I/O and pipeline hot paths.

The heavy kernels (interpolation passes, ``np.packbits``/gathers in the
entropy stage, matmuls in inference) are numpy calls that release the
GIL, so a thread pool overlaps chunk work on multi-core hosts without
any serialization cost for the arrays.

Guarantees:

* **order preservation** — :func:`parallel_map` returns results in the
  order of its inputs regardless of completion order, so parallel and
  serial execution produce identical assembled arrays;
* **fail-fast** — the first task exception propagates to the caller,
  and not-yet-started pending tasks are cancelled instead of running to
  completion (no wasted work, no delayed error surfacing);
* **observability** — each task runs under a ``pool.task`` trace span
  carrying the pool label, item index and worker-thread name (the tracer
  keeps a thread-local span stack, so worker spans become per-task
  roots), and the pool reports ``pool_tasks_total``,
  ``pool_task_seconds``, ``pool_workers`` and ``pool_utilization``
  through the metrics registry.

:class:`SideLane` is the other shape of the same idea: not N tasks over a
pool but one callable run beside its caller, on one kept thread.  The
process has one (:func:`side_lane`): ``InferencePipeline.execute`` hands
it the reference forward, ``FusedKernel`` the upper half of a batch.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Callable, Iterable

from ..obs import get_metrics, get_tracer

__all__ = ["usable_cpus", "resolve_workers", "parallel_map", "WorkerPool", "SideLane", "side_lane"]

#: work on less than this stays on the caller's thread: waking a second
#: CPU plus the GIL hand-offs cost a few-ms, interpreter-bound ``execute``
#: about 0.3 ms (5.9 against 5.6 ms on an 80 KB field, 23.3 against 24.5 ms
#: on a 330 KB one, both through the cheapest model we have, 5 -> 64 -> 1)
LANE_MIN_BYTES = 256 * 1024


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a container or ``taskset`` can grant fewer than the host
    owns), the host's count otherwise."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except (AttributeError, OSError):
        return max(1, os.cpu_count() or 1)


def resolve_workers(workers: int | None) -> int:
    """Normalize a worker-count request.

    ``None`` or ``1`` mean serial execution; ``0`` or negative mean "one
    per usable CPU"; anything else is taken literally.
    """
    if workers is None:
        return 1
    workers = int(workers)
    if workers <= 0:
        return usable_cpus()
    return workers


def _other_cpus() -> "set[int] | None":
    """The caller's affinity mask without the CPU it is running on right
    now (``None`` where Linux's procfs or the mask is missing)."""
    try:
        with open("/proc/thread-self/stat", "rb") as handle:
            here = int(handle.read().rsplit(b")", 1)[1].split()[36])
        return os.sched_getaffinity(0) - {here}
    except (AttributeError, OSError, IndexError, ValueError):
        return None


class SideLane:
    """One long-lived thread that runs a callable *beside* its caller.

    ``with lane.beside(fn) as result:`` starts ``fn`` on the lane thread,
    runs the ``with`` body on the caller's thread and joins before the
    block is left, on an exception included, so nothing is ever orphaned;
    ``result()`` then returns what ``fn`` returned or raises what it
    raised.  The lane is taken without blocking and is free again the
    moment ``fn`` returns, which may be well inside the body: on a
    process confined to one CPU, while another callable is running on the
    lane (a borrow made *by* that callable included), or when the work is
    smaller than :data:`LANE_MIN_BYTES`, ``result`` is ``fn`` itself and
    the call happens inline, after the body.  Both ways the caller writes
    the same two lines.

    The thread is created by the first borrower and kept: between two
    callables it is parked in a queue read holding nothing, so the
    process may fork.  A forked child starts over with a lane of its own
    (the parent's thread does not exist there).

    Each run first confines the lane thread to the caller's affinity mask
    minus the CPU the caller is on: a thread woken by the caller starts
    on the caller's CPU, and the 2-CPU sandbox this was measured on left
    it there, unoverlapped, for the first 6-10 runs of a process (100 ms
    each) before its balancer moved it.  Same cause and same cure as the
    supervised pool's pinned workers.
    """

    def __init__(self, name: str) -> None:
        self._name = name
        self._reset()
        if hasattr(os, "register_at_fork"):
            os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # the executor starts its thread on first submit, not here
        self._executor = ThreadPoolExecutor(max_workers=1, thread_name_prefix=self._name)
        self._free = threading.Lock()

    def _run(self, cpus: "set[int] | None", fn: Callable[[], object]):
        """``fn()`` with the lane thread first confined to ``cpus``."""
        try:
            if cpus:
                try:
                    os.sched_setaffinity(0, cpus)
                except OSError:
                    pass
            return fn()
        finally:
            self._free.release()

    @contextmanager
    def beside(self, fn: Callable[[], object], nbytes: "int | None" = None):
        """Run ``fn()`` next to the ``with`` body; yields its result getter.

        ``nbytes``: the size of what ``fn`` works on (``None``: large enough)."""
        if not (
            (nbytes is None or nbytes >= LANE_MIN_BYTES)
            and usable_cpus() > 1
            and self._free.acquire(blocking=False)
        ):
            yield fn
            return
        try:
            future = self._executor.submit(self._run, _other_cpus(), fn)
        except BaseException:
            self._free.release()
            raise
        try:
            yield future.result
        finally:
            wait([future])


_LANE = SideLane("repro-lane")


def side_lane() -> SideLane:
    """The process's one side lane; no borrower starts a thread of its own."""
    return _LANE


def _run_task(fn: Callable, item, index: int, label: str):
    tracer = get_tracer()
    start = time.perf_counter()
    with tracer.span(
        "pool.task",
        pool=label,
        index=index,
        worker=threading.current_thread().name,
    ):
        result = fn(item)
    return result, time.perf_counter() - start


def _collect_fail_fast(futures: list, label: str = "pool") -> list:
    """Gather future results in submit order, cancelling on first failure.

    Blocks until the first exception (or until everything finishes); on
    failure, not-yet-started futures are cancelled so queued work never
    runs, already-running tasks are awaited (the pool must be quiescent
    before the caller tears it down), and the earliest-submitted failure
    re-raises.
    """
    __, not_done = wait(futures, return_when=FIRST_EXCEPTION)
    if not any(
        future.done() and not future.cancelled() and future.exception() is not None
        for future in futures
    ):
        return [future.result() for future in futures]
    cancelled = sum(future.cancel() for future in not_done)
    wait(not_done)  # quiesce: in-flight tasks may still finish or fail
    if cancelled:
        get_metrics().counter(
            "pool_tasks_cancelled_total", pool=label
        ).inc(cancelled)
    failed = next(
        future
        for future in futures
        if future.done() and not future.cancelled() and future.exception() is not None
    )
    raise failed.exception()


def parallel_map(
    fn: Callable,
    items: Iterable,
    workers: int | None = None,
    label: str = "pool",
) -> list:
    """Map ``fn`` over ``items``, preserving input order in the results.

    With ``workers`` resolved to 1 (the default) this is a plain loop —
    no pool, no thread hop — so serial callers pay nothing.
    """
    items = list(items)
    workers = resolve_workers(workers)
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]

    metrics = get_metrics()
    wall_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=workers, thread_name_prefix=label) as pool:
        futures = [
            pool.submit(_run_task, fn, item, index, label)
            for index, item in enumerate(items)
        ]
        # Collect in submit order: result order matches input order, the
        # first failure raises, and queued-but-unstarted tasks are
        # cancelled rather than run to completion.
        outcomes = _collect_fail_fast(futures, label)
    wall = time.perf_counter() - wall_start

    busy = 0.0
    task_seconds = metrics.histogram("pool_task_seconds", pool=label)
    for __, seconds in outcomes:
        busy += seconds
        task_seconds.observe(seconds)
    metrics.counter("pool_tasks_total", pool=label).inc(len(outcomes))
    metrics.gauge("pool_workers", pool=label).set(workers)
    if wall > 0:
        metrics.gauge("pool_utilization", pool=label).set(busy / (wall * workers))
    return [result for result, __ in outcomes]


class WorkerPool:
    """A streaming variant of :func:`parallel_map` for producer loops.

    :class:`~repro.io.chunked.ChunkedArrayWriter` submits chunk stores as
    data arrives and only needs completion (plus error propagation) at
    close time; this wraps a :class:`ThreadPoolExecutor` with exactly
    that surface.  With ``workers <= 1`` submissions run inline, so the
    serial path has no pool at all.
    """

    def __init__(self, workers: int | None = None, label: str = "pool") -> None:
        self.workers = resolve_workers(workers)
        self.label = label
        self._executor: ThreadPoolExecutor | None = (
            ThreadPoolExecutor(max_workers=self.workers, thread_name_prefix=label)
            if self.workers > 1
            else None
        )
        self._futures: list = []
        self._submitted = 0

    @property
    def is_parallel(self) -> bool:
        return self._executor is not None

    def submit(self, fn: Callable, item) -> None:
        """Run ``fn(item)`` (inline when serial, pooled otherwise)."""
        index = self._submitted
        self._submitted += 1
        if self._executor is None:
            fn(item)
            return
        self._futures.append(
            self._executor.submit(_run_task, fn, item, index, self.label)
        )

    def drain(self) -> None:
        """Wait for all submitted work; re-raise the first task failure.

        On failure, queued-but-unstarted submissions are cancelled (the
        error surfaces immediately; no wasted work behind it)."""
        if self._executor is None:
            return
        try:
            outcomes = _collect_fail_fast(self._futures, self.label)
        finally:
            self._futures = []
        metrics = get_metrics()
        task_seconds = metrics.histogram("pool_task_seconds", pool=self.label)
        for __, seconds in outcomes:
            task_seconds.observe(seconds)
        metrics.counter("pool_tasks_total", pool=self.label).inc(len(outcomes))
        metrics.gauge("pool_workers", pool=self.label).set(self.workers)

    def shutdown(self) -> None:
        """Release the pool threads (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        try:
            if exc_type is None:
                self.drain()
        finally:
            self.shutdown()
