"""CPU counts and the side lane: the in-process concurrency of a run.

:func:`usable_cpus` and :func:`resolve_workers` size the supervised
process pool of ``execute_chunked``.  :class:`SideLane` runs one callable
beside its caller on one kept thread; the process has one
(:func:`side_lane`): ``InferencePipeline.execute`` hands it the reference
forward, ``FusedKernel`` the upper half of a batch.  The numpy kernels
those run release the GIL, so the two halves overlap on a second CPU.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from contextlib import contextmanager
from typing import Callable

__all__ = ["usable_cpus", "resolve_workers", "SideLane", "side_lane"]

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

    ``with lane.beside(fn) as result:`` hands ``fn`` to the lane thread,
    runs the ``with`` body on the caller's thread and joins before the
    block is left, on an exception included, so nothing is ever orphaned;
    ``result()`` then returns what ``fn`` returned or raises what it
    raised.  The lane is taken without blocking and is free again the
    moment ``fn`` returns, which may be well inside the body; a taken
    lane queues ``fn`` behind the callable that took it, and if the lane
    has not started ``fn`` when the body ends, ``result()`` calls it on
    the caller, as the inline order would.  On a process confined to one
    CPU, for a borrow from the lane thread itself, or when the work is
    smaller than :data:`LANE_MIN_BYTES`, ``result`` is ``fn`` itself and
    the call happens inline, after the body.  Every way, the caller
    writes the same two lines.

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
        self._thread: "int | None" = None

    def _run(self, cpus: "set[int] | None", fn: Callable[[], object], holds: bool):
        """``fn()`` on the lane thread confined to ``cpus``; frees the lane if ``holds``."""
        self._thread = threading.get_ident()
        try:
            if cpus:
                try:
                    os.sched_setaffinity(0, cpus)
                except OSError:
                    pass
            return fn()
        finally:
            if holds:
                self._free.release()

    @contextmanager
    def beside(self, fn: Callable[[], object], nbytes: "int | None" = None):
        """Run ``fn()`` next to the ``with`` body; yields its result getter.

        ``nbytes``: the size of what ``fn`` works on (``None``: large enough)."""
        if not (
            (nbytes is None or nbytes >= LANE_MIN_BYTES)
            and usable_cpus() > 1
            and threading.get_ident() != self._thread
        ):
            yield fn
            return
        queued = not self._free.acquire(blocking=False)
        try:
            future = self._executor.submit(self._run, _other_cpus(), fn, not queued)
        except BaseException:
            if not queued:
                self._free.release()
            raise
        try:
            yield lambda: fn() if future.cancelled() else future.result()
        finally:
            if not (queued and future.cancel()):
                wait([future])


_LANE = SideLane("repro-lane")


def side_lane() -> SideLane:
    """The process's one side lane; no borrower starts a thread of its own."""
    return _LANE
