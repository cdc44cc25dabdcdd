"""Continuous profiling: a stdlib-only sampling wall-clock profiler.

A daemon thread walks :func:`sys._current_frames` at a configurable rate
and aggregates what it sees into per-thread *folded stacks* — the
``thread;frame;frame;frame count`` lines flamegraph tooling consumes.
Like the rest of :mod:`repro.obs` the profiler is **off by default** and
routes through a process-global singleton: :func:`get_profiler` returns
:data:`NULL_PROFILER` (every method a no-op, no thread, no allocation)
until :func:`enable_profile` or :func:`profile_capture` installs a live
:class:`SamplingProfiler`.

Cost model, metered not promised:

* **off** — zero: no sampler thread exists and the hot-path hooks are
  one attribute lookup on the null singleton;
* **on** — every sample's own walk time is measured and the inter-sample
  sleep is stretched so the sampler's duty cycle never exceeds
  ``max_overhead`` (default 5%): on a process with many threads or deep
  stacks the profiler degrades its rate, never the workload.  The
  measured fraction is exposed as :meth:`SamplingProfiler.overhead_fraction`.

Exports: folded-stack text (``to_folded``) and speedscope JSON
(``to_speedscope``) — drop the latter onto https://www.speedscope.app
for an interactive flamegraph.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from contextlib import contextmanager

__all__ = [
    "DEFAULT_HZ",
    "DEFAULT_MAX_OVERHEAD",
    "NULL_PROFILER",
    "NullProfiler",
    "SamplingProfiler",
    "StackAccumulator",
    "diff_rows",
    "disable_profile",
    "enable_profile",
    "get_profiler",
    "profile_capture",
    "set_profiler",
    "write_profile",
]

DEFAULT_HZ = 100.0
DEFAULT_MAX_OVERHEAD = 0.05

_SAMPLER_THREAD_NAME = "repro-prof-sampler"
_MAX_STACK_DEPTH = 128


def _frame_label(frame) -> str:
    """``module:qualname`` for a frame; generated kernels keep their
    synthetic filename (``<repro-fused-kernel>``) so backend frames stay
    attributable in the flamegraph."""
    code = frame.f_code
    module = frame.f_globals.get("__name__") if frame.f_globals is not None else None
    if not module:
        module = os.path.basename(code.co_filename) or "?"
    name = getattr(code, "co_qualname", None) or code.co_name
    return f"{module}:{name}"


def _extract_stack(frame) -> "tuple[str, ...]":
    """Root-first frame labels for one thread's current frame."""
    labels: list[str] = []
    depth = 0
    while frame is not None and depth < _MAX_STACK_DEPTH:
        labels.append(_frame_label(frame))
        frame = frame.f_back
        depth += 1
    labels.reverse()
    return tuple(labels)


def diff_rows(current: dict, baseline: dict) -> list:
    """``[[folded, count], ...]`` of samples in ``current`` beyond ``baseline``."""
    rows = []
    for folded, count in current.items():
        fresh = count - baseline.get(folded, 0)
        if fresh > 0:
            rows.append([folded, fresh])
    rows.sort(key=lambda r: (-r[1], r[0]))
    return rows


class StackAccumulator:
    """Thread-safe folded-stack aggregation.

    Keys are folded strings ``thread;frame;...;frame`` (root first);
    values are sample counts.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}

    def add(self, thread: str, stack, count: int = 1) -> None:
        folded = ";".join((str(thread),) + tuple(stack))
        with self._lock:
            self._counts[folded] = self._counts.get(folded, 0) + int(count)

    def snapshot(self) -> dict:
        with self._lock:
            return dict(self._counts)

    def total(self) -> int:
        with self._lock:
            return sum(self._counts.values())

    def rows(self) -> list:
        return diff_rows(self.snapshot(), {})

    # -- exports -------------------------------------------------------

    def to_folded(self) -> str:
        """Folded-stack text: one ``thread;frame;... count`` line each."""
        lines = [f"{folded} {count}" for folded, count in sorted(self.snapshot().items())]
        return "\n".join(lines) + ("\n" if lines else "")

    def to_speedscope(self, name: str = "repro profile") -> dict:
        """Speedscope JSON (``type: sampled``), one profile per thread."""
        frames: list[dict] = []
        frame_index: dict[str, int] = {}

        def index_of(label: str) -> int:
            idx = frame_index.get(label)
            if idx is None:
                idx = frame_index[label] = len(frames)
                frames.append({"name": label})
            return idx

        per_thread: dict[str, list] = {}
        for folded, count in sorted(self.snapshot().items()):
            parts = folded.split(";")
            thread, stack = parts[0], parts[1:]
            if not stack:
                continue
            per_thread.setdefault(thread, []).append(
                ([index_of(label) for label in stack], count)
            )
        profiles = []
        for thread in sorted(per_thread):
            samples = [stack for stack, _ in per_thread[thread]]
            weights = [count for _, count in per_thread[thread]]
            profiles.append(
                {
                    "type": "sampled",
                    "name": thread,
                    "unit": "none",
                    "startValue": 0,
                    "endValue": sum(weights),
                    "samples": samples,
                    "weights": weights,
                }
            )
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "name": name,
            "exporter": "repro",
            "activeProfileIndex": 0,
            "shared": {"frames": frames},
            "profiles": profiles,
        }


class SamplingProfiler:
    """Daemon-thread wall-clock sampler over :func:`sys._current_frames`.

    ``hz`` is the *target* rate; the governor stretches the sleep after
    each sample so the sampler's measured duty cycle stays at or below
    ``max_overhead`` (throttled samples are counted in
    ``stats["throttled"]``).
    """

    enabled = True

    def __init__(
        self,
        hz: float = DEFAULT_HZ,
        max_overhead: float = DEFAULT_MAX_OVERHEAD,
    ) -> None:
        if not hz > 0:
            raise ValueError(f"hz must be positive, got {hz}")
        if not 0 < max_overhead <= 1:
            raise ValueError(f"max_overhead must be in (0, 1], got {max_overhead}")
        self.hz = float(hz)
        self.max_overhead = float(max_overhead)
        self.stacks = StackAccumulator()
        self.stats = {"samples": 0, "sample_seconds": 0.0, "throttled": 0}
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None
        self._started_at: "float | None" = None
        self._wall_seconds = 0.0

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name=_SAMPLER_THREAD_NAME, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        thread = self._thread
        if thread is None:
            return self
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        if self._started_at is not None:
            self._wall_seconds += time.perf_counter() - self._started_at
            self._started_at = None
        return self

    @property
    def running(self) -> bool:
        return self._thread is not None

    def wall_seconds(self) -> float:
        live = 0.0
        if self._started_at is not None:
            live = time.perf_counter() - self._started_at
        return self._wall_seconds + live

    def overhead_fraction(self) -> float:
        """Measured sampler duty cycle: sampling seconds / profiled wall."""
        wall = self.wall_seconds()
        return (self.stats["sample_seconds"] / wall) if wall > 0 else 0.0

    # -- sampling loop -------------------------------------------------

    def _run(self) -> None:
        interval = 1.0 / self.hz
        own = threading.get_ident()
        while not self._stop.is_set():
            started = time.perf_counter()
            try:
                frames = sys._current_frames()
                names = {t.ident: t.name for t in threading.enumerate()}
                for ident, frame in frames.items():
                    if ident == own:
                        continue
                    stack = _extract_stack(frame)
                    if stack:
                        self.stacks.add(names.get(ident, f"thread-{ident}"), stack)
            except Exception:  # sampling must never take down the process
                pass
            cost = time.perf_counter() - started
            self.stats["samples"] += 1
            self.stats["sample_seconds"] += cost
            # overhead governor: a sample that cost c may not be followed
            # by less than c * (1/max_overhead - 1) of sleep
            floor = cost * (1.0 / self.max_overhead - 1.0)
            nap = interval - cost
            if floor > nap:
                nap = floor
                self.stats["throttled"] += 1
            self._stop.wait(max(nap, 0.0))

    # -- windows (per-execution deltas for result.extra["profile"]) ----

    def begin_window(self) -> dict:
        return {"counts": self.stacks.snapshot(), "started": time.perf_counter()}

    def end_window(self, window: dict) -> dict:
        current = self.stacks.snapshot()
        rows = diff_rows(current, window["counts"])
        total = sum(count for _, count in rows) or 1
        return {
            "hz": self.hz,
            "seconds": time.perf_counter() - window["started"],
            "samples": sum(count for _, count in rows),
            "overhead_fraction": self.overhead_fraction(),
            "hot": [
                {"stack": folded, "samples": count, "fraction": count / total}
                for folded, count in rows[:10]
            ],
        }


class NullProfiler:
    """No-op stand-in: profiling off costs one attribute lookup."""

    enabled = False
    hz = 0.0
    stats = {"samples": 0, "sample_seconds": 0.0, "throttled": 0}

    def __init__(self) -> None:
        self.stacks = StackAccumulator()

    def start(self) -> "NullProfiler":
        return self

    def stop(self) -> "NullProfiler":
        return self

    @property
    def running(self) -> bool:
        return False

    def wall_seconds(self) -> float:
        return 0.0

    def overhead_fraction(self) -> float:
        return 0.0

    def begin_window(self) -> None:
        return None

    def end_window(self, window) -> dict:
        return {}


NULL_PROFILER = NullProfiler()

_profiler = NULL_PROFILER


def get_profiler():
    """The process-global profiler (:data:`NULL_PROFILER` unless enabled)."""
    return _profiler


def set_profiler(profiler) -> None:
    global _profiler
    _profiler = profiler if profiler is not None else NULL_PROFILER


def enable_profile(
    hz: float = DEFAULT_HZ,
    max_overhead: float = DEFAULT_MAX_OVERHEAD,
) -> SamplingProfiler:
    """Install and start a live global profiler; returns it."""
    profiler = SamplingProfiler(hz=hz, max_overhead=max_overhead)
    profiler.start()
    set_profiler(profiler)
    return profiler


def disable_profile():
    """Stop and uninstall the global profiler; returns the stopped
    instance so its samples can still be exported."""
    previous = _profiler
    previous.stop()
    set_profiler(NULL_PROFILER)
    return previous


@contextmanager
def profile_capture(
    hz: float = DEFAULT_HZ,
    max_overhead: float = DEFAULT_MAX_OVERHEAD,
):
    """Scoped :func:`enable_profile`; restores the previous profiler."""
    previous = _profiler
    profiler = SamplingProfiler(hz=hz, max_overhead=max_overhead)
    profiler.start()
    set_profiler(profiler)
    try:
        yield profiler
    finally:
        profiler.stop()
        set_profiler(previous)


# -- file export -------------------------------------------------------


def write_profile(profiler, path: str, name: "str | None" = None) -> str:
    """Write a profiler's samples to ``path``.

    ``.json`` (speedscope JSON, openable at speedscope.app) unless the
    name ends in ``.folded``/``.txt``, which selects folded-stack text.
    Returns the format written (``"speedscope"`` or ``"folded"``).
    """
    if path.endswith((".folded", ".txt")):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(profiler.stacks.to_folded())
        return "folded"
    document = profiler.stacks.to_speedscope(name=name or os.path.basename(path))
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
        handle.write("\n")
    return "speedscope"
