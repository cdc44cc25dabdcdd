"""Metrics registry: counters, gauges and percentile histograms.

Counters track monotone event totals (``integrity_failures_total``),
gauges track last-written values (``compression_ratio``), histograms
collect raw observations and summarize them as percentiles
(``codec_compress_seconds``).  Every instrument is identified by a name
plus a sorted label set, so ``recoveries_total{policy="fallback-lossless"}``
and ``recoveries_total{policy="recompress-from-source"}`` are distinct
series — the same data model Prometheus uses, and the registry exports
both a JSON document and the Prometheus text exposition format.

The :class:`NullMetrics` registry backs the disabled mode: it hands out
shared no-op instruments so hot-path ``counter(...).inc()`` calls cost
two cheap method calls and no allocation.
"""

from __future__ import annotations

import math
import random
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "render_metrics_json",
]


class Counter:
    """Monotonically increasing event total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters only go up, got increment {amount}")
        self.value += amount


class Gauge:
    """Last-written value (may go up or down)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Raw-sample histogram with exact percentile summaries.

    Observation counts in this codebase are usually small (per-stage
    timings, per-layer step sizes), so the histogram keeps the raw
    samples and computes exact percentiles by sorting on demand — no
    bucket-boundary error, no pre-declared bucket layout.

    Long chunked runs are the exception: a per-chunk timing series grows
    with the data, so retained samples are capped at ``cap`` (default
    :data:`DEFAULT_CAP`).  Below the cap percentiles stay exact; beyond
    it the retained set degrades gracefully to a uniform reservoir
    (Vitter's Algorithm R) and percentiles become estimates over it.
    ``sum``, ``count``, ``min`` and ``max`` remain exact regardless.
    Pass ``cap=None`` for the old unbounded behavior.
    """

    __slots__ = ("samples", "sum", "cap", "_count", "_min", "_max", "_random")

    #: default retained-sample budget; at 8 bytes a float this bounds a
    #: series at ~32 KiB no matter how many chunks a run observes
    DEFAULT_CAP = 4096

    def __init__(self, cap: int | None = DEFAULT_CAP) -> None:
        if cap is not None and cap <= 0:
            raise ValueError(f"histogram cap must be positive or None, got {cap}")
        self.samples: list[float] = []
        self.sum = 0.0
        self.cap = cap
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        # deterministic per-instance stream so exports are reproducible
        self._random = random.Random(0x5EED)

    def observe(self, value: float) -> None:
        value = float(value)
        self.sum += value
        self._count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self.cap is None or len(self.samples) < self.cap:
            self.samples.append(value)
        else:
            # reservoir replacement: every observation so far retained
            # with equal probability cap / count
            slot = self._random.randrange(self._count)
            if slot < self.cap:
                self.samples[slot] = value

    @property
    def count(self) -> int:
        return self._count

    def percentile(self, p: float) -> float:
        """Exact percentile (linear interpolation), ``p`` in [0, 100]."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self.samples:
            return math.nan
        ordered = sorted(self.samples)
        if len(ordered) == 1:
            return ordered[0]
        rank = p / 100.0 * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        weight = rank - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight

    def summary(self) -> dict:
        if not self.samples:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self._min,
            "max": self._max,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(label_key: tuple) -> str:
    if not label_key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in label_key)
    return "{" + inner + "}"


class MetricsRegistry:
    """Name+labels keyed collection of counters, gauges and histograms.

    ``histogram_cap`` bounds the raw samples each histogram retains (see
    :class:`Histogram`); ``None`` disables the cap.
    """

    enabled = True

    def __init__(self, histogram_cap: int | None = Histogram.DEFAULT_CAP) -> None:
        self._series: dict[str, dict] = {}
        self._help: dict[str, str] = {}
        self.histogram_cap = histogram_cap
        # Guards series creation so worker threads (parallel chunked
        # execution) can request instruments concurrently.  Increments on
        # the instruments themselves stay lock-free.
        self._register_lock = threading.Lock()

    def describe(self, name: str, help_text: str) -> None:
        """Attach a ``# HELP`` line to a metric name (idempotent)."""
        with self._register_lock:
            self._help[name] = str(help_text)

    def _instrument(self, kind: str, factory, name: str, labels: dict):
        with self._register_lock:
            entry = self._series.get(name)
            if entry is None:
                entry = {"kind": kind, "series": {}}
                self._series[name] = entry
            elif entry["kind"] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {entry['kind']}, "
                    f"cannot re-register as {kind}"
                )
            key = _label_key(labels)
            instrument = entry["series"].get(key)
            if instrument is None:
                instrument = factory()
                entry["series"][key] = instrument
            return instrument

    def counter(self, name: str, **labels) -> Counter:
        return self._instrument("counter", Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._instrument("gauge", Gauge, name, labels)

    def histogram(self, name: str, **labels) -> Histogram:
        return self._instrument(
            "histogram", lambda: Histogram(cap=self.histogram_cap), name, labels
        )

    # -- reads ----------------------------------------------------------
    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge series (0 if never touched)."""
        entry = self._series.get(name)
        if entry is None:
            return 0.0
        instrument = entry["series"].get(_label_key(labels))
        return 0.0 if instrument is None else instrument.value

    def names(self) -> list[str]:
        return sorted(self._series)

    # -- cross-process merge ---------------------------------------------
    def counter_snapshot(self) -> dict:
        """Picklable ``{name: {label_key: value}}`` view of every counter.

        Forked workers take a snapshot after fork, diff against it after
        each task (:func:`counter_delta`) and ship the delta back with
        the result; the parent folds it in via
        :meth:`merge_counter_deltas`, keeping one coherent registry
        across process boundaries.
        """
        with self._register_lock:
            return {
                name: {
                    key: instrument.value
                    for key, instrument in entry["series"].items()
                }
                for name, entry in self._series.items()
                if entry["kind"] == "counter"
            }

    @staticmethod
    def counter_delta(current: dict, baseline: dict) -> dict:
        """Per-series increments between two :meth:`counter_snapshot` calls."""
        delta: dict = {}
        for name, series in current.items():
            base_series = baseline.get(name, {})
            for key, value in series.items():
                change = value - base_series.get(key, 0.0)
                if change:
                    delta.setdefault(name, {})[key] = change
        return delta

    def merge_counter_deltas(self, delta: dict) -> None:
        """Fold worker-side counter increments into this registry."""
        for name, series in delta.items():
            for key, change in series.items():
                self.counter(name, **dict(key)).inc(change)

    # -- export ----------------------------------------------------------
    def to_json(self) -> dict:
        """JSON-serializable snapshot of every series."""
        out: dict = {"metrics": []}
        for name in sorted(self._series):
            entry = self._series[name]
            for key in sorted(entry["series"]):
                instrument = entry["series"][key]
                row: dict = {"name": name, "kind": entry["kind"], "labels": dict(key)}
                if entry["kind"] == "histogram":
                    row.update(instrument.summary())
                else:
                    row["value"] = instrument.value
                out["metrics"].append(row)
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (histograms as summaries).

        Per the exposition grammar each metric name gets its ``# HELP``
        and ``# TYPE`` header exactly once, before all of its series —
        regardless of how many label sets the name carries.
        """
        lines: list[str] = []
        for name in sorted(self._series):
            entry = self._series[name]
            kind = entry["kind"]
            help_text = self._help.get(name) or f"repro runtime metric {name}"
            lines.append(f"# HELP {name} {_escape_help(help_text)}")
            lines.append(f"# TYPE {name} {'summary' if kind == 'histogram' else kind}")
            for key in sorted(entry["series"]):
                instrument = entry["series"][key]
                if kind == "histogram":
                    for quantile in (0.5, 0.9, 0.99):
                        labels = key + (("quantile", f"{quantile}"),)
                        value = instrument.percentile(100 * quantile)
                        lines.append(f"{name}{_label_suffix(labels)} {_fmt(value)}")
                    lines.append(f"{name}_sum{_label_suffix(key)} {_fmt(instrument.sum)}")
                    lines.append(f"{name}_count{_label_suffix(key)} {instrument.count}")
                else:
                    lines.append(f"{name}{_label_suffix(key)} {_fmt(instrument.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self) -> str:
        """Human-readable summary table of every series."""
        return render_metrics_json(self.to_json())


def _escape_help(text: str) -> str:
    # HELP values escape backslash and newline per the exposition format
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _fmt(value: float) -> str:
    if isinstance(value, float) and math.isnan(value):
        return "NaN"
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def render_metrics_json(payload: dict) -> str:
    """Render a :meth:`MetricsRegistry.to_json` document as a text table.

    Shared by ``MetricsRegistry.render`` and the ``repro metrics`` CLI
    command, so a saved export and a live registry print identically.
    """
    rows = payload.get("metrics", [])
    if not rows:
        return "(no metrics recorded)"
    lines = [f"{'metric':<44} {'kind':<9} {'value':>12}"]
    for row in rows:
        label = row["name"] + _label_suffix(_label_key(row.get("labels", {})))
        if row["kind"] == "histogram":
            count = row.get("count", 0)
            if count:
                value = (
                    f"n={count} p50={row['p50']:.3g} "
                    f"p90={row['p90']:.3g} max={row['max']:.3g}"
                )
            else:
                value = "n=0"
            lines.append(f"{label:<44} {row['kind']:<9} {value}")
        else:
            lines.append(f"{label:<44} {row['kind']:<9} {row['value']:>12g}")
    return "\n".join(lines)


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram."""

    __slots__ = ()
    value = 0.0
    count = 0
    sum = 0.0
    samples: tuple = ()

    def inc(self, amount: float = 1.0) -> None:
        return None

    def dec(self, amount: float = 1.0) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """API-compatible no-op registry installed while observability is off."""

    enabled = False

    def describe(self, name: str, help_text: str) -> None:
        return None

    def counter(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def gauge(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **labels) -> _NullInstrument:
        return _NULL_INSTRUMENT

    def value(self, name: str, **labels) -> float:
        return 0.0

    def names(self) -> list:
        return []

    def counter_snapshot(self) -> dict:
        return {}

    @staticmethod
    def counter_delta(current: dict, baseline: dict) -> dict:
        return {}

    def merge_counter_deltas(self, delta: dict) -> None:
        return None

    def to_json(self) -> dict:
        return {"metrics": []}

    def to_prometheus(self) -> str:
        return ""

    def render(self) -> str:
        return "(no metrics recorded)"


NULL_METRICS = NullMetrics()
