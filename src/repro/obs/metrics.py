"""Metrics registry: event counters.

A counter tracks a monotone event total (``integrity_failures_total``).
Every counter is identified by a name plus a sorted label set, so
``contract_violations_total{stage="decompress"}`` and
``contract_violations_total{stage="audit"}`` are distinct series — the
same data model Prometheus uses, and the registry exports both a JSON
document and the Prometheus text exposition format.

Measurements (stage times, compression ratios, QoI errors, step sizes)
are not metrics: each is recorded once, on a span, in an audit record or
in ``PipelineResult.extra`` (docs/OBSERVABILITY.md, "Where each number
lives").

The :class:`NullMetrics` registry backs the disabled mode: it hands out
shared no-op instruments so hot-path ``counter(...).inc()`` calls cost
two cheap method calls and no allocation.
"""

from __future__ import annotations

import threading

__all__ = [
    "Counter",
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


def _label_key(labels: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _label_suffix(label_key: tuple) -> str:
    if not label_key:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in label_key)
    return "{" + inner + "}"


class MetricsRegistry:
    """Name+labels keyed collection of counters."""

    enabled = True

    def __init__(self) -> None:
        #: name -> {label key -> Counter}
        self._series: dict[str, dict] = {}
        # Guards series creation so worker threads (parallel chunked
        # execution) can request counters concurrently.  Increments on
        # the counters themselves stay lock-free.
        self._register_lock = threading.Lock()

    def counter(self, name: str, **labels) -> Counter:
        key = _label_key(labels)
        with self._register_lock:
            series = self._series.setdefault(name, {})
            counter = series.get(key)
            if counter is None:
                counter = series[key] = Counter()
            return counter

    # -- reads ----------------------------------------------------------
    def value(self, name: str, **labels) -> float:
        """Current value of a counter series (0 if never touched)."""
        counter = self._series.get(name, {}).get(_label_key(labels))
        return 0.0 if counter is None else counter.value

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
                name: {key: counter.value for key, counter in series.items()}
                for name, series in self._series.items()
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
        return {
            "metrics": [
                {"name": name, "kind": "counter", "labels": dict(key), "value": counter.value}
                for name in sorted(self._series)
                for key, counter in sorted(self._series[name].items())
            ]
        }

    def to_prometheus(self) -> str:
        """Prometheus text exposition format.

        Per the exposition grammar each metric name gets its ``# TYPE``
        header exactly once, before all of its series — regardless of how
        many label sets the name carries.
        """
        lines: list[str] = []
        for name in sorted(self._series):
            lines.append(f"# TYPE {name} counter")
            for key, counter in sorted(self._series[name].items()):
                lines.append(f"{name}{_label_suffix(key)} {_fmt(counter.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    def render(self) -> str:
        """Human-readable summary table of every series."""
        return render_metrics_json(self.to_json())


def _fmt(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


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
        # an older export's histogram rows carry no value: shown as nan
        value = row.get("value", float("nan"))
        lines.append(f"{label:<44} {row['kind']:<9} {value:>12g}")
    return "\n".join(lines)


class _NullInstrument:
    """Shared do-nothing counter."""

    __slots__ = ()
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        return None


_NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """API-compatible no-op registry installed while observability is off."""

    enabled = False

    def counter(self, name: str, **labels) -> _NullInstrument:
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
