"""Hierarchical tracer: nested spans with JSONL export and a text tree.

A :class:`Span` measures one named region of work (wall-clock duration
plus free-form attributes); a :class:`Tracer` maintains the active span
stack so nested regions become a tree.  The paper's Fig. 2 asks *where
inference time goes* — spans answer that at runtime with the same
vocabulary the figure uses (``pipeline.compress``, ``pipeline.decompress``,
``pipeline.inference``, ``pipeline.guard``).

When observability is off the :class:`NullTracer` stands in: its
``span()`` returns a shared, attribute-less singleton whose enter/exit
and ``set()`` do nothing, so instrumented hot paths cost one method call
and no allocation.
"""

from __future__ import annotations

import json
import os
import threading
import time

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "json_default",
    "new_span_id",
    "new_trace_id",
]


def new_trace_id() -> str:
    """Random 128-bit trace id as 32 lowercase hex chars (W3C traceparent)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """Random 64-bit span id as 16 lowercase hex chars.

    Random (rather than sequential) ids are what make cross-process trace
    stitching possible: a forked pool child and a TCP worker can both mint
    ids without coordination, and :meth:`Tracer.merge_remote` can
    deduplicate re-shipped spans by id alone.
    """
    return os.urandom(8).hex()


def json_default(value):
    """Best-effort converter for non-JSON-native values in telemetry.

    Span attributes and audit metadata routinely carry numpy scalars and
    small arrays (``np.float32`` errors, shape tuples); a bare
    ``json.dumps`` raises ``TypeError`` on them, which would lose a whole
    trace at export time.  Numpy scalars and arrays both expose
    ``tolist()`` (scalars return plain Python numbers), so that one hook
    covers the common cases without importing numpy here; anything else
    degrades to ``str`` rather than failing the export.
    """
    tolist = getattr(value, "tolist", None)
    if callable(tolist):
        return tolist()
    if isinstance(value, (set, frozenset)):
        return sorted(str(v) if not isinstance(v, (int, float, str)) else v for v in value)
    return str(value)


class Span:
    """One timed region: name, wall time, attributes, position in the tree.

    Spans are context managers handed out by :meth:`Tracer.span`;
    attributes may be attached at creation, inside the block via
    :meth:`set`, or after exit (post-hoc enrichment, e.g. an observed
    error that is only measurable later in the pipeline).  A block that
    raises leaves ``error=<exception type name>`` on its span.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "depth",
        "overlapped",
        "attributes",
        "start_unix",
        "duration_s",
        "_tracer",
        "_t0",
    )

    def __init__(
        self,
        name: str,
        span_id: str,
        parent_id: str | None,
        depth: int,
        tracer: "Tracer | None",
        attributes: dict,
        trace_id: str = "",
        overlapped: bool = False,
    ) -> None:
        self.name = str(name)
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.depth = depth
        #: ran on another thread of this process than its parent, beside
        #: the parent's own children: its time is part of the parent's
        #: wall but not of the serial sum of the parent's children
        self.overlapped = overlapped
        self.attributes = attributes
        self.start_unix = 0.0
        self.duration_s = 0.0
        self._tracer = tracer
        self._t0 = 0.0

    def set(self, **attributes) -> "Span":
        """Attach attributes; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    def __enter__(self) -> "Span":
        self.start_unix = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.duration_s = time.perf_counter() - self._t0
        if exc_type is not None:
            # the stage a failure crossed, named by its exception type
            self.attributes["error"] = exc_type.__name__
        if self._tracer is not None:
            self._tracer._finish(self)

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            # explicit root marker: a re-imported trace keeps the
            # "genuine root" vs "parent span lives elsewhere" distinction
            # even if a reader drops null-valued fields
            "root": self.parent_id is None,
            "name": self.name,
            "depth": self.depth,
            "overlapped": self.overlapped,
            "start_unix": self.start_unix,
            "duration_s": self.duration_s,
            "attributes": self.attributes,
        }

    @classmethod
    def from_dict(cls, payload: dict, tracer: "Tracer | None" = None) -> "Span":
        """Rebuild a finished span from its :meth:`to_dict` form.

        The inverse of the JSONL export: ``to_dict`` → ``json`` →
        ``from_dict`` round-trips every structural field (ids, parent
        link, root flag, timing, attributes).  Used by
        :meth:`Tracer.merge_remote` to adopt spans shipped over the fork
        seam or the distrib wire.
        """
        span = cls(
            payload.get("name", "?"),
            span_id=str(payload["span_id"]),
            parent_id=(
                None
                if payload.get("parent_id") is None or payload.get("root")
                else str(payload["parent_id"])
            ),
            depth=int(payload.get("depth", 0)),
            tracer=tracer,
            attributes=dict(payload.get("attributes") or {}),
            trace_id=str(payload.get("trace_id") or ""),
            overlapped=bool(payload.get("overlapped", False)),
        )
        span.start_unix = float(payload.get("start_unix") or 0.0)
        span.duration_s = float(payload.get("duration_s") or 0.0)
        return span

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_s * 1e3:.3f}ms, {self.attributes})"


class Tracer:
    """Collects spans into a tree; safe to use from worker threads.

    ``span()`` opens a child of the currently active span (the enclosing
    ``with`` block).  The active-span stack is *thread-local*: spans
    opened inside a worker thread nest under whatever that thread opened,
    and become roots otherwise — a worker-pool task therefore shows up as
    its own root span carrying its worker's name — unless the thread's
    first span names its parent explicitly (``remote_parent``): that span
    is a child marked :attr:`Span.overlapped`, listed by
    :meth:`overlapped` instead of :meth:`children` so that the serial
    children of a span never sum to more than its wall time (the
    pipeline's reference lane is the case in point).  The shared collections
    (:attr:`finished` in completion order, :attr:`roots` in start order,
    the id counter) are guarded by a lock.
    """

    #: instrumented code may branch on this to skip expensive attribute
    #: computation (the NullTracer reports False)
    enabled = True

    def __init__(self, remote_context: dict | None = None) -> None:
        self.finished: list[Span] = []
        self.roots: list[Span] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._remote_context = Tracer.extract(remote_context) if remote_context else None
        self.trace_id = (
            self._remote_context["trace_id"] if self._remote_context else new_trace_id()
        )
        #: every span id this tracer has minted or adopted — the dedup set
        #: merge_remote consults so a span shipped twice lands once
        self._seen_ids: set[str] = set()

    def _stack_for_thread(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, *, remote_parent: dict | None = None, **attributes) -> Span:
        """Open a new span as a child of the current one (context manager).

        ``remote_parent`` (a context from :meth:`inject`/:meth:`extract`)
        parents a span under work happening in *another* process or
        thread when this thread's local stack is empty — the seam that
        stitches coordinator connection threads, TCP workers and forked
        pool children into one trace.  A non-empty local stack wins: the
        span nests where it actually runs.
        """
        stack = self._stack_for_thread()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent_id = parent.span_id
            trace_id = parent.trace_id or self.trace_id
            depth = parent.depth + 1
            local_root = False
        else:
            context = remote_parent if remote_parent is not None else self._remote_context
            context = Tracer.extract(context) if context else None
            parent_id = context["parent_span_id"] if context else None
            trace_id = (context["trace_id"] if context else "") or self.trace_id
            depth = 0
            local_root = True
        span = Span(
            name,
            span_id=new_span_id(),
            parent_id=parent_id,
            depth=depth,
            tracer=self,
            attributes=attributes,
            trace_id=trace_id,
        )
        with self._lock:
            self._seen_ids.add(span.span_id)
            # an explicit parent that lives in this tracer is a span of
            # another thread of this process: the new span is its child,
            # not a root, and runs beside the parent's own children
            span.overlapped = local_root and parent_id in self._seen_ids
            if local_root and not span.overlapped:
                self.roots.append(span)
        stack.append(span)
        return span

    # -- context propagation ---------------------------------------------
    def inject(self, span: Span | None = None) -> dict:
        """Serializable trace context for handing work to another process.

        Returns ``{"trace_id", "parent_span_id"}`` anchored at ``span``
        (default: this thread's current span, falling back to the remote
        context this tracer was constructed with).  Attach it to a frame
        or fork seam and rebuild the link on the far side via
        ``Tracer(remote_context=ctx)`` or ``span(..., remote_parent=ctx)``.
        """
        target = span if span is not None else self.current()
        if target is not None:
            return {"trace_id": target.trace_id or self.trace_id, "parent_span_id": target.span_id}
        if self._remote_context is not None:
            return dict(self._remote_context)
        return {"trace_id": self.trace_id, "parent_span_id": None}

    @staticmethod
    def extract(carrier: dict | None) -> dict | None:
        """Validate a trace context from a frame ``trace`` field.

        Accepts either the bare context or a message carrying it under a
        ``"trace"`` key; returns ``{"trace_id", "parent_span_id"}`` or
        ``None`` when absent or malformed (never raises — telemetry must
        not take down the data path).
        """
        if not isinstance(carrier, dict):
            return None
        context = carrier.get("trace", carrier) if "trace" in carrier else carrier
        if not isinstance(context, dict):
            return None
        trace_id = context.get("trace_id")
        if not isinstance(trace_id, str) or not trace_id:
            return None
        parent = context.get("parent_span_id")
        if parent is not None and not isinstance(parent, str):
            return None
        return {"trace_id": trace_id, "parent_span_id": parent}

    def merge_remote(self, span_dicts: list, parent: Span | None = None) -> list:
        """Adopt spans shipped from another tracer (fork child, TCP worker).

        Spans are rebuilt via :meth:`Span.from_dict` and appended to
        :attr:`finished`; ids already known to this tracer are skipped, so
        re-shipping (worker retries, shared-process test harnesses where
        worker threads share the global tracer) cannot duplicate spans.

        With ``parent`` given, every span in the batch whose parent is not
        *also in the batch* is reparented under it and rewritten onto its
        trace id — the fork-seam contract: a pool child's root spans land
        under the parent's per-task span.  With ``parent=None`` the spans
        keep their shipped parent links (the distrib wire contract: the
        worker already parented them via the context carried on frames).

        Returns the list of newly adopted spans.
        """
        if not span_dicts:
            return []
        batch_ids = set()
        for payload in span_dicts:
            if isinstance(payload, dict) and payload.get("span_id"):
                batch_ids.add(str(payload["span_id"]))
        with self._lock:
            known = set(self._seen_ids)
        adopted: list[Span] = []
        ordered = sorted(
            (p for p in span_dicts if isinstance(p, dict) and p.get("span_id")),
            key=lambda p: float(p.get("start_unix") or 0.0),
        )
        for payload in ordered:
            span_id = str(payload["span_id"])
            if span_id in known:
                continue
            known.add(span_id)
            try:
                span = Span.from_dict(payload, tracer=self)
            except (KeyError, TypeError, ValueError):
                continue
            if parent is not None and (span.parent_id is None or span.parent_id not in batch_ids):
                span.parent_id = parent.span_id
                span.trace_id = parent.trace_id or self.trace_id
            elif not span.trace_id:
                span.trace_id = self.trace_id
            adopted.append(span)
        with self._lock:
            for span in adopted:
                self._seen_ids.add(span.span_id)
                self.finished.append(span)
                if span.parent_id is None:
                    self.roots.append(span)
        return adopted

    def dicts_since(self, cursor: int) -> tuple[list, int]:
        """Exported dicts of spans finished since ``cursor``, plus the new cursor.

        The shipping primitive for incremental span transport: a worker
        keeps a cursor into :attr:`finished` and attaches only the fresh
        tail to each outgoing frame.
        """
        with self._lock:
            fresh = list(self.finished[cursor:])
            new_cursor = len(self.finished)
        return [span.to_dict() for span in fresh], new_cursor

    def current(self) -> Span | None:
        """The innermost span whose ``with`` block is active, if any."""
        stack = self._stack_for_thread()
        return stack[-1] if stack else None

    def _finish(self, span: Span) -> None:
        # Exiting out of order (an inner span leaked past its parent's
        # exit) is tolerated: pop down to the span being closed.
        stack = self._stack_for_thread()
        while stack and stack[-1] is not span:
            stack.pop()
        if stack:
            stack.pop()
        with self._lock:
            self.finished.append(span)

    # -- queries ---------------------------------------------------------
    def find(self, name: str) -> list[Span]:
        """All finished spans with the given name, in completion order."""
        return [span for span in self.finished if span.name == name]

    def children(self, span: Span) -> list[Span]:
        """Finished children that ran on ``span``'s own thread, one after
        the other: their durations sum to at most ``span``'s."""
        return [
            s for s in self.finished
            if s.parent_id == span.span_id and not s.overlapped
        ]

    def overlapped(self, span: Span) -> list[Span]:
        """Finished children that ran beside ``span``'s own children, on
        another thread (see :attr:`Span.overlapped`)."""
        return [
            s for s in self.finished
            if s.parent_id == span.span_id and s.overlapped
        ]

    def total_seconds(self, name: str) -> float:
        """Summed duration of all finished spans named ``name``."""
        return sum(span.duration_s for span in self.find(name))

    # -- export ----------------------------------------------------------
    def to_dicts(self) -> list[dict]:
        return [span.to_dict() for span in self.finished]

    def export_jsonl(self, path: str) -> None:
        """Write one JSON object per finished span (completion order).

        Non-JSON-native attribute values (numpy scalars, arrays) are
        converted through :func:`json_default` so an exotic attribute can
        never crash the export and lose the trace.
        """
        with open(path, "w") as handle:
            for span in self.finished:
                handle.write(json.dumps(span.to_dict(), sort_keys=True, default=json_default))
                handle.write("\n")

    def render_tree(self) -> str:
        """Text tree of all root spans with durations and attributes."""
        by_parent: dict[str | None, list[Span]] = {}
        for span in self.finished:
            by_parent.setdefault(span.parent_id, []).append(span)
        lines: list[str] = []

        def walk(span: Span, indent: int, parent_duration: float | None) -> None:
            share = ""
            if parent_duration and parent_duration > 0:
                fraction = span.duration_s / parent_duration
                # an overlapped child's time is not a share of the serial
                # total its siblings add up to
                share = "  beside" if span.overlapped else f"  {100 * fraction:5.1f}%"
            attrs = " ".join(f"{k}={_fmt_value(v)}" for k, v in span.attributes.items())
            lines.append(
                f"{'  ' * indent}{span.name:<{max(1, 40 - 2 * indent)}} "
                f"{1e3 * span.duration_s:9.3f} ms{share}"
                + (f"  [{attrs}]" if attrs else "")
            )
            for child in sorted(
                by_parent.get(span.span_id, []), key=lambda s: s.start_unix
            ):
                walk(child, indent + 1, span.duration_s)

        for root in self.roots:
            walk(root, 0, None)
        return "\n".join(lines)


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


class _NullSpan:
    """Shared do-nothing span: the disabled-mode fast path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def set(self, **attributes) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class NullTracer:
    """API-compatible no-op tracer installed while observability is off."""

    enabled = False
    finished: tuple = ()
    roots: tuple = ()
    trace_id = ""

    def span(self, name: str, *, remote_parent: dict | None = None, **attributes) -> _NullSpan:
        return _NULL_SPAN

    def current(self) -> None:
        return None

    def inject(self, span=None) -> None:
        return None

    @staticmethod
    def extract(carrier) -> None:
        return None

    def merge_remote(self, span_dicts, parent=None) -> list:
        return []

    def dicts_since(self, cursor: int) -> tuple[list, int]:
        return [], 0

    def find(self, name: str) -> list:
        return []

    def children(self, span) -> list:
        return []

    def overlapped(self, span) -> list:
        return []

    def total_seconds(self, name: str) -> float:
        return 0.0

    def to_dicts(self) -> list:
        return []

    def export_jsonl(self, path: str) -> None:
        with open(path, "w"):
            pass

    def render_tree(self) -> str:
        return ""


NULL_TRACER = NullTracer()
