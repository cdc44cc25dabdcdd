"""Distributed observability suite: trace context propagation, remote
span merging and the Prometheus exposition.

The contract under test: spans minted in coordinator threads, TCP
workers and forked pool children stitch into ONE trace (same trace id,
every parent link resolving inside it).
"""

import re

import pytest

from repro.io import read_jsonl_records
from repro.obs import MetricsRegistry, Tracer, new_span_id, new_trace_id
from repro.obs.trace import NULL_TRACER, Span


# -- trace/span identity ----------------------------------------------------


def test_id_minting_formats():
    trace_id, span_id = new_trace_id(), new_span_id()
    assert re.fullmatch(r"[0-9a-f]{32}", trace_id)
    assert re.fullmatch(r"[0-9a-f]{16}", span_id)
    assert new_trace_id() != trace_id  # random, not sequential
    assert new_span_id() != span_id


def test_spans_carry_their_tracers_trace_id():
    tracer = Tracer()
    with tracer.span("root") as root:
        with tracer.span("child") as child:
            pass
    assert root.trace_id == tracer.trace_id == child.trace_id
    assert re.fullmatch(r"[0-9a-f]{32}", root.trace_id)


def test_span_to_dict_marks_roots_explicitly():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("child"):
            pass
    root_dict = next(d for d in tracer.to_dicts() if d["name"] == "root")
    child_dict = next(d for d in tracer.to_dicts() if d["name"] == "child")
    assert root_dict["root"] is True and root_dict["parent_id"] is None
    assert child_dict["root"] is False
    assert child_dict["parent_id"] == root_dict["span_id"]


def test_span_round_trips_through_export_and_from_dict(tmp_path):
    tracer = Tracer()
    with tracer.span("root", codec="sz"):
        with tracer.span("child") as child:
            child.set(ratio=2.0)
    path = str(tmp_path / "trace.jsonl")
    tracer.export_jsonl(path)
    for row in read_jsonl_records(path):
        span = Span.from_dict(row)
        assert span.to_dict() == row  # exact structural round-trip
    rebuilt = Span.from_dict(next(r for r in read_jsonl_records(path) if r["name"] == "root"))
    assert rebuilt.parent_id is None and rebuilt.trace_id == tracer.trace_id


def test_from_dict_honours_root_flag_over_stale_parent():
    payload = {
        "span_id": "a" * 16,
        "parent_id": "b" * 16,
        "root": True,  # explicit marker wins over a stale parent field
        "name": "x",
    }
    assert Span.from_dict(payload).parent_id is None


# -- inject / extract -------------------------------------------------------


def test_inject_anchors_at_current_span():
    tracer = Tracer()
    assert tracer.inject() == {"trace_id": tracer.trace_id, "parent_span_id": None}
    with tracer.span("work") as span:
        ctx = tracer.inject()
        assert ctx == {"trace_id": tracer.trace_id, "parent_span_id": span.span_id}
    assert tracer.inject(span)["parent_span_id"] == span.span_id


@pytest.mark.parametrize(
    "carrier",
    [None, "nope", 42, {}, {"trace_id": ""}, {"trace_id": 7}, {"trace": "x"},
     {"trace_id": "t", "parent_span_id": 9}],
)
def test_extract_rejects_malformed_carriers(carrier):
    assert Tracer.extract(carrier) is None


def test_extract_accepts_bare_context_and_trace_field():
    ctx = {"trace_id": "t" * 32, "parent_span_id": "p" * 16}
    assert Tracer.extract(ctx) == ctx
    assert Tracer.extract({"type": "lease", "trace": ctx}) == ctx
    assert Tracer.extract({"type": "lease"}) is None


def test_remote_context_constructor_adopts_trace_id():
    parent = Tracer()
    with parent.span("serve") as serve:
        ctx = parent.inject()
    child = Tracer(remote_context=ctx)
    assert child.trace_id == parent.trace_id
    with child.span("remote.work") as span:
        pass
    assert span.trace_id == parent.trace_id
    assert span.parent_id == serve.span_id  # parented across the seam


def test_remote_parent_used_only_when_stack_empty():
    tracer = Tracer()
    ctx = {"trace_id": "f" * 32, "parent_span_id": "e" * 16}
    with tracer.span("detached", remote_parent=ctx) as detached:
        with tracer.span("nested", remote_parent=ctx) as nested:
            pass
    assert detached.parent_id == "e" * 16 and detached.trace_id == "f" * 32
    # the local stack wins: the span nests where it actually runs
    assert nested.parent_id == detached.span_id


# -- merge_remote -----------------------------------------------------------


def test_merge_remote_reparents_batch_roots_under_parent():
    remote = Tracer()
    with remote.span("remote.outer"):
        with remote.span("remote.inner"):
            pass
    local = Tracer()
    with local.span("supervisor.task") as task:
        pass
    adopted = local.merge_remote(remote.to_dicts(), parent=task)
    by_name = {s.name: s for s in adopted}
    assert by_name["remote.outer"].parent_id == task.span_id
    assert by_name["remote.outer"].trace_id == task.trace_id
    # intra-batch links survive the reparenting
    assert by_name["remote.inner"].parent_id == by_name["remote.outer"].span_id
    assert by_name["remote.inner"] in local.finished


def test_merge_remote_without_parent_keeps_shipped_links():
    parent = Tracer()
    with parent.span("distrib.serve") as serve:
        ctx = parent.inject()
    worker = Tracer(remote_context=ctx)
    with worker.span("worker.lease"):
        pass
    adopted = parent.merge_remote(worker.to_dicts())
    assert adopted[0].parent_id == serve.span_id  # wire contract: untouched


def test_merge_remote_dedupes_by_span_id():
    remote = Tracer()
    with remote.span("once"):
        pass
    local = Tracer()
    first = local.merge_remote(remote.to_dicts())
    second = local.merge_remote(remote.to_dicts())  # re-shipped batch
    assert len(first) == 1 and second == []
    assert len(local.find("once")) == 1


def test_merge_remote_skips_own_spans():
    """A shared-tracer harness (in-process test workers) re-ships spans
    the receiver already owns; ids it minted itself must not duplicate."""
    tracer = Tracer()
    with tracer.span("mine"):
        pass
    assert tracer.merge_remote(tracer.to_dicts()) == []
    assert len(tracer.find("mine")) == 1


def test_merge_remote_tolerates_garbage():
    tracer = Tracer()
    assert tracer.merge_remote([]) == []
    assert tracer.merge_remote([None, "x", {}, {"name": "no-id"}]) == []


def test_dicts_since_is_an_incremental_cursor():
    tracer = Tracer()
    with tracer.span("a"):
        pass
    batch, cursor = tracer.dicts_since(0)
    assert [d["name"] for d in batch] == ["a"]
    assert tracer.dicts_since(cursor)[0] == []
    with tracer.span("b"):
        pass
    batch, cursor = tracer.dicts_since(cursor)
    assert [d["name"] for d in batch] == ["b"]


def test_null_tracer_propagation_api_is_inert():
    assert NULL_TRACER.inject() is None
    assert NULL_TRACER.extract({"trace_id": "x"}) is None
    assert NULL_TRACER.merge_remote([{"span_id": "s"}]) == []
    assert NULL_TRACER.dicts_since(5) == ([], 0)
    with NULL_TRACER.span("x", remote_parent={"trace_id": "t"}):
        pass


# -- Prometheus exposition (satellite: header dedupe + grammar) -------------

#: one exposition line: a TYPE comment or a sample, per the text format
_EXPOSITION_LINE = re.compile(
    r"^(#\sTYPE\s[a-zA-Z_:][a-zA-Z0-9_:]*\scounter"
    r"|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\""
    r"(,[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\")*\})?\s[0-9eE+\-.]+)$"
)


def _assert_valid_exposition(text: str) -> None:
    assert text.endswith("\n")
    for line in text.rstrip("\n").split("\n"):
        assert _EXPOSITION_LINE.match(line), f"invalid exposition line: {line!r}"


def test_prometheus_headers_emitted_once_per_name():
    registry = MetricsRegistry()
    registry.counter("events_total", kind="a").inc(1)
    registry.counter("events_total", kind="b").inc(2)
    registry.counter("retries_total").inc(0.5)
    text = registry.to_prometheus()
    assert text.count("# TYPE events_total counter") == 1
    assert text.count("# TYPE retries_total counter") == 1
    assert "# HELP" not in text
    assert 'events_total{kind="a"} 1' in text
    assert 'events_total{kind="b"} 2' in text
    assert "retries_total 0.5" in text
    _assert_valid_exposition(text)
