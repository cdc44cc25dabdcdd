"""Tests for the observability layer: tracing and logging.

Covers span nesting and ordering, JSONL round-trips, the structured
logger, the global enable/disable switchboard, the near-zero cost of the
disabled (null) mode, and that every measurement and every count lives
on a span.
"""

import json
import time

import numpy as np
import pytest

from repro import obs
from repro.compress import ErrorBoundMode, SZCompressor
from repro.core import InferencePipeline, TolerancePlanner
from repro.core.errorflow import ErrorFlowAnalyzer
from repro.io import read_jsonl_records
from repro.nn import MSELoss, SGD, Trainer
from repro.obs import (
    LEVELS,
    NULL_TRACER,
    Tracer,
    get_logger,
    get_tracer,
    set_log_level,
)


@pytest.fixture(autouse=True)
def _restore_log_level():
    yield
    set_log_level("info")


# -- tracer -----------------------------------------------------------------


def test_span_nesting_parent_ids_and_depth():
    tracer = Tracer()
    with tracer.span("outer") as outer:
        with tracer.span("middle") as middle:
            with tracer.span("inner") as inner:
                pass
    assert outer.parent_id is None and outer.depth == 0
    assert middle.parent_id == outer.span_id and middle.depth == 1
    assert inner.parent_id == middle.span_id and inner.depth == 2
    # completion order: innermost finishes first
    assert [s.name for s in tracer.finished] == ["inner", "middle", "outer"]
    assert tracer.roots == [outer]
    assert tracer.children(outer) == [middle]


def test_sibling_spans_share_parent():
    tracer = Tracer()
    with tracer.span("root") as root:
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
    a, b = tracer.find("a")[0], tracer.find("b")[0]
    assert a.parent_id == root.span_id and b.parent_id == root.span_id
    assert [c.name for c in tracer.children(root)] == ["a", "b"]


def test_span_attributes_creation_set_and_posthoc():
    tracer = Tracer()
    with tracer.span("work", codec="sz") as span:
        span.set(ratio=2.5)
    span.set(observed_error=1e-4)  # post-hoc enrichment after exit
    assert span.attributes == {"codec": "sz", "ratio": 2.5, "observed_error": 1e-4}


def test_span_durations_and_total_seconds():
    tracer = Tracer()
    for __ in range(3):
        with tracer.span("tick"):
            time.sleep(0.001)
    assert len(tracer.find("tick")) == 3
    assert all(s.duration_s >= 0.001 for s in tracer.find("tick"))
    assert tracer.total_seconds("tick") == pytest.approx(
        sum(s.duration_s for s in tracer.find("tick"))
    )
    assert tracer.total_seconds("absent") == 0.0


def test_tracer_current_tracks_active_span():
    tracer = Tracer()
    assert tracer.current() is None
    with tracer.span("a") as a:
        assert tracer.current() is a
        with tracer.span("b") as b:
            assert tracer.current() is b
        assert tracer.current() is a
    assert tracer.current() is None


def test_span_survives_exception():
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.span("doomed"):
            raise RuntimeError("boom")
    (doomed,) = tracer.find("doomed")
    # the failure is recorded on the span it crossed, by exception type
    assert doomed.attributes["error"] == "RuntimeError"
    with tracer.span("fine") as fine:
        pass
    assert "error" not in fine.attributes


def test_out_of_order_exit_tolerated():
    tracer = Tracer()
    outer = tracer.span("outer").__enter__()
    tracer.span("leaked").__enter__()  # never exited explicitly
    outer.__exit__(None, None, None)  # pops the leaked span too
    assert tracer.current() is None
    assert "outer" in [s.name for s in tracer.finished]


def test_jsonl_round_trip(tmp_path):
    tracer = Tracer()
    with tracer.span("root", codec="sz"):
        with tracer.span("child") as child:
            child.set(ratio=2.0)
    path = str(tmp_path / "trace.jsonl")
    tracer.export_jsonl(path)
    rows = read_jsonl_records(path)
    assert rows == tracer.to_dicts()
    child_row = next(r for r in rows if r["name"] == "child")
    assert child_row["attributes"] == {"ratio": 2.0}
    assert child_row["parent_id"] == next(
        r["span_id"] for r in rows if r["name"] == "root"
    )
    # each line is independently parseable JSON
    with open(path) as handle:
        assert all(json.loads(line) for line in handle if line.strip())


def test_torn_trace_rereads_its_intact_spans(tmp_path):
    """A trace whose last line a kill cut mid-write still loads the spans
    written before it."""
    tracer = Tracer()
    with tracer.span("intact"):
        pass
    with tracer.span("torn"):
        pass
    path = tmp_path / "trace.jsonl"
    tracer.export_jsonl(str(path))
    data = path.read_bytes()
    path.write_bytes(data[: data.rindex(b'"torn"')])
    (row,) = read_jsonl_records(str(path))
    assert row == tracer.to_dicts()[0]
    assert row["name"] == "intact"


def test_render_tree_structure():
    tracer = Tracer()
    with tracer.span("root"):
        with tracer.span("big"):
            time.sleep(0.01)
        with tracer.span("small", detail=1):
            pass
    tree = tracer.render_tree()
    lines = tree.splitlines()
    assert lines[0].startswith("root")
    assert any(line.lstrip().startswith("big") for line in lines)
    assert "[detail=1]" in tree


# -- global switchboard -----------------------------------------------------


def test_defaults_are_null_objects():
    assert get_tracer() is NULL_TRACER
    assert not get_tracer().enabled


def test_capture_installs_and_restores():
    assert get_tracer() is NULL_TRACER
    with obs.capture() as (tracer, _):
        assert get_tracer() is tracer
        assert get_tracer().enabled
        with tracer.span("inside"):
            pass
    assert get_tracer() is NULL_TRACER
    assert len(tracer.finished) == 1  # results outlive the scope


def test_capture_yields_tracer_and_none():
    """``benchmarks/e2e/e2e_ledger.py`` line 353 unpacks ``obs.capture()``
    as ``(tracer, _metrics)``, so the pair stays until that benchmark
    file unpacks the tracer alone."""
    with obs.capture() as pair:
        assert pair == (get_tracer(), None)
    assert obs.enable() is get_tracer()
    obs.disable()
    assert get_tracer() is NULL_TRACER


def test_capture_nests_and_restores_outer():
    with obs.capture() as (outer_tracer, __):
        with obs.capture() as (inner_tracer, __m):
            assert get_tracer() is inner_tracer
        assert get_tracer() is outer_tracer


def test_capture_restores_on_exception():
    with pytest.raises(RuntimeError):
        with obs.capture():
            raise RuntimeError("boom")
    assert get_tracer() is NULL_TRACER


def test_null_tracer_is_allocation_free_and_cheap(tmp_path):
    span_a = NULL_TRACER.span("a", attr=1)
    span_b = NULL_TRACER.span("b")
    assert span_a is span_b  # shared singleton: no per-call allocation
    with span_a as entered:
        assert entered.set(x=1) is entered
    assert NULL_TRACER.find("a") == [] and NULL_TRACER.to_dicts() == []
    assert NULL_TRACER.render_tree() == ""
    path = str(tmp_path / "empty.jsonl")
    NULL_TRACER.export_jsonl(path)
    with open(path) as fh:
        assert fh.read() == ""  # the export writes an empty file
    assert read_jsonl_records(path) == []
    # the disabled hot path must stay near-zero: well under 5us per span
    n = 20_000
    start = time.perf_counter()
    for __ in range(n):
        with NULL_TRACER.span("x"):
            pass
    assert (time.perf_counter() - start) / n < 5e-6


def test_disabled_codec_path_records_nothing(smooth_field_2d):
    codec = SZCompressor()
    codec.compress(smooth_field_2d, 1e-3, ErrorBoundMode.ABS)
    assert get_tracer() is NULL_TRACER  # still disabled, nothing leaked
    with obs.capture() as (tracer, _):
        pass  # the pre-capture compress left no trace
    assert tracer.finished == []


# -- logger -----------------------------------------------------------------


def test_plain_format_matches_print(capsys):
    get_logger("t").info("compression ratio: 2.21x")
    assert capsys.readouterr().out == "compression ratio: 2.21x\n"


def test_plain_format_appends_context(capsys):
    get_logger("t").info("loaded", entries=3, codec="sz", note="two words")
    assert capsys.readouterr().out == 'loaded entries=3 codec=sz note="two words"\n'


def test_warning_and_error_go_to_stderr(capsys):
    logger = get_logger("t")
    logger.warning("watch out")
    logger.error("TOLERANCE VIOLATED")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "watch out\nTOLERANCE VIOLATED\n"


def test_level_threshold_filters(capsys):
    logger = get_logger("t")
    logger.debug("hidden")
    assert capsys.readouterr().out == ""
    set_log_level("debug")
    logger.debug("visible")
    assert capsys.readouterr().out == "visible\n"
    set_log_level("error")
    logger.info("hidden again")
    assert capsys.readouterr().out == ""
    logger.error("shown")
    assert capsys.readouterr().err == "shown\n"


def test_logger_registry_and_validation():
    assert get_logger("same") is get_logger("same")
    assert get_logger("same") is not get_logger("other")
    with pytest.raises(ValueError, match="unknown log level"):
        set_log_level("loud")
    assert set(LEVELS) == {"debug", "info", "warning", "error"}


# -- instrumented subsystems ------------------------------------------------


def test_codec_spans_and_metrics(smooth_field_2d):
    """A codec call's measurements live on its span, and its call count is
    the number of its spans."""
    codec = SZCompressor()
    with obs.capture() as (tracer, _):
        blob = codec.compress(smooth_field_2d, 1e-3, ErrorBoundMode.ABS)
        codec.decompress(blob)
    compress_span = tracer.find("codec.compress")[0]
    assert compress_span.attributes["codec"] == "sz"
    assert compress_span.attributes["ratio"] == pytest.approx(blob.compression_ratio)
    assert len(tracer.find("codec.compress")) == 1
    assert len(tracer.find("codec.decompress")) == 1


def test_pipeline_spans_carry_bounds_and_observed_errors(trained_spectral_mlp, rng):
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp, (5,))
    plan = TolerancePlanner(analyzer).plan(1e-2, norm="linf", quant_fraction=0.5)
    pipe = InferencePipeline(trained_spectral_mlp, SZCompressor(), plan)
    fields = rng.uniform(-1, 1, (5, 16, 16)).astype(np.float32)
    with obs.capture() as (tracer, _):
        result = pipe.execute(fields)
    (root,) = tracer.find("pipeline.execute")  # one execute, one span
    assert root.attributes["codec"] == "sz"
    assert root.attributes["compression_ratio"] == pytest.approx(result.compression_ratio)
    # the acceptance criterion: every stage span carries both the
    # predicted bound and the observed error
    for stage in ("pipeline.compress", "pipeline.decompress", "pipeline.inference", "pipeline.guard"):
        spans = tracer.find(stage)
        assert len(spans) == 1, stage
        assert "predicted_bound" in spans[0].attributes, stage
        assert "observed_error" in spans[0].attributes, stage
    guard = tracer.find("pipeline.guard")[0]
    assert guard.attributes["observed_error"] <= guard.attributes["predicted_bound"]
    assert guard.attributes["contract_slack"] >= 0
    # stage times are the stage spans' durations, recorded nowhere else
    for stage in ("compress", "decompress", "inference"):
        assert tracer.find(f"pipeline.{stage}")[0].duration_s > 0


def test_every_measurement_lives_on_a_span(trained_spectral_mlp, rng):
    """Each number docs/OBSERVABILITY.md's "Where each number lives" table
    sends to a span is there after one traced ``--instrument-ops`` run."""
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp, (5,))
    plan = TolerancePlanner(analyzer).plan(1e-2, norm="linf", quant_fraction=0.5)
    fields = rng.uniform(-1, 1, (5, 16, 16)).astype(np.float32)
    with obs.capture() as (tracer, _):
        pipe = InferencePipeline(
            trained_spectral_mlp, SZCompressor(), plan, backend="fused", instrument_ops=True
        )
        result = pipe.execute(fields)
    (root,) = tracer.find("pipeline.execute")
    assert root.attributes["compression_ratio"] == result.compression_ratio
    assert root.attributes["observed_error"] == result.qoi_error("linf")
    (compress,) = tracer.find("codec.compress")
    assert compress.attributes["ratio"] == result.blob.compression_ratio
    (inference,) = tracer.find("pipeline.inference")
    backend = result.extra["backend"]
    assert inference.attributes["op_labels"] == backend["op_labels"]
    assert inference.attributes["op_seconds"] == backend["op_seconds"]
    assert len(backend["op_seconds"]) == len(backend["op_labels"]) > 0
    (quantize,) = tracer.find("quant.quantize_model")
    assert quantize.attributes["step_sizes"] == list(pipe.quantized.step_sizes)
    assert tracer.find("pipeline.reference") and tracer.find("backend.compile")


def test_trainer_spans(tiny_mlp, rng):
    inputs = rng.uniform(-1, 1, (64, 6)).astype(np.float32)
    targets = rng.uniform(-1, 1, (64, 4)).astype(np.float32)
    trainer = Trainer(tiny_mlp, MSELoss(), SGD(tiny_mlp.parameters(), lr=0.01))
    with obs.capture() as (tracer, _):
        trainer.fit(inputs, targets, epochs=2, batch_size=32, rng=rng)
    fit = tracer.find("trainer.fit")[0]
    assert fit.attributes["epochs_run"] == 2
    epochs = tracer.find("trainer.epoch")
    assert [s.attributes["epoch"] for s in epochs] == [0, 1]
    assert all(s.parent_id == fit.span_id for s in epochs)
    assert sum(s.attributes["batches"] for s in epochs) == 4  # 2 epochs x 2 batches


# -- telemetry export hardening (numpy attribute values) --------------------


def test_export_jsonl_survives_numpy_attributes(tmp_path):
    from repro.obs import json_default

    tracer = Tracer()
    with tracer.span(
        "stage",
        error=np.float32(1.5),
        rows=np.int64(42),
        shape=np.array([2, 3]),
        flags={"b", "a"},
    ):
        pass
    path = tmp_path / "trace.jsonl"
    tracer.export_jsonl(str(path))
    (record,) = read_jsonl_records(str(path))
    assert record["attributes"]["error"] == 1.5
    assert record["attributes"]["rows"] == 42
    assert record["attributes"]["shape"] == [2, 3]
    assert record["attributes"]["flags"] == ["a", "b"]
    # the converter itself: scalars via tolist, exotic objects via str
    assert json_default(np.float64(2.0)) == 2.0
    assert isinstance(json_default(object()), str)


