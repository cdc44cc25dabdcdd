"""Error-budget audit layer: recorder, registry, auditor switchboard.

Covers the dual-path lockstep recorder (per-layer observed error vs the
predicted Inequality (3) envelope), AuditRecord round-trips through the
JSONL registry, diffing/drift detection, the pipeline wiring behind the
off-by-default null-object switch, and the auditor's run and violation
counts.
"""

import dataclasses
import json

import numpy as np
import pytest

from repro import obs
from repro.compress import SZCompressor
from repro.core import ErrorFlowAnalyzer, InferencePipeline, TolerancePlanner
from repro.core.pipeline import Certificate, PipelineResult
from repro.exceptions import IntegrityError, ShapeError
from repro.nn import Identity, Linear, ReLU, Sequential, Tanh
from repro.obs.audit import (
    NULL_AUDITOR,
    AuditRecord,
    Auditor,
    LayerAudit,
    LayerwiseErrorRecorder,
    VERDICT_LOOSE,
    VERDICT_OK,
    VERDICT_VIOLATION,
    classify,
)
from repro.obs.registry import RunRegistry, diff_runs
from repro.quant import BF16, FP16, INT8, TF32, STANDARD_FORMATS, quantize_model

_FORMATS = {"tf32": TF32, "fp16": FP16, "bf16": BF16, "int8": INT8}


@pytest.fixture(autouse=True)
def _pristine_auditor():
    """Every test starts and ends with the null auditor installed."""
    obs.disable_audit()
    yield
    obs.disable_audit()


_CERTIFICATE = Certificate(
    norm="linf", qoi_tolerance=1e-2, fmt="fp16", quant_bound=2e-3, input_tolerance=1e-3,
    codec_tolerance=1e-3, qoi_error=4e-3, input_error_linf=9e-4, input_error_l2_max=2e-3,
    codec_error=9e-4,
)


def _record(
    qoi_tightness=0.5,
    verdict=VERDICT_OK,
    layers=(),
    weights="a1",
    run_id="",
):
    return AuditRecord(
        qoi_predicted=1.0,
        qoi_observed=qoi_tightness,
        qoi_tightness=qoi_tightness,
        verdict=verdict,
        weights=weights,
        layers=list(layers),
        run_id=run_id,
        codec="sz",
        certificate=_CERTIFICATE,
    )


def _layer(index, name, tightness, verdict=VERDICT_OK):
    return LayerAudit(
        index=index,
        name=name,
        observed_l2=tightness,
        observed_linf=tightness / 2,
        predicted_bound=1.0,
        tightness=tightness,
        verdict=verdict,
    )


# -- classify ----------------------------------------------------------------


def test_classify_verdicts():
    assert classify(0.5, 1.0) == (0.5, VERDICT_OK)
    tightness, verdict = classify(2.0, 1.0)
    assert tightness == 2.0 and verdict == VERDICT_VIOLATION
    tightness, verdict = classify(0.001, 1.0)
    assert verdict == VERDICT_LOOSE
    # exactly attained bounds are ok, not violations
    assert classify(1.0, 1.0)[1] == VERDICT_OK


def test_classify_zero_bound_edges():
    # both zero: exactly tight, not a violation
    assert classify(0.0, 0.0) == (0.0, VERDICT_OK)
    tightness, verdict = classify(1e-3, 0.0)
    assert tightness == float("inf") and verdict == VERDICT_VIOLATION


# -- lockstep recorder -------------------------------------------------------


def _batch_result(recorder, clean, perturbed):
    """The result ``execute`` would hand the recorder for one batch run
    outside a pipeline: both forwards and the batch's worst per-sample
    input errors in the certificate."""
    delta = (clean - perturbed).reshape(len(clean), -1)
    certificate = dataclasses.replace(
        _CERTIFICATE,
        input_error_linf=float(np.abs(delta).max()),
        input_error_l2_max=float(np.linalg.norm(delta, axis=1).max()),
    )
    return PipelineResult(
        outputs=recorder.quantized(perturbed), reference_outputs=recorder.model(clean),
        blob=None, plan=None, compress_seconds=0.0, decompress_seconds=0.0,
        inference_seconds=0.0, certificate=certificate,
    )


def _audit_batch(recorder, clean, perturbed):
    return recorder.audit(_batch_result(recorder, clean, perturbed), clean, perturbed)


@pytest.mark.parametrize("name", sorted(_FORMATS))
def test_layerwise_observed_never_exceeds_envelope(trained_spectral_mlp, name):
    """Acceptance criterion: per-layer tightness <= 1.0 on a PSN MLP with
    SZ-compressed inputs, for every Table-I format."""
    fmt = _FORMATS[name]
    quantized = quantize_model(trained_spectral_mlp, fmt)
    recorder = LayerwiseErrorRecorder(trained_spectral_mlp, quantized)
    assert recorder.supports_layerwise()

    rng = np.random.default_rng(99)
    clean = rng.uniform(-1, 1, (64, 5)).astype(np.float32)
    codec = SZCompressor()
    blob = codec.compress(clean, 1e-3)
    perturbed = codec.decompress(blob)

    record = _audit_batch(recorder, clean, perturbed)
    assert record.layerwise
    assert len(record.layers) == 3
    for layer in record.layers:
        assert layer.verdict != VERDICT_VIOLATION
        assert layer.observed_l2 <= layer.predicted_bound * (1 + 1e-6)
        assert layer.observed_linf <= layer.observed_l2 + 1e-12
    assert record.qoi_tightness <= 1.0 + 1e-6
    assert record.violations == []


def test_layer_bounds_are_monotone_prefix_of_combined(trained_spectral_mlp):
    """The last trajectory element equals the closed-form combined bound."""
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    bounds = analyzer.layer_bounds(1e-3, FP16)
    assert len(bounds) == 3
    assert bounds[-1] == pytest.approx(analyzer.combined_bound(1e-3, FP16))
    assert all(b > 0 for b in bounds)


def test_recorder_detects_tampered_model(trained_spectral_mlp):
    """Breaking the quantized model after analysis must raise VIOLATION —
    the audit exists to catch exactly this class of silent drift."""
    quantized = quantize_model(trained_spectral_mlp, FP16)
    # sabotage: scale one materialized weight tensor well past any format
    quantized.model[2].weight.data = quantized.model[2].weight.data * 3.0
    recorder = LayerwiseErrorRecorder(trained_spectral_mlp, quantized)
    rng = np.random.default_rng(5)
    clean = rng.uniform(-1, 1, (32, 5)).astype(np.float32)
    record = _audit_batch(recorder, clean, clean)
    assert record.verdict == VERDICT_VIOLATION
    assert record.violations


def test_recorder_shape_mismatch_raises(trained_spectral_mlp):
    quantized = quantize_model(trained_spectral_mlp, FP16)
    recorder = LayerwiseErrorRecorder(trained_spectral_mlp, quantized)
    batch = np.zeros((4, 5), dtype=np.float32)
    with pytest.raises(ShapeError):
        recorder.audit(_batch_result(recorder, batch, batch), batch, batch[:3])


def _residual_case(rng):
    from repro.nn.residual import ResidualBlock

    model = Sequential(
        Linear(5, 6, rng=rng),
        ReLU(),
        ResidualBlock(Sequential(Linear(6, 6, rng=rng), Tanh())),
        Linear(6, 2, rng=rng),
        Identity(),
    )
    model.eval()
    plan = TolerancePlanner(ErrorFlowAnalyzer(model)).plan(1e-2, norm="linf")
    return model, plan, _fields(rng), None


@pytest.mark.parametrize("case", ["residual", "eurosat"])
def test_a_qoi_only_audit_reads_the_result_and_runs_no_forward(rng, monkeypatch, case):
    """On a model that is not a flat chain (a residual block, a conv
    ResNet) the audit scores the run's own outputs: once the recorder
    exists (its spec extraction traces the model once per pipeline), an
    audited ``execute`` makes exactly the module calls an unaudited one
    makes, and the record's observed error is the result's L2 QoI error,
    bit for bit."""
    from repro.nn.module import Module
    from tests.conftest import one_cpu
    from tests.test_core_pipeline_lanes import _eurosat_case

    model, plan, fields, reshape = _eurosat_case() if case == "eurosat" else _residual_case(rng)
    pipeline = InferencePipeline(model, SZCompressor(), plan)
    calls = []
    real_call = Module.__call__
    monkeypatch.setattr(
        Module, "__call__", lambda self, *a, **kw: calls.append(1) or real_call(self, *a, **kw)
    )
    with one_cpu():  # every forward whole, so the call count is exact
        pipeline.execute(fields, samples_from_fields=reshape)
        unaudited = len(calls)
        with obs.audit_capture() as auditor:
            pipeline.execute(fields, samples_from_fields=reshape)
            del calls[:]
            result = pipeline.execute(fields, samples_from_fields=reshape)
    assert len(calls) == unaudited
    record = auditor.records[-1]
    assert not record.layerwise and record.layers == []
    assert record.qoi_observed == result.qoi_error("l2")
    assert record.qoi_predicted == pipeline._audit_recorder.analyzer.combined_bound(
        result.certificate.input_error_l2_max, pipeline.quantized.formats
    )
    assert record.verdict != VERDICT_VIOLATION


def test_a_layerwise_envelope_is_seeded_with_the_certified_input_error(trained_spectral_mlp, rng):
    pipeline = _pipeline(trained_spectral_mlp)
    with obs.audit_capture() as auditor:
        result = pipeline.execute(_fields(rng))
    (record,) = auditor.records
    analyzer = pipeline._audit_recorder.analyzer
    assert [layer.predicted_bound for layer in record.layers] == analyzer.layer_bounds(
        result.certificate.input_error_l2_max, pipeline.quantized.formats
    )


# -- record serialization ----------------------------------------------------


def test_audit_record_round_trip():
    record = _record(layers=[_layer(0, "0", 0.4), _layer(1, "2", 0.6)])
    clone = AuditRecord.from_dict(record.to_dict())
    assert clone == record
    # the run's errors are the certificate's, never copied beside it
    assert not set(record.to_dict()) & set(_CERTIFICATE.to_dict())
    bare = AuditRecord.from_dict(dict(record.to_dict(), certificate=None))
    assert bare.certificate is None and bare.to_dict()["certificate"] is None


@pytest.mark.parametrize("certificate", [
    {**_CERTIFICATE.to_dict(), "qoi_error": "0.004"},
    {**_CERTIFICATE.to_dict(), "norm": "l1"},
    {**_CERTIFICATE.to_dict(), "codec_error": float("nan")},
    {k: v for k, v in _CERTIFICATE.to_dict().items() if k != "fmt"},
    {**_CERTIFICATE.to_dict(), "kind": "verified"},
    "linf", [], 0.01,
])
def test_audit_record_refuses_a_malformed_certificate(certificate):
    """The record's certificate goes through the strict reader."""
    payload = dict(_record().to_dict(), certificate=certificate)
    with pytest.raises(IntegrityError, match="certificate"):
        AuditRecord.from_dict(payload)


def test_violations_property():
    ok = _record()
    assert ok.violations == []
    layered = _record(
        verdict=VERDICT_VIOLATION,
        layers=[_layer(0, "0", 0.4), _layer(1, "2", 2.0, VERDICT_VIOLATION)],
    )
    assert layered.violations == ["2"]
    qoi_only = _record(verdict=VERDICT_VIOLATION)
    assert qoi_only.violations == ["qoi"]


# -- registry ----------------------------------------------------------------


def _run_ids(registry):
    return [run["run_id"] for run in registry.runs()]


def _diff(registry, key_a, key_b, **kwargs):
    return diff_runs(registry.get(key_a), registry.get(key_b), **kwargs)


def test_registry_assigns_sequential_run_ids(tmp_path):
    registry = RunRegistry(str(tmp_path / "reg.jsonl"))
    assert len(registry) == 0
    first = registry.append(_record())
    second = registry.append(_record())
    assert first["run_id"] == "run-0001"
    assert second["run_id"] == "run-0002"
    assert _run_ids(registry) == ["run-0001", "run-0002"]
    # records carrying an id keep it, and the next id counts them
    third = registry.append(_record(run_id="import-7"))
    assert third["run_id"] == "import-7"
    assert registry.append(_record())["run_id"] == "run-0004"


def test_registry_append_does_not_reread_the_file(tmp_path, monkeypatch):
    """An audited chunked run appends once per chunk: numbering a run must
    not send every earlier line through the JSON parser again."""
    import builtins

    path = str(tmp_path / "reg.jsonl")
    reads = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) == path:
            reads.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    registry = RunRegistry(path)
    ids = [registry.append(_record())["run_id"] for _ in range(50)]
    assert reads == []
    assert ids == [f"run-{n:04d}" for n in range(1, 51)]
    assert _run_ids(registry) == ids


def test_registry_ids_follow_file_order_across_writers(tmp_path):
    """Two registries on one file appending in turn number their runs in
    file order: each sees what the other wrote since its last append."""
    path = str(tmp_path / "reg.jsonl")
    first, second = RunRegistry(path), RunRegistry(path)
    ids = [
        writer.append(_record())["run_id"]
        for writer in (first, second, first, first, second)
    ]
    assert ids == [f"run-{n:04d}" for n in range(1, 6)]
    assert _run_ids(RunRegistry(path)) == ids


def test_registry_get_by_id_and_index(tmp_path):
    registry = RunRegistry(str(tmp_path / "reg.jsonl"))
    registry.append(_record(qoi_tightness=0.1))
    registry.append(_record(qoi_tightness=0.2))
    assert registry.get("run-0002")["qoi_tightness"] == 0.2
    assert registry.get(0)["qoi_tightness"] == 0.1
    assert registry.get(-1)["qoi_tightness"] == 0.2
    # the CLI hands an index over as a string
    assert registry.get("0")["qoi_tightness"] == 0.1
    assert registry.get("-1")["qoi_tightness"] == 0.2
    with pytest.raises(KeyError):
        registry.get("run-9999")
    with pytest.raises(KeyError):
        registry.get(7)


def test_registry_round_trip_preserves_record(tmp_path):
    registry = RunRegistry(str(tmp_path / "reg.jsonl"))
    record = _record(layers=[_layer(0, "0", 0.4)])
    registry.append(record)
    loaded = AuditRecord.from_dict(registry.get("run-0001"))
    record.run_id = "run-0001"
    assert loaded == record


def test_registry_tolerates_torn_trailing_line(tmp_path):
    path = tmp_path / "reg.jsonl"
    registry = RunRegistry(str(path))
    registry.append(_record())
    with open(path, "a") as handle:
        handle.write('{"run_id": "run-0002", "qoi_tigh')  # crashed writer
    assert _run_ids(registry) == ["run-0001"]


def test_registry_appends_after_a_torn_line_are_kept(tmp_path):
    """An append after a crashed writer's torn line starts on a line of
    its own: the runs it and later appends register are read back, and
    the torn bytes never make the registry unreadable."""
    path = tmp_path / "reg.jsonl"
    registry = RunRegistry(str(path))
    registry.append(_record())
    with open(path, "a") as handle:
        handle.write('{"run_id": "run-0002", "qoi_tigh')  # crashed writer
    assert registry.append(_record())["run_id"] == "run-0002"
    assert _run_ids(registry) == ["run-0001", "run-0002"]
    assert registry.append(_record())["run_id"] == "run-0003"
    assert _run_ids(RunRegistry(str(path))) == ["run-0001", "run-0002", "run-0003"]


def test_registry_rejects_mid_file_corruption(tmp_path):
    path = tmp_path / "reg.jsonl"
    registry = RunRegistry(str(path))
    registry.append(_record())
    registry.append(_record())
    lines = path.read_text().splitlines()
    lines[0] = lines[0][:20]  # corrupt a non-final record
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(IntegrityError):
        registry.runs()


# -- diff / drift ------------------------------------------------------------


def _two_run_registry(tmp_path, tightness_a, tightness_b, weights=("a1", "b2")):
    registry = RunRegistry(str(tmp_path / "reg.jsonl"))
    registry.append(
        _record(
            layers=[_layer(i, str(i), t) for i, t in enumerate(tightness_a)],
            weights=weights[0],
        )
    )
    registry.append(
        _record(
            layers=[_layer(i, str(i), t) for i, t in enumerate(tightness_b)],
            weights=weights[1],
        )
    )
    return registry


def test_diff_reports_tightness_delta_and_weight_versions(tmp_path):
    registry = _two_run_registry(tmp_path, [0.4, 0.5], [0.45, 0.8])
    diff = _diff(registry, "run-0001", "run-0002", threshold=0.2)
    assert diff["weights_changed"]
    assert diff["weights_a"] == "a1" and diff["weights_b"] == "b2"
    rows = {row["name"]: row for row in diff["layers"]}
    assert rows["0"]["delta"] == pytest.approx(0.05)
    assert not rows["0"]["regressed"]  # +12.5% < 20% threshold
    assert rows["1"]["regressed"]  # +60% > 20% threshold
    assert diff["regressions"] == ["1"]


def test_diff_flags_new_violations(tmp_path):
    registry = RunRegistry(str(tmp_path / "reg.jsonl"))
    registry.append(_record(layers=[_layer(0, "0", 0.9)]))
    registry.append(
        _record(layers=[_layer(0, "0", 1.5, VERDICT_VIOLATION)], weights="b2")
    )
    diff = _diff(registry, 0, 1)
    assert diff["new_violations"] == ["0"]
    assert diff["regressions"] == ["0"]


def test_diff_reports_structure_changes(tmp_path):
    registry = RunRegistry(str(tmp_path / "reg.jsonl"))
    registry.append(_record(layers=[_layer(0, "0", 0.4), _layer(1, "extra", 0.4)]))
    registry.append(_record(layers=[_layer(0, "0", 0.4)]))
    diff = _diff(registry, 0, 1)
    assert diff["structure_changed"] == ["extra"]


def test_detect_drift_needs_two_runs(tmp_path, capsys):
    """``repro audit report`` diffs the last run against its predecessor,
    so a registry with fewer than two runs reports no drift."""
    from repro.cli import main

    path = str(tmp_path / "reg.jsonl")
    registry = RunRegistry(path)
    registry.append(_record())
    assert main(["audit", "report", path]) == 0
    assert "audit diff" not in capsys.readouterr().out
    registry.append(_record())
    assert main(["audit", "report", path]) == 0
    out = capsys.readouterr().out
    assert "audit diff run-0001 -> run-0002" in out
    assert "no drift beyond 20% threshold" in out


# -- auditor switchboard -----------------------------------------------------


def test_default_auditor_is_null():
    auditor = obs.get_auditor()
    assert auditor is NULL_AUDITOR
    assert not auditor.enabled
    assert auditor.records == []
    assert auditor.violation_count == 0


def test_enable_disable_audit(tmp_path):
    auditor = obs.enable_audit(registry=str(tmp_path / "reg.jsonl"), label="x")
    assert obs.get_auditor() is auditor and auditor.enabled
    assert isinstance(auditor.registry, RunRegistry)
    obs.disable_audit()
    assert obs.get_auditor() is NULL_AUDITOR


def test_audit_capture_restores_previous():
    outer = obs.enable_audit()
    with obs.audit_capture() as inner:
        assert obs.get_auditor() is inner
    assert obs.get_auditor() is outer


def test_audit_capture_restores_on_exception():
    with pytest.raises(RuntimeError):
        with obs.audit_capture():
            raise RuntimeError("boom")
    assert obs.get_auditor() is NULL_AUDITOR


def test_record_run_backfills_run_id_and_label(tmp_path):
    auditor = Auditor(
        registry=RunRegistry(str(tmp_path / "reg.jsonl")), label="nightly"
    )
    record = auditor.record_run(_record())
    assert record.run_id == "run-0001"
    assert record.label == "nightly"
    assert record.created_unix > 0
    assert auditor.records == [record]


def test_record_run_emits_metrics():
    """An auditor's run and violation counts are its records and the
    violations they carry; nothing else counts them."""
    auditor = Auditor()
    auditor.record_run(_record(layers=[_layer(0, "0", 0.4)]))
    violated = auditor.record_run(
        _record(
            qoi_tightness=2.0,
            verdict=VERDICT_VIOLATION,
            layers=[_layer(0, "0", 2.0, VERDICT_VIOLATION)],
        )
    )
    # the run count is the records kept, the violations those records carry
    assert len(auditor.records) == 2
    assert auditor.violation_count == 1
    assert violated.violations and violated.codec == "sz"


# -- pipeline wiring ---------------------------------------------------------


def _pipeline(trained_spectral_mlp, tolerance=1e-3):
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    plan = TolerancePlanner(analyzer).plan(tolerance, norm="linf")
    return InferencePipeline(trained_spectral_mlp, SZCompressor(), plan)


def _fields(rng, rows=48):
    # (V, H, W) layout whose default reshape yields (H*W, V) samples
    return rng.uniform(-1, 1, (5, rows, 4)).astype(np.float32)


def test_pipeline_audit_disabled_is_inert(trained_spectral_mlp, rng, monkeypatch):
    """With the null auditor installed the audit path must never run —
    asserted by making every entry point explode if touched."""
    import repro.obs.audit as audit_module

    def _boom(*args, **kwargs):
        raise AssertionError("audit path entered while disabled")

    monkeypatch.setattr(audit_module, "LayerwiseErrorRecorder", _boom)
    monkeypatch.setattr(NULL_AUDITOR.__class__, "record_run", _boom)
    pipeline = _pipeline(trained_spectral_mlp)
    result = pipeline.execute(_fields(rng))
    assert "audit" not in result.extra


def test_pipeline_audit_records_run(trained_spectral_mlp, rng, tmp_path):
    path = tmp_path / "reg.jsonl"
    pipeline = _pipeline(trained_spectral_mlp)
    with obs.audit_capture(registry=str(path), label="unit") as auditor:
        result = pipeline.execute(_fields(rng))
    assert len(auditor.records) == 1
    record = auditor.records[0]
    assert record.run_id == "run-0001"
    assert record.codec == "sz" and record.certificate == result.certificate
    assert record.label == "unit"
    assert record.layerwise and len(record.layers) == 3
    payload = result.extra["audit"]
    assert payload["run_id"] == "run-0001"
    assert payload["qoi_tightness"] <= 1.0 + 1e-6
    # persisted and identical
    assert RunRegistry(str(path)).get("run-0001") == record.to_dict()


def test_pipeline_audit_chunked_one_record_per_chunk(
    trained_spectral_mlp, rng, tmp_path
):
    path = tmp_path / "reg.jsonl"
    pipeline = _pipeline(trained_spectral_mlp)
    with obs.audit_capture(registry=str(path)) as auditor:
        pipeline.execute_chunked(_fields(rng), chunk_size=16, workers=2, chunk_axis=1)
    assert len(auditor.records) == 3
    registry = RunRegistry(str(path))
    assert len(registry) == 3
    assert sorted(_run_ids(registry)) == ["run-0001", "run-0002", "run-0003"]
    for run in registry.runs():
        assert run["verdict"] != VERDICT_VIOLATION


def test_pipeline_audit_failure_degrades_to_warning(
    trained_spectral_mlp, rng, monkeypatch, capsys
):
    """A broken audit must never kill the pipeline run it observes."""
    from repro.exceptions import ToleranceError

    pipeline = _pipeline(trained_spectral_mlp)

    def _raise(*args, **kwargs):
        raise ToleranceError("synthetic audit failure")

    monkeypatch.setattr(
        LayerwiseErrorRecorder, "audit", _raise
    )
    with obs.audit_capture() as auditor:
        result = pipeline.execute(_fields(rng))
    assert auditor.records == []
    assert "audit" not in result.extra
    assert "audit skipped" in capsys.readouterr().err


def test_pipeline_audit_weight_version_tracks_model(
    trained_spectral_mlp, rng, tmp_path
):
    """The record's ``weights`` is the model's parameter digest, not
    ``Module.weight_version()``: reloading the same state dict bumps the
    counter but reads as unchanged weights in the registry diff, and one
    changed weight reads as changed."""
    from repro.io.checkpoint import digest_model
    from repro.reporting import describe_audit_diff

    path = tmp_path / "reg.jsonl"
    pipeline = _pipeline(trained_spectral_mlp)
    fields = _fields(rng)
    state = trained_spectral_mlp.state_dict()
    version = trained_spectral_mlp.weight_version()
    changed = {name: value.copy() for name, value in state.items()}
    changed["0.raw_weight"].flat[0] += 1e-3
    try:
        with obs.audit_capture(registry=str(path)):
            pipeline.execute(fields)
            trained_spectral_mlp.load_state_dict(state)
            assert trained_spectral_mlp.weight_version() > version
            pipeline.execute(fields)
            trained_spectral_mlp.load_state_dict(changed)
            pipeline.execute(fields)
        registry = RunRegistry(str(path))
        same, moved = _diff(registry, 0, 1), _diff(registry, 1, 2)
        assert not same["weights_changed"] and same["weights_a"] == same["weights_b"]
        assert moved["weights_changed"]
        assert moved["weights_b"] == digest_model(trained_spectral_mlp)
        assert "weights unchanged" in describe_audit_diff(same)
        assert "weights changed" in describe_audit_diff(moved)
    finally:
        trained_spectral_mlp.load_state_dict(state)


@pytest.mark.parametrize("case", ["h2combustion", "borghesi", "eurosat"])
def test_the_places_that_report_a_qoi_error_agree(case):
    """One traced, audited ``execute``: the ``AuditRecord``, the result and
    the ``pipeline.execute`` span report the same QoI error.  A layerwise
    audit measures it on its own hooked forwards, so it agrees with the
    result to rounding; a QoI-only one (EuroSAT) reads the result's."""
    from tests.test_core_pipeline_lanes import _eurosat_case, _workload_case

    model, plan, fields, reshape = (
        _eurosat_case() if case == "eurosat" else _workload_case(case)
    )
    pipeline = InferencePipeline(model, SZCompressor(), plan)
    with obs.capture() as (tracer, _), obs.audit_capture() as auditor:
        result = pipeline.execute(fields, samples_from_fields=reshape)
    (record,) = auditor.records
    assert record.qoi_observed == pytest.approx(
        result.qoi_error("l2"), rel=1e-6
    )
    assert record.certificate == result.certificate
    (root,) = tracer.find("pipeline.execute")
    assert root.attributes["observed_error"] == result.qoi_error(plan.norm)


def test_registry_append_handles_numpy_values(tmp_path):
    """Measured errors often arrive as numpy scalars; the registry's
    JSON encoding must absorb them."""
    registry = RunRegistry(str(tmp_path / "reg.jsonl"))
    record = _record()
    record.qoi_observed = np.float32(0.5)
    record.layers = [_layer(np.int64(12), "12", 0.25)]
    registry.append(record)
    loaded = registry.get(0)
    assert (loaded["qoi_observed"], loaded["layers"][0]["index"]) == (0.5, 12)
    json.dumps(loaded)  # fully JSON-native after the round trip
