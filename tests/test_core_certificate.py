"""The run certificate: one typed record, serialized one way, measured once.

``Certificate.to_dict``/``from_dict`` are the only writer and reader of a
certificate (journal entry, wire, replay check), so ``from_dict`` is held
to a strict schema here; and one computation run in several modes must
certify exactly what an independent measurement over its assembled
outputs gives.
"""

from __future__ import annotations

import dataclasses
import json
import shutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import SZCompressor, ZFPCompressor
from repro.compress.base import ErrorBoundMode
from repro.core.chunked import split_chunks
from repro.core.errorflow import ErrorFlowAnalyzer
from repro.core.pipeline import Certificate, InferencePipeline
from repro.core.planner import TolerancePlanner
from repro.exceptions import IntegrityError
from repro.nn import Conv2d, Flatten, Linear, Sequential, Tanh
from repro.resilience.supervisor import fork_available

needs_fork = pytest.mark.skipif(not fork_available(), reason="the process pool forks")

_ERRORS = st.floats(min_value=0.0, max_value=1e300, allow_nan=False, allow_infinity=False)

_CERTIFICATES = st.builds(
    Certificate,
    norm=st.sampled_from(["linf", "l2"]),
    qoi_tolerance=_ERRORS,
    fmt=st.text(min_size=1, max_size=8),
    quant_bound=_ERRORS,
    input_tolerance=_ERRORS,
    codec_tolerance=_ERRORS,
    qoi_error=_ERRORS,
    input_error_linf=_ERRORS,
    input_error_l2_max=_ERRORS,
    codec_error=_ERRORS,
)

_NUMBERS = (
    "qoi_tolerance", "quant_bound", "input_tolerance", "codec_tolerance",
    "qoi_error", "input_error_linf", "input_error_l2_max", "codec_error",
)


@settings(max_examples=60, deadline=None)
@given(certificate=_CERTIFICATES)
def test_a_certificate_survives_its_json_round_trip(certificate):
    assert Certificate.from_dict(json.loads(json.dumps(certificate.to_dict()))) == certificate


@settings(max_examples=60, deadline=None)
@given(
    certificate=_CERTIFICATES,
    name=st.sampled_from(_NUMBERS),
    value=st.one_of(
        st.sampled_from([float("nan"), float("inf"), -float("inf"), None, True, "0.1", [0.1]]),
        st.integers(0, 3),
        st.floats(max_value=-1e-300, allow_nan=False),
    ),
)
def test_from_dict_refuses_a_number_that_is_not_a_finite_non_negative_float(
    certificate, name, value
):
    with pytest.raises(IntegrityError, match=name):
        Certificate.from_dict(dict(certificate.to_dict(), **{name: value}))


@settings(max_examples=30, deadline=None)
@given(certificate=_CERTIFICATES, data=st.data())
def test_from_dict_refuses_a_missing_or_extra_key(certificate, data):
    payload = certificate.to_dict()
    missing = data.draw(st.sampled_from(sorted(payload)))
    extra = data.draw(st.text(min_size=1).filter(lambda key: key not in payload))
    for wrong in (
        {k: v for k, v in payload.items() if k != missing},
        dict(payload, **{extra: 0.0}),
    ):
        with pytest.raises(IntegrityError, match="does not name exactly"):
            Certificate.from_dict(wrong)


@pytest.mark.parametrize(
    "name, value",
    [("norm", "L2"), ("norm", None), ("norm", ["linf"]), ("fmt", ""), ("fmt", 16)],
)
def test_from_dict_refuses_a_norm_or_format_it_does_not_know(name, value):
    payload = _certificate().to_dict()
    with pytest.raises(IntegrityError, match=name):
        Certificate.from_dict(dict(payload, **{name: value}))


@pytest.mark.parametrize("payload", [None, [], "certificate", 0.1])
def test_from_dict_refuses_what_is_not_an_object(payload):
    with pytest.raises(IntegrityError):
        Certificate.from_dict(payload)


def _certificate(**errors) -> Certificate:
    terms = dict(
        norm="linf", qoi_tolerance=1e-2, fmt="fp16", quant_bound=2e-3,
        input_tolerance=1e-3, codec_tolerance=1e-3, qoi_error=4e-3,
        input_error_linf=9e-4, input_error_l2_max=2e-3, codec_error=9e-4,
    )
    return Certificate(**dict(terms, **errors))


def test_combine_takes_each_largest_error_and_holds_the_plan():
    parts = [
        _certificate(qoi_error=5e-3, codec_error=1e-4),
        _certificate(input_error_linf=9.5e-4, input_error_l2_max=1e-3),
        _certificate(qoi_error=2e-2),
    ]
    combined = Certificate.combine(parts)
    assert combined == _certificate(
        qoi_error=2e-2, input_error_linf=9.5e-4, input_error_l2_max=2e-3, codec_error=9e-4
    )
    assert parts[0].holds and not combined.holds
    with pytest.raises(IntegrityError, match="different plans"):
        Certificate.combine([parts[0], dataclasses.replace(parts[1], fmt="int8")])


@pytest.mark.parametrize("norm", ["linf", "l2"])
def test_an_empty_field_certifies_zero_error(trained_spectral_mlp, norm):
    """No samples, no error: the QoI error of a zero-sample run is 0 in
    either norm (a reshape of the empty difference used to raise)."""
    plan = TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp)).plan(
        1e-2, norm=norm, quant_fraction=0.5
    )
    pipeline = InferencePipeline(trained_spectral_mlp, SZCompressor(), plan)
    result = pipeline.execute(np.empty((5, 0), dtype=np.float32))
    assert len(result.outputs) == 0
    assert result.certificate.qoi_error == result.qoi_error(norm) == 0.0
    assert result.certificate.holds


# -- one computation, several modes, one reference ---------------------------


@pytest.fixture(scope="module")
def field():
    x = np.linspace(0, 2 * np.pi, 32)
    xx, yy = np.meshgrid(x, x)
    return np.stack([np.sin((i + 1) * xx) * np.cos(yy) * 0.8 for i in range(5)]).astype(
        np.float32
    )


def _variable_planes(fields):
    return fields.reshape(len(fields), -1).T.astype(np.float32)


def _measured(
    pipeline, fields, outputs, reference, chunk_size, chunk_axis=1, as_samples=_variable_planes
):
    """The certificate of a chunked run, measured without the pipeline:
    each chunk compressed and decoded by the codec alone, the errors taken
    over the assembled field, samples and outputs, each sample flattened
    whatever its shape."""
    codec, plan = pipeline.codec, pipeline.plan
    restored = np.concatenate(
        [
            codec.decompress(codec.compress(chunk, plan.codec_tolerance, ErrorBoundMode.ABS))
            for chunk in split_chunks(fields, chunk_size, chunk_axis=chunk_axis)
        ],
        axis=chunk_axis,
    )
    delta = as_samples(fields) - as_samples(restored)
    delta = delta.reshape(len(delta), -1)
    qoi_delta = (outputs - reference).reshape(len(outputs), -1)
    qoi_error = (
        np.abs(qoi_delta).max() if plan.norm == "linf"
        else np.linalg.norm(qoi_delta, axis=1).max()
    )
    return Certificate(
        norm=plan.norm, qoi_tolerance=plan.qoi_tolerance, fmt=plan.fmt.name,
        quant_bound=plan.quant_bound, input_tolerance=plan.input_tolerance,
        codec_tolerance=plan.codec_tolerance, qoi_error=float(qoi_error),
        input_error_linf=float(np.abs(delta).max()),
        input_error_l2_max=float(np.linalg.norm(delta, axis=1).max()),
        codec_error=float(np.abs(fields.astype(np.float64) - restored).max()),
    )


@needs_fork
@pytest.mark.parametrize(
    "norm, codec", [("linf", SZCompressor), ("l2", ZFPCompressor)], ids=["linf-sz", "l2-zfp"]
)
def test_every_mode_certifies_what_the_assembled_outputs_measure(
    trained_spectral_mlp, field, tmp_path, norm, codec
):
    """Serial, process-pool, resumed and fused<->reference-resumed runs of
    one chunked computation carry the certificate measured independently
    over the assembled outputs; a one-chunk run carries its single
    ``execute``'s, on either forward backend."""
    plan = TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp)).plan(
        1e-2, norm=norm, quant_fraction=0.5
    )
    on = {
        backend: InferencePipeline(trained_spectral_mlp, codec(), plan, backend=backend)
        for backend in ("fused", "reference")
    }

    def chunked(backend="fused", **kwargs):
        return on[backend].execute_chunked(field, chunk_size=8, chunk_axis=1, **kwargs)

    journal = str(tmp_path / "journal")
    serial = chunked(executor="serial", checkpoint=journal)
    runs = {"serial": serial, "process": chunked(executor="process", workers=2)}
    for writer, reader in (("fused", "fused"), ("fused", "reference"), ("reference", "fused")):
        ck = str(tmp_path / f"{writer}-{reader}")
        if writer == "fused":
            shutil.copytree(journal, ck)
        else:
            chunked(writer, executor="serial", checkpoint=ck)
        runs[f"{writer}->{reader}"] = resumed = chunked(
            reader, executor="serial", checkpoint=ck, resume=True
        )
        assert resumed.extra["checkpoint"]["replayed_chunks"] == 4

    reference = _measured(on["fused"], field, serial.outputs, serial.reference_outputs, 8)
    assert reference.holds
    for name, result in runs.items():
        assert np.array_equal(result.outputs, serial.outputs), name
        assert result.certificate == reference, name
        assert result.certificate.qoi_error == result.qoi_error(norm), name

    for backend, pipeline in on.items():
        whole = pipeline.execute(field)
        one_chunk = pipeline.execute_chunked(field, chunk_size=32, chunk_axis=1, executor="serial")
        assert one_chunk.certificate == whole.certificate, backend
        assert whole.certificate == _measured(
            pipeline, field, whole.outputs, whole.reference_outputs, 32
        ), backend


def _images(fields):
    return fields.astype(np.float32)


@pytest.mark.parametrize("norm", ["linf", "l2"])
def test_an_image_sample_is_certified_by_its_own_input_error(rng, norm):
    """Image samples ``(N, C, H, W)``: the certified input L2 error is
    each sample's norm over all its pixels, as the oracle measures it on
    the flattened sample, not a norm per pixel across channels."""
    model = Sequential(
        Conv2d(3, 4, 3, padding=1, rng=rng), Tanh(), Flatten(), Linear(4 * 8 * 8, 3, rng=rng),
    )
    model.eval()
    images = rng.uniform(-1, 1, (6, 3, 8, 8)).astype(np.float32)
    plan = TolerancePlanner(ErrorFlowAnalyzer(model, images.shape[1:])).plan(
        1e-1, norm=norm, quant_fraction=0.5
    )
    pipeline = InferencePipeline(model, SZCompressor(), plan)
    result = pipeline.execute(images, samples_from_fields=_images)
    measured = _measured(
        pipeline, images, result.outputs, result.reference_outputs, len(images),
        chunk_axis=0, as_samples=_images,
    )
    assert result.certificate == measured
    per_pixel = np.linalg.norm(_images(images) - pipeline.load(result.blob), axis=1).max()
    assert result.certificate.input_error_l2_max > per_pixel
