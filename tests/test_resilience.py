"""Fault-injection suite: every corruption class is detected, never decoded.

Proves the data-integrity layer's central claim — between the store and
the model, no corrupted byte passes silently.  Covers the v2 checksummed
blob format, the fault injectors themselves, the runtime guards, the
DatasetStore's verified reads, pipeline-level recovery, and the refusal
of the unchecksummed v1 format.
"""

import dataclasses
import os
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import ErrorBoundMode, SZCompressor, ZFPCompressor, get_compressor
from repro.core import InferencePipeline, TolerancePlanner
from repro.core.errorflow import ErrorFlowAnalyzer
from repro.exceptions import (
    CompressionError,
    ConfigurationError,
    ContractViolation,
    IntegrityError,
)
from repro.io import DatasetStore, atomic_write_bytes, blob_from_bytes, blob_to_bytes
from repro.resilience import (
    blob_corruptions,
    check_contract,
    corrupt_file,
    corrupt_header_byte,
    corrupt_magic,
    corrupt_payload_byte,
    corrupt_version,
    flip_bit,
    poison_inf,
    poison_nan,
    screen_finite,
    truncate,
)


@pytest.fixture
def blob_bytes(smooth_field_2d):
    blob = SZCompressor().compress(smooth_field_2d, 1e-4, ErrorBoundMode.ABS)
    return blob_to_bytes(blob)


# -- corruption matrix ------------------------------------------------------
def test_corruption_matrix_no_silent_decode(blob_bytes):
    """Every injected corruption raises a typed error — zero silent successes."""
    cases = list(blob_corruptions(blob_bytes, truncation_step=16))
    assert len(cases) > 20  # magic, version, header, payload + many truncations
    for name, corrupted in cases:
        with pytest.raises(CompressionError):
            blob_from_bytes(corrupted)
            pytest.fail(f"corruption {name!r} decoded silently")


def test_every_payload_bitflip_detected(blob_bytes):
    """Walk single-bit flips across the whole payload region."""
    for offset in range(0, 256, 17):
        with pytest.raises(IntegrityError):
            blob_from_bytes(corrupt_payload_byte(blob_bytes, offset=offset))


def test_every_header_bitflip_detected(blob_bytes):
    for offset in range(0, 32, 3):
        with pytest.raises(CompressionError):
            blob_from_bytes(corrupt_header_byte(blob_bytes, offset=offset))


def test_truncation_at_every_boundary_detected(blob_bytes):
    for length in range(0, len(blob_bytes), 16):
        with pytest.raises(CompressionError):
            blob_from_bytes(truncate(blob_bytes, length))


def test_bad_magic_and_version_detected(blob_bytes):
    with pytest.raises(CompressionError):
        blob_from_bytes(corrupt_magic(blob_bytes))
    with pytest.raises(CompressionError):
        blob_from_bytes(corrupt_version(blob_bytes))


def test_random_bitflip_storm_detected(blob_bytes):
    """A seeded storm of random single-bit flips: all caught or benign-free."""
    rng = np.random.default_rng(123)
    for __ in range(64):
        with pytest.raises(CompressionError):
            blob_from_bytes(flip_bit(blob_bytes, int(rng.integers(0, 8 * len(blob_bytes)))))


def _sealed_v2(header: bytes, payload: bytes = b"") -> bytes:
    """A v2 blob around ``header`` whose CRC matches, so the header checks
    are what rejects it."""
    crc = zlib.crc32(payload, zlib.crc32(header))
    return b"RBLB" + struct.pack("<HII", 2, len(header), crc) + header + payload


def test_header_missing_keys_rejected(smooth_field_2d):
    """A structurally valid v2 blob whose header lacks required keys."""
    data = _sealed_v2(b'{"codec":"sz"}', b"\x00" * 16)
    with pytest.raises(CompressionError, match="missing required keys"):
        blob_from_bytes(data)


def test_header_invalid_shape_rejected():
    header = b'{"codec":"sz","shape":[-1],"dtype":"float32","mode":"abs","tolerance":1e-4}'
    with pytest.raises(CompressionError, match="invalid shape"):
        blob_from_bytes(_sealed_v2(header))


def test_short_inputs_raise_typed_errors():
    for data in (b"", b"RB", b"RBLB", b"RBLB\x02", b"RBLB\x02\x00\xff"):
        with pytest.raises(CompressionError):
            blob_from_bytes(data)


# -- blob versions -----------------------------------------------------------
def test_v1_blob_is_refused(smooth_field_2d):
    """Version 1 carried no CRC, so a cut or flipped v1 blob could decode
    to a wrong array; every v1 blob ever written holds HUF1 streams no
    decoder reads.  One is refused by version, before any header check."""
    codec = SZCompressor()
    v2 = blob_to_bytes(codec.compress(smooth_field_2d, 1e-4, ErrorBoundMode.ABS))
    # A v1 stream is the v2 one without its CRC, under version 1.
    (header_length,) = struct.unpack_from("<I", v2, 6)
    legacy = v2[:4] + struct.pack("<HI", 1, header_length) + v2[14:]
    with pytest.raises(CompressionError, match="unsupported blob version 1"):
        blob_from_bytes(legacy)


def test_v2_is_default_and_checksummed(blob_bytes):
    version, __, stored_crc = struct.unpack_from("<HII", blob_bytes, 4)
    assert version == 2
    assert stored_crc == zlib.crc32(blob_bytes[14:])


# -- injectors --------------------------------------------------------------
def test_flip_bit_is_involutive_and_bounded():
    data = bytes(range(32))
    assert flip_bit(flip_bit(data, 100), 100) == data
    with pytest.raises(ConfigurationError):
        flip_bit(data, 8 * len(data))


def test_poisoning_is_deterministic(smooth_field_2d):
    a = poison_nan(smooth_field_2d, fraction=0.05, seed=9)
    b = poison_nan(smooth_field_2d, fraction=0.05, seed=9)
    assert np.array_equal(np.isnan(a), np.isnan(b))
    assert np.isnan(a).sum() == max(1, round(0.05 * smooth_field_2d.size))
    assert np.isinf(poison_inf(smooth_field_2d, seed=3)).any()


def test_corrupt_file_is_atomic(tmp_path):
    path = tmp_path / "x.bin"
    path.write_bytes(b"A" * 64)

    def exploding(data):
        raise RuntimeError("injector crashed")

    with pytest.raises(RuntimeError):
        corrupt_file(str(path), exploding)
    assert path.read_bytes() == b"A" * 64  # untouched
    assert not [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]


# -- guards -----------------------------------------------------------------
def test_screen_finite_passes_clean_and_int_arrays(smooth_field_2d):
    assert screen_finite(smooth_field_2d, "t") is not None
    screen_finite(np.arange(10), "t")  # ints are trivially finite


def test_screen_finite_reports_counts(smooth_field_2d):
    poisoned = poison_nan(smooth_field_2d, fraction=0.01, seed=1)
    with pytest.raises(IntegrityError, match="NaN"):
        screen_finite(poisoned, "decompress", name="fields")


def test_check_contract_structured_diagnostic():
    with pytest.raises(ContractViolation) as excinfo:
        check_contract(2e-3, 1e-3, codec="sz", stage="decompress", norm="linf")
    err = excinfo.value
    assert err.codec == "sz" and err.stage == "decompress" and err.norm == "linf"
    assert err.expected == pytest.approx(1e-3)
    assert err.achieved == pytest.approx(2e-3)
    # inside the bound: returns achieved
    assert check_contract(5e-4, 1e-3, codec="sz", stage="s") == pytest.approx(5e-4)
    with pytest.raises(ContractViolation):
        check_contract(float("nan"), 1e-3, codec="sz", stage="s")


# -- DatasetStore verification ---------------------------------------------
def _rblob_path(store, name):
    return os.path.join(store.directory, name + ".rblob")


def test_store_detects_on_disk_corruption(tmp_path, smooth_field_2d):
    store = DatasetStore(str(tmp_path))
    store.put("f", smooth_field_2d, tolerance=1e-3)
    corrupt_file(_rblob_path(store, "f"), lambda b: corrupt_payload_byte(b, 5))
    with pytest.raises(IntegrityError):
        store.get("f")


def test_store_missing_entry_is_not_a_corruption_event(tmp_path):
    store = DatasetStore(str(tmp_path))
    with pytest.raises(CompressionError, match="not found"):
        store.get("absent")


def test_store_rejects_escaping_names(tmp_path):
    store = DatasetStore(str(tmp_path))
    field = np.zeros((4, 4))
    for bad in ("", "../evil", ".hidden", "a/b", "a\\b", "..", "a..b", os.sep + "abs"):
        with pytest.raises(CompressionError):
            store.put(bad, field, tolerance=1e-2)


def test_store_crash_safety_no_torn_file(tmp_path, smooth_field_2d, monkeypatch):
    """A writer dying mid-put leaves no visible (or partial) entry."""
    store = DatasetStore(str(tmp_path))

    def exploding_replace(src, dst):
        raise OSError("simulated crash during rename")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError):
        store.put("f", smooth_field_2d, tolerance=1e-3)
    monkeypatch.undo()
    assert "f" not in store
    assert store.names() == []
    assert not [p for p in tmp_path.iterdir() if ".tmp" in p.name]
    # the store still works afterwards
    store.put("f", smooth_field_2d, tolerance=1e-3)
    assert store.verify("f")


def test_failed_fsync_leaves_the_target_and_no_temp_file(tmp_path, smooth_field_2d, monkeypatch):
    """Store writes and the corruption injector share the one atomic
    writer: a failed ``fsync`` leaves the entry as it was, and the temp
    file is gone."""
    store = DatasetStore(str(tmp_path))
    store.put("f", smooth_field_2d, tolerance=1e-3)
    path = _rblob_path(store, "f")
    before = open(path, "rb").read()

    def failing_fsync(fd):
        raise OSError("simulated fsync failure")

    monkeypatch.setattr(os, "fsync", failing_fsync)
    for write in (
        lambda: atomic_write_bytes(path, b"new bytes"),
        lambda: store.put("f", smooth_field_2d * 2, tolerance=1e-3),
        lambda: corrupt_file(path, lambda b: corrupt_payload_byte(b, 0)),
    ):
        with pytest.raises(OSError, match="fsync"):
            write()
        assert open(path, "rb").read() == before
        assert not [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]
    monkeypatch.undo()
    assert store.verify("f")


def test_store_crash_during_payload_write(tmp_path, smooth_field_2d, monkeypatch):
    store = DatasetStore(str(tmp_path))
    store.put("f", smooth_field_2d, tolerance=1e-3)
    before = open(_rblob_path(store, "f"), "rb").read()

    import repro.io.store as store_mod

    def exploding_to_bytes(blob):
        raise MemoryError("simulated failure while serializing")

    monkeypatch.setattr(store_mod, "blob_to_bytes", exploding_to_bytes)
    with pytest.raises(MemoryError):
        store.put("f", smooth_field_2d * 2, tolerance=1e-3)
    monkeypatch.undo()
    # the previous entry is intact — overwrite is all-or-nothing
    assert open(_rblob_path(store, "f"), "rb").read() == before


# -- pipeline guards --------------------------------------------------------
@pytest.fixture(scope="module")
def planned(trained_spectral_mlp):
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp, (5,))
    plan = TolerancePlanner(analyzer).plan(1e-2, norm="linf", quant_fraction=0.5)
    return trained_spectral_mlp, plan


@pytest.fixture
def field_batch(rng):
    # (V, H, W) layout: 5 variable planes, pipelines reshape to samples
    return rng.uniform(-1, 1, (5, 16, 16)).astype(np.float32)


def test_pipeline_records_integrity_report(planned, field_batch):
    model, plan = planned
    pipe = InferencePipeline(model, SZCompressor(), plan)
    result = pipe.execute(field_batch)
    # recovery is the supervised pool's: the pipeline keeps no policy, and
    # what the guards measured is the certificate's
    assert result.extra["integrity"] == {"degraded": False}
    certificate = result.certificate
    assert certificate.codec_error <= certificate.codec_tolerance == plan.codec_tolerance


def test_pipeline_screens_poisoned_decompression(planned, field_batch, monkeypatch):
    model, plan = planned
    codec = SZCompressor()
    original = SZCompressor.decompress

    def poisoning(self, blob):
        return poison_nan(original(self, blob), fraction=0.02, seed=5)

    monkeypatch.setattr(SZCompressor, "decompress", poisoning)
    pipe = InferencePipeline(model, codec, plan)
    with pytest.raises(IntegrityError, match="decompress"):
        pipe.execute(field_batch)


# A chunk whose decompression fails is the supervised pool's to recover:
# retried, then quarantined and re-run losslessly.  A one-chunk serial
# execute_chunked is that recovery for a whole field.
def _one_chunk(pipe, fields, **kwargs):
    return pipe.execute_chunked(
        fields, chunk_size=fields.shape[1], chunk_axis=1, executor="serial", **kwargs
    )


def _poisoned_lossy_decompress(monkeypatch, fails=None):
    """Poison every lossy decompression (or the first ``fails``); the
    lossless rerun reads clean.  Returns the count of lossy decodes."""
    original = SZCompressor.decompress
    lossy = {"n": 0}

    def poisoning(self, blob):
        data = original(self, blob)
        if blob.metadata.get("lossless"):
            return data
        lossy["n"] += 1
        if fails is None or lossy["n"] <= fails:
            return poison_nan(data, fraction=0.02, seed=5)
        return data

    monkeypatch.setattr(SZCompressor, "decompress", poisoning)
    return lossy


def test_serial_chunked_run_quarantines_a_poisoned_chunk(planned, field_batch, monkeypatch):
    model, plan = planned
    lossy = _poisoned_lossy_decompress(monkeypatch)
    result = _one_chunk(InferencePipeline(model, SZCompressor(), plan), field_batch)
    assert lossy["n"] == 3  # the first attempt and two retries
    assert result.extra["supervision"]["quarantined"] == [0]
    assert result.extra["supervision"]["retries"] == 2
    assert result.extra["integrity"]["degraded"] is True
    assert result.input_error_linf == 0.0  # lossless blob: exact inputs
    assert np.isfinite(result.outputs).all()
    assert result.qoi_error("linf") <= plan.qoi_tolerance


def test_serial_chunked_run_retries_a_transient_fault(planned, field_batch, monkeypatch):
    model, plan = planned
    lossy = _poisoned_lossy_decompress(monkeypatch, fails=1)
    result = _one_chunk(InferencePipeline(model, SZCompressor(), plan), field_batch)
    assert lossy["n"] == 2
    supervision = result.extra["supervision"]
    assert supervision["retries"] == 1 and supervision["quarantined"] == []
    assert result.extra["integrity"]["degraded"] is False  # the retry succeeded lossily
    assert result.qoi_error("linf") <= 1e-2


def test_serial_chunked_run_without_retries_degrades_at_once(planned, field_batch, monkeypatch):
    model, plan = planned
    lossy = _poisoned_lossy_decompress(monkeypatch)
    result = _one_chunk(
        InferencePipeline(model, SZCompressor(), plan), field_batch, max_task_retries=0
    )
    assert lossy["n"] == 1
    assert result.extra["supervision"]["quarantined"] == [0]
    assert result.extra["integrity"]["degraded"] is True
    assert result.input_error_linf == 0.0


def test_pipeline_contract_violation_is_structured(planned, field_batch, monkeypatch):
    """A codec that silently overshoots its bound triggers ContractViolation."""
    model, plan = planned
    original = SZCompressor.decompress

    def overshooting(self, blob):
        data = original(self, blob)
        if blob.metadata.get("lossless"):
            return data
        return data + 10.0 * plan.input_tolerance  # finite but out of contract

    monkeypatch.setattr(SZCompressor, "decompress", overshooting)
    pipe = InferencePipeline(model, SZCompressor(), plan)
    with pytest.raises(ContractViolation) as excinfo:
        pipe.execute(field_batch)
    err = excinfo.value
    assert err.codec == "sz" and err.stage == "decompress"
    assert err.achieved > err.expected


def test_pipeline_rejects_non_finite_source(planned, field_batch):
    model, plan = planned
    pipe = InferencePipeline(model, SZCompressor(), plan)
    with pytest.raises(IntegrityError, match="source"):
        pipe.execute(poison_nan(field_batch, fraction=0.01, seed=8))


def test_pipeline_zfp_also_guarded(planned, field_batch):
    model, plan = planned
    pipe = InferencePipeline(model, ZFPCompressor(), plan)
    result = pipe.execute(field_batch)
    assert result.certificate.codec_error <= plan.input_tolerance


# -- resilience event counts: spans with ``error`` and the run's summary -------
def _failed(tracer, error):
    """Names of the finished spans a raised ``error`` crossed."""
    return [span.name for span in tracer.finished if span.attributes.get("error") == error]


def test_counters_raise_policy_counts_integrity_failure(planned, field_batch, monkeypatch):
    from repro import obs

    model, plan = planned
    original = SZCompressor.decompress

    def poisoning(self, blob):
        return poison_nan(original(self, blob), fraction=0.02, seed=5)

    monkeypatch.setattr(SZCompressor, "decompress", poisoning)
    pipe = InferencePipeline(model, SZCompressor(), plan)
    with obs.capture() as (tracer, _):
        with pytest.raises(IntegrityError):
            pipe.execute(field_batch)
    # the failure is recorded once at its stage, and on the run it ended
    assert _failed(tracer, "IntegrityError") == ["pipeline.decompress", "pipeline.execute"]
    # nothing retried or degraded it
    assert not any(span.attributes["degraded"] for span in tracer.find("pipeline.decompress"))


@pytest.mark.parametrize(
    "fails, retries, quarantined, recoveries",
    [(1, 1, 0, 0), (None, 2, 1, 1)],
    ids=["transient", "persistent"],
)
def test_counters_serial_chunk_recovery(
    planned, field_batch, monkeypatch, fails, retries, quarantined, recoveries
):
    from repro import obs

    model, plan = planned
    _poisoned_lossy_decompress(monkeypatch, fails=fails)
    pipe = InferencePipeline(model, SZCompressor(), plan)
    with obs.capture() as (tracer, _):
        result = _one_chunk(pipe, field_batch)
    # every lossy attempt that failed the finite screen...
    assert _failed(tracer, "IntegrityError").count("pipeline.decompress") == retries + quarantined
    # ...was retried by the pool, or quarantined once the budget ran out,
    # as the inline pool's own span and the result's summary both record...
    (run,) = tracer.find("supervisor.run")
    assert run.attributes["executor"] == "inline"
    assert run.attributes["retries"] == retries
    assert len(run.attributes["quarantined"]) == quarantined
    supervision = result.extra["supervision"]
    assert supervision["retries"] == retries
    assert len(supervision["quarantined"]) == quarantined
    # ...and only the lossless rerun decodes a degraded blob
    degraded = [span for span in tracer.find("pipeline.decompress") if span.attributes["degraded"]]
    assert len(degraded) == recoveries


def test_counters_contract_violation(planned, field_batch, monkeypatch):
    from repro import obs

    model, plan = planned
    original = SZCompressor.decompress

    def overshooting(self, blob):
        data = original(self, blob)
        if blob.metadata.get("lossless"):
            return data
        return data + 10.0 * plan.input_tolerance

    monkeypatch.setattr(SZCompressor, "decompress", overshooting)
    pipe = InferencePipeline(model, SZCompressor(), plan)
    with obs.capture() as (tracer, _):
        with pytest.raises(ContractViolation) as raised:
            pipe.execute(field_batch)
    # the guard span the violation crossed; the error names the codec stage
    assert _failed(tracer, "ContractViolation") == ["pipeline.guard", "pipeline.execute"]
    assert (raised.value.stage, raised.value.codec) == ("decompress", "sz")


# -- safe_decompress --------------------------------------------------------
def test_safe_decompress_truncated_lossless_payload(smooth_field_2d):
    from repro.compress.base import CompressedBlob

    blob = CompressedBlob(
        codec="sz",
        payload=smooth_field_2d.tobytes()[:-8],  # torn write
        shape=smooth_field_2d.shape,
        dtype=str(smooth_field_2d.dtype),
        mode=ErrorBoundMode.ABS,
        tolerance=1e-3,
        metadata={"lossless": True},
    )
    with pytest.raises(IntegrityError, match="lossless payload"):
        SZCompressor().safe_decompress(blob)


def test_safe_decompress_wrong_codec_rejected(smooth_field_2d):
    blob = SZCompressor().compress(smooth_field_2d, 1e-3, ErrorBoundMode.ABS)
    with pytest.raises(CompressionError):
        ZFPCompressor().safe_decompress(blob)


def _seeded_field(shape):
    grids = np.meshgrid(*(np.linspace(0, 2 * np.pi, size) for size in shape), indexing="ij")
    field = sum(np.sin((axis + 1) * grid) for axis, grid in enumerate(grids))
    noise = 1e-3 * np.random.default_rng(5).standard_normal(shape)
    return (field + noise).astype(np.float32)


def _with_header(blob, offset, raw):
    """``blob`` with the payload bytes at ``offset`` replaced by ``raw``."""
    payload = blob.payload[:offset] + raw + blob.payload[offset + len(raw) :]
    return dataclasses.replace(blob, payload=payload)


@pytest.mark.parametrize("codec", ["sz", "zfp", "mgard"])
@pytest.mark.parametrize("value", ["sign", 0.0, -0.0, np.inf, -np.inf, np.nan])
def test_an_impossible_header_step_is_refused(codec, value):
    """The first header double is SZ's ``eb``, MGARD's ``base`` and ZFP's
    ``step``.  With its sign bit flipped each codec decoded a field 8 off
    at tolerance 1e-2; a step that is not finite and positive is refused."""
    compressor = get_compressor(codec)
    blob = compressor.compress(_seeded_field((4, 16, 16)), 1e-2, ErrorBoundMode.ABS)
    (step,) = struct.unpack_from("<d", blob.payload, 0)
    assert 0.0 < step < np.inf
    raw = struct.pack("<d", -step if value == "sign" else value)
    with pytest.raises(CompressionError, match="blob names"):
        compressor.safe_decompress(_with_header(blob, 0, raw))


@pytest.mark.parametrize("block_dims", [0, 1, 2, 4, 255])
def test_zfp_refuses_a_block_rank_other_than_the_shapes(block_dims):
    """A block-aligned (4, 8, 8) field decodes under any block rank that
    divides its extents, 4-5 off at tolerance 1e-2: the rank byte must be
    ``min(ndim, 3)``."""
    compressor = ZFPCompressor()
    blob = compressor.compress(_seeded_field((4, 8, 8)), 1e-2, ErrorBoundMode.ABS)
    assert blob.payload[8] == 3
    with pytest.raises(CompressionError, match="block rank"):
        compressor.safe_decompress(_with_header(blob, 8, bytes([block_dims])))


# -- .rblob v2 fuzz ---------------------------------------------------------------


@pytest.fixture(scope="module")
def v2_blobs():
    """One v2 wire blob per codec, of the ``smooth_field_2d`` field."""
    rng = np.random.default_rng(12345)
    x = np.linspace(0, 4 * np.pi, 96)
    xx, yy = np.meshgrid(x, x)
    field = np.sin(xx) * np.cos(yy) + 0.3 * np.sin(3 * xx + 1.0) * np.cos(2 * yy)
    field = (field + 1e-4 * rng.standard_normal(field.shape)).astype(np.float32)
    codecs = {name: get_compressor(name) for name in ("sz", "zfp", "mgard")}
    return {
        name: (codec, blob_to_bytes(codec.compress(field, 1e-3, ErrorBoundMode.ABS)))
        for name, codec in codecs.items()
    }


@given(codec=st.sampled_from(["sz", "zfp", "mgard"]), data=st.data())
@settings(max_examples=300, deadline=None)
def test_a_truncated_or_bit_flipped_v2_blob_never_decodes(v2_blobs, codec, data):
    """Read back through ``blob_from_bytes`` and ``safe_decompress``, a v2
    blob cut short or with one bit flipped ends in a typed error, never in
    an array.  The CRC32 over header and payload is what holds this up:
    v1 blobs carried none, and of 600 such mutations per codec (half cuts,
    half flips) 138-262 decoded to a wrong array, which is why v1 is
    refused."""
    compressor, wire = v2_blobs[codec]
    if data.draw(st.booleans(), label="truncate"):
        mutated = truncate(wire, data.draw(st.integers(0, len(wire) - 1), label="length"))
    else:
        mutated = flip_bit(wire, data.draw(st.integers(0, 8 * len(wire) - 1), label="bit"))
    with pytest.raises((IntegrityError, CompressionError)):
        compressor.safe_decompress(blob_from_bytes(mutated))
