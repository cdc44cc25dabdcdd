"""The codec scratch: byte-identical streams, nothing returned aliases it.

The SZ encoder works in place in per-thread scratch slots shared by
lifetime (:class:`repro.compress.base.CodecScratch`).  The encoder it
replaced, every intermediate a fresh array, lives in
``tests/oracles/sz_reference.py``; these tests hold the shipped one to it
byte for byte and check what the scratch must never do: leak into a
returned value, cross threads or processes, or remember the last field.
"""

import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import ErrorBoundMode, SZCompressor, ZFPCompressor
from repro.compress.base import CodecScratch, codec_scratch, guarded_pointwise_bound
from repro.compress.huffman import huffman_decode, huffman_encode
from repro.compress.sz import _working_precision
from repro.exceptions import CompressionError

from .oracles.sz_reference import (
    choose_prediction_reference,
    compress_reference,
    encode_pass_reference,
    guarded_pointwise_bound_reference,
    working_precision_reference,
)

_MODES = [ErrorBoundMode.ABS, ErrorBoundMode.REL, ErrorBoundMode.L2_ABS]


def _field(shape, dtype, seed, spike=False):
    rng = np.random.default_rng(seed)
    grids = np.meshgrid(*(np.linspace(0.0, 3.0, n) for n in shape), indexing="ij")
    data = sum(np.sin((k + 1.3) * g) for k, g in enumerate(grids)) + 0.05 * rng.standard_normal(shape)
    if spike and data.size:
        # No spline predicts it.  As float64 under a tolerance <= 1e-4 its
        # code passes 2**30: the outlier path (float32's rounding guard
        # turns such a tolerance lossless first).
        data.flat[int(rng.integers(data.size))] = 1e6
    return data.astype(dtype)


def _encoder_recon(codec, data, blob):
    """The allocating encoder's reconstruction for ``blob``, in its precision."""
    work = data.astype(blob.metadata.get("precision", "float64"))
    return encode_pass_reference(codec, work, blob.metadata["eb"])[0]


def _in_slot(array, slot) -> bool:
    return np.shares_memory(array, np.frombuffer(slot, dtype=np.uint8))


def _aliases_scratch(array) -> bool:
    return any(_in_slot(array, slot) for slot in codec_scratch()._slots)


# -- byte identity ---------------------------------------------------------------


@given(
    shape=st.lists(st.integers(1, 11), min_size=1, max_size=4).map(tuple),
    dtype=st.sampled_from([np.float32, np.float64]),
    interpolation=st.sampled_from(["linear", "cubic", "dynamic"]),
    mode=st.sampled_from(_MODES),
    tolerance=st.sampled_from([0.3, 1e-2, 1e-5]),
    anchor_stride=st.sampled_from([2, 4, 8, 64]),
    max_alphabet=st.sampled_from([2, 3, 8, 4096]),  # small: escapes side by side
    spike=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=300, deadline=None)
def test_blobs_are_bytes_equal_to_the_allocating_encoder(
    shape, dtype, interpolation, mode, tolerance, anchor_stride, max_alphabet, spike, seed
):
    data = _field(shape, dtype, seed, spike)
    codec = SZCompressor(anchor_stride, max_alphabet, interpolation)
    blob = codec.compress(data, tolerance, mode)
    expected = compress_reference(codec, data, tolerance, mode)
    assert blob.payload == expected.payload
    assert blob == expected  # shape, dtype, mode, tolerance, metadata (eb to the bit)
    restored = codec.decompress(blob)
    assert restored.dtype == data.dtype and restored.shape == data.shape
    if not blob.metadata.get("lossless"):
        # The decoder's reconstruction is the encoder's, cast to the field's dtype.
        recon = _encoder_recon(codec, data, blob)
        assert np.array_equal(restored, recon.astype(data.dtype), equal_nan=True)
        assert blob.metadata.get("precision", "float64") == codec.stream_precision(dtype)
    assert not _aliases_scratch(restored)


@pytest.mark.parametrize(
    "shape",
    [
        (9, 64, 64), (13, 24, 24), (5, 7, 9, 11), (257,), (1, 1), (0, 4),
        # axes shorter than the anchor stride (64): their coarse steps have
        # no target and are skipped, but still own a bit of the choice mask
        (9, 8, 256), (3, 300), (2, 2, 130), (1, 70), (33, 2),
    ],
    ids=str,
)
@pytest.mark.parametrize("dtype", [np.float32, np.float64], ids=lambda d: d.__name__)
def test_blobs_are_bytes_equal_on_boundary_shapes(shape, dtype):
    data = _field(shape, dtype, seed=len(shape))
    for interpolation in ("linear", "cubic", "dynamic"):
        for mode in _MODES:
            codec = SZCompressor(interpolation=interpolation)
            blob = codec.compress(data, 1e-3, mode)
            assert blob == compress_reference(codec, data, 1e-3, mode)
            if not blob.metadata.get("lossless"):
                recon = _encoder_recon(codec, data, blob)
                assert np.array_equal(codec.decompress(blob), recon.astype(dtype))


def test_spike_takes_the_outlier_path_and_stays_bytes_equal():
    data = _field((40, 40), np.float64, seed=3)
    data[13, 17], data[30, 2] = 1e6, -3e6
    for interpolation in ("linear", "cubic", "dynamic"):
        codec = SZCompressor(interpolation=interpolation)
        blob = codec.compress(data, 1e-6)
        assert not blob.metadata.get("lossless")
        assert struct.unpack_from("<dIIH", blob.payload)[2] >= 2  # outliers were stored
        assert blob == compress_reference(codec, data, 1e-6)
        restored = codec.decompress(blob)
        assert np.array_equal(restored[[13, 30], [17, 2]], [1e6, -3e6])
        assert np.abs(restored - data).max() <= 1e-6


@given(
    shape=st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple),
    interpolation=st.sampled_from(["linear", "cubic", "dynamic"]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_spline_choice_and_residual_match_the_allocating_expressions(shape, interpolation, seed):
    rng = np.random.default_rng(seed)
    data, recon = rng.standard_normal(shape), rng.standard_normal(shape)
    codec = SZCompressor(anchor_stride=4, interpolation=interpolation)
    for axis, stride in [(a, s) for s in (2, 1) for a in range(len(shape))]:
        target, prediction, residual, used = codec._choose_prediction(recon, data, axis, stride)
        __, expected, expected_used = choose_prediction_reference(
            interpolation, recon, data, axis, stride
        )
        assert used == expected_used
        assert np.array_equal(prediction, expected)
        assert np.array_equal(residual, data[target] - expected)


def test_surplus_outlier_is_refused():
    """A stored outlier no code claims means header and stream disagree."""
    data = _field((40, 40), np.float64, seed=5, spike=True)
    codec = SZCompressor()
    blob = codec.compress(data, 1e-6)
    eb, n_anchors, n_outliers, n_choices = struct.unpack_from("<dIIH", blob.payload)
    assert n_outliers >= 1 and not blob.metadata.get("lossless")
    outliers_end = struct.calcsize("<dIIH") + (n_choices + 7) // 8 + 8 * (n_anchors + n_outliers)
    blob.payload = (
        struct.pack("<dIIH", eb, n_anchors, n_outliers + 1, n_choices)
        + blob.payload[struct.calcsize("<dIIH") : outliers_end]
        + struct.pack("<d", 7.0)
        + blob.payload[outliers_end:]
    )
    with pytest.raises(CompressionError, match=f"used {n_outliers} of {n_outliers + 1} outliers"):
        codec.decompress(blob)
    with pytest.raises(CompressionError, match="outliers"):
        codec.safe_decompress(blob)


def test_a_stride_the_encoder_cannot_produce_is_refused():
    """Its anchors and steps would not cover the grid; the rest would be
    whatever the thread's scratch held before."""
    codec = SZCompressor(anchor_stride=4)
    blob = codec.compress(_field((12, 12), np.float64, seed=9), 1e-3)
    for stride in (3, 1, 0, 6):
        blob.metadata["anchor_stride"] = stride
        with pytest.raises(CompressionError, match="anchor stride"):
            codec.safe_decompress(blob)


# -- what the scratch must never do ------------------------------------------------


def test_a_slot_keeps_a_buffer_from_the_second_request_of_a_size_on():
    scratch = CodecScratch()
    once = scratch.take(0, (4, 5))
    assert once.shape == (4, 5) and once.dtype == np.float64
    assert not len(scratch._slots[0]), "a one-off request must leave nothing resident"
    kept = scratch.take(0, (4, 5))
    head = scratch.take(0, (2, 5), np.int64)
    tail = scratch.take(0, (2, 5), np.int64, start=10)
    assert len(scratch._slots[0]) == 4 * 5 * 8 and not np.shares_memory(once, kept)
    assert np.shares_memory(kept, head) and np.shares_memory(kept, tail)
    assert not np.shares_memory(head, tail) and tail.dtype == np.int64
    kept[...] = 7.0
    larger = scratch.take(0, (8, 5))  # the first of its size: fresh again
    assert not _in_slot(larger, scratch._slots[0])
    grown = scratch.take(0, (3, 5))  # fits the kept buffer
    assert np.shares_memory(grown, kept)
    regrown = scratch.take(0, (8, 5))
    assert len(scratch._slots[0]) == 8 * 5 * 8 and _in_slot(regrown, scratch._slots[0])
    assert (kept == 7.0).all(), "a view taken before the slot grew stays valid"
    assert scratch.take(1, (0, 3)).shape == (0, 3) and scratch.take(1, ()).shape == ()


def test_scratch_does_not_remember_the_previous_field():
    codec = SZCompressor()
    a, b = _field((9, 40, 40), np.float32, seed=1), _field((33, 17), np.float64, seed=2)
    blob_a = codec.compress(a, 1e-3)
    first = codec.decompress(blob_a)
    kept = first.copy()
    blob_b = codec.compress(b, 1e-4, ErrorBoundMode.L2_ABS)
    payload_b = bytes(blob_b.payload)
    restored_b = codec.decompress(blob_b)
    assert np.array_equal(codec.decompress(blob_a), kept)
    assert np.array_equal(first, kept) and blob_b.payload == payload_b
    assert blob_a == codec.compress(a, 1e-3)
    assert np.array_equal(restored_b, codec.decompress(blob_b))


def test_nothing_returned_aliases_the_scratch(rng):
    codec = SZCompressor(max_alphabet=8)
    data = _field((9, 32, 32), np.float64, seed=4, spike=True)
    for mode in _MODES:
        blob = codec.compress(data, 1e-3, mode)
        assert isinstance(blob.payload, bytes)
        assert not _aliases_scratch(codec.decompress(blob))
        assert not _aliases_scratch(codec.safe_decompress(blob))
    symbols = np.round(rng.standard_normal(5000) * 40).astype(np.int64)
    before = symbols.copy()
    decoded = huffman_decode(huffman_encode(symbols, max_alphabet=8))
    assert np.array_equal(symbols, before), "the encoder wrote into its input"
    assert np.array_equal(decoded, symbols) and not _aliases_scratch(decoded)


def test_every_thread_has_its_own_scratch_and_concurrent_blobs_are_the_serial_ones():
    fields = [_field((9, 48, 48), np.float32, seed=s) for s in range(4)]
    codec = SZCompressor()
    serial = [codec.compress(f, 1e-3) for f in fields]
    restored = [codec.decompress(b) for b in serial]
    seen, failures = {}, []
    start = threading.Barrier(len(fields))

    def work(index):
        try:
            seen[index] = codec_scratch()
            start.wait(timeout=30)
            for __ in range(5):
                blob = codec.compress(fields[index], 1e-3)
                assert blob == serial[index]
                assert np.array_equal(codec.decompress(blob), restored[index])
        except BaseException as exc:  # surfaced below: a thread's assert is otherwise lost
            failures.append(exc)
            raise

    threads = [threading.Thread(target=work, args=(i,)) for i in range(len(fields))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not failures
    scratches = list(seen.values()) + [codec_scratch()]
    assert len({id(s) for s in scratches}) == len(fields) + 1
    assert all(isinstance(s, CodecScratch) for s in scratches)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_round_trips_on_its_copy_of_the_scratch():
    codec = SZCompressor()
    data = _field((9, 40, 40), np.float32, seed=6)
    blob = codec.compress(data, 1e-3)  # the scratch is warm when the child is made
    expected = codec.decompress(blob)
    reader, writer = os.pipe()
    pid = os.fork()
    if pid == 0:  # pragma: no cover - the child reports through the pipe
        ok = False
        try:
            other = _field((17, 23), np.float64, seed=7)
            codec.roundtrip(other, 1e-4)
            ok = codec.compress(data, 1e-3) == blob and np.array_equal(
                codec.decompress(blob), expected
            )
        finally:
            os.write(writer, b"1" if ok else b"0")
            os._exit(0)
    os.close(writer)
    with os.fdopen(reader, "rb") as pipe:
        answer = pipe.read()
    os.waitpid(pid, 0)
    assert answer == b"1"
    assert np.array_equal(codec.decompress(blob), expected)


def test_steady_state_round_trip_allocates_at_most_twice_the_field():
    """Tier-1 allocation gate (10.5x and 4.5x before the scratch)."""
    data = _field((9, 256, 256), np.float32, seed=8)
    codec = SZCompressor()
    for __ in range(2):
        blob = codec.compress(data, 1e-3)
        codec.decompress(blob)
    budget = 2 * data.size * 8
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        blob = codec.compress(data, 1e-3)
        compress_peak = tracemalloc.get_traced_memory()[1] - base
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        restored = codec.decompress(blob)
        decompress_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.abs(restored - data).max() <= 1e-3
    assert compress_peak <= budget and decompress_peak <= budget


def test_zfp_decode_returns_a_fresh_field_and_allocates_little_else():
    """ZFP's decode keeps its codes, blocks and padded field in slots 0-3:
    other fields decoded in between change nothing, nothing returned is a
    slot, and in steady state the returned field is nearly the whole
    allocation (13x the field's bytes before)."""
    codec = ZFPCompressor()
    a, b = _field((9, 40, 40), np.float32, seed=1), _field((33, 17), np.float64, seed=2)
    blob_a, blob_b = codec.compress(a, 1e-3), codec.compress(b, 1e-4)
    first = codec.decompress(blob_a)
    kept = first.copy()
    restored_b = codec.decompress(blob_b)
    assert np.array_equal(codec.decompress(blob_a), kept) and np.array_equal(first, kept)
    assert not _aliases_scratch(first) and not _aliases_scratch(restored_b)
    assert not _aliases_scratch(codec.safe_decompress(blob_b))

    data = _field((9, 256, 256), np.float32, seed=8)
    blob = codec.compress(data, 1e-3)
    for __ in range(2):
        codec.decompress(blob)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        restored = codec.decompress(blob)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert np.abs(restored - data).max() <= 1e-3
    assert peak <= 3 * data.nbytes


# -- the bound guard without its float64 copy ------------------------------------


@pytest.mark.parametrize(
    "dtype", [np.float16, np.float32, np.float64, np.int8, np.uint16, np.int64, np.bool_], ids=str
)
def test_guarded_bound_equals_the_copying_expression_bit_for_bit(dtype, rng):
    for shape in [(0,), (3, 0), (1,), (5, 7), (4, 3, 2)]:
        values = (rng.standard_normal(shape) * rng.choice([1e-3, 1.0, 1e3])).astype(dtype)
        for eb in (1e-9, 1e-3, 0.5, 7.0):
            got = guarded_pointwise_bound(values, eb)
            expected = guarded_pointwise_bound_reference(values, eb)
            assert struct.pack("<d", got) == struct.pack("<d", expected)
    if np.issubdtype(dtype, np.floating):
        for special in (np.inf, -np.inf, np.nan):
            values = np.array([1.0, special, -2.0], dtype=dtype)
            got = guarded_pointwise_bound(values, 1e-3)
            expected = guarded_pointwise_bound_reference(values, 1e-3)
            assert struct.pack("<d", got) == struct.pack("<d", expected)


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64, np.int32], ids=str)
def test_working_precision_equals_the_copying_expression_bit_for_bit(dtype, rng):
    for shape in [(0,), (1,), (5, 7), (4, 3, 2)]:
        for scale in (1e-3, 1.0, 1e3):
            values = (rng.standard_normal(shape) * scale).astype(dtype)
            for eb in (1e-9, 1e-3, 0.5, 7.0):
                got = _working_precision(values, eb)
                expected = working_precision_reference(values, eb)
                assert got[0] is expected[0]
                assert struct.pack("<d", got[1]) == struct.pack("<d", expected[1])
                assert got[0] is (np.float32 if dtype is np.float32 and values.size else np.float64)


def test_a_float32_field_outside_float32s_comfortable_range_works_in_float64():
    """Non-finite values, magnitudes whose cubic sums could overflow and
    bounds whose roundings could go subnormal keep today's float64 path."""
    for values, eb in (
        ([1.0, np.nan], 1e-3), ([1.0, np.inf], 1e-3), ([2.0**100], 1.0), ([1.0], 2.0**-101)
    ):
        values = np.array(values, dtype=np.float32)
        got, expected = _working_precision(values, eb), working_precision_reference(values, eb)
        assert got[0] is expected[0] is np.float64
        assert struct.pack("<d", got[1]) == struct.pack("<d", expected[1])
        assert got[1] == guarded_pointwise_bound(values, eb) or np.isnan(got[1])
    # inside it, a guarded bound below float32's normal range counts as none
    values = np.array([1e-23, -5e-24], dtype=np.float32)
    eps32 = float(np.finfo(np.float32).eps)
    tol = 4.0 * eps32 * float(values[0]) / (1.0 - 1e-9 - 4.0 * eps32)  # the guard eats it
    for scale in (1.0, 1.0 + 1e-9):  # nothing left, then a subnormal sliver
        left = tol * scale * (1.0 - 1e-9) - 4.0 * eps32 * (float(values[0]) + tol * scale)
        assert left < 2.0**-126 and (scale == 1.0 or left > 0.0)
        got = _working_precision(values, tol * scale)
        assert got[0] is np.float32 and got[1] == 0.0
        assert SZCompressor().compress(values, tol * scale).metadata["lossless"]
