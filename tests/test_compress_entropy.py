"""Tests for the bitstream and Huffman entropy-coding stages."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.bitstream import pack_codes
from repro.compress import MGARDCompressor, SZCompressor, ZFPCompressor
from repro.compress.huffman import _decode_reference, huffman_decode, huffman_encode
from repro.exceptions import CompressionError

from .oracles.entropy_reference import (
    BitReader,
    huffman_encode_reference,
    pack_codes_reference,
)


# -- bitstream ------------------------------------------------------------------


def test_pack_codes_roundtrip_via_reader():
    values = np.array([0b101, 0b1, 0b11110000], dtype=np.uint64)
    lengths = np.array([3, 1, 8])
    payload, total_bits = pack_codes(values, lengths)
    assert total_bits == 12
    reader = BitReader(payload, total_bits)
    assert reader.read(3) == 0b101
    assert reader.read(1) == 0b1
    assert reader.read(8) == 0b11110000
    assert reader.remaining == 0


def test_pack_codes_empty():
    payload, bits = pack_codes(np.array([], dtype=np.uint64), np.array([], dtype=np.int64))
    assert payload == b"" and bits == 0


def test_pack_codes_rejects_mismatched_shapes():
    with pytest.raises(CompressionError):
        pack_codes(np.zeros(3, dtype=np.uint64), np.ones(2, dtype=np.int64))


def test_pack_codes_rejects_bad_lengths():
    with pytest.raises(CompressionError):
        pack_codes(np.zeros(1, dtype=np.uint64), np.array([0]))
    with pytest.raises(CompressionError):
        pack_codes(np.zeros(1, dtype=np.uint64), np.array([40]))


def test_pack_codes_drops_stray_high_bits():
    # Only the low ``length`` bits of a value belong to its code; anything
    # above must not bleed into the neighbouring code.
    assert pack_codes([0b111, 0], [1, 3]) == (b"\x80", 4)
    values = np.array([2**40 + 0b01, 2**63 + 0b110, 0xFFFFFFFFFF], dtype=np.uint64)
    lengths = np.array([2, 3, 32])
    assert pack_codes(values, lengths) == pack_codes_reference(values, lengths)
    assert pack_codes(values, lengths) == pack_codes(values & ((1 << lengths) - 1).astype(np.uint64), lengths)


@pytest.mark.parametrize("lead", [33, 40, 63])
def test_pack_codes_straddles_word_boundary(lead):
    # ``lead`` one-bits, then a 32-bit code crossing bit 64, then a tail.
    lengths = np.array([lead - 32, 32, 32, 7])
    values = np.array([2**63 - 1, 2**63 - 1, 0xDEADBEEF, 0b1010101], dtype=np.uint64)
    payload, total_bits = pack_codes(values, lengths)
    assert (payload, total_bits) == pack_codes_reference(values, lengths)
    reader = BitReader(payload, total_bits)
    assert reader.read(lead) == 2**lead - 1
    assert reader.read(32) == 0xDEADBEEF
    assert reader.read(7) == 0b1010101


@pytest.mark.parametrize("n_words", [1, 2, 3])
@pytest.mark.parametrize("extra_bits", [-1, 0, 1])
def test_pack_codes_stream_ends_at_word_boundary(n_words, extra_bits):
    # One bit short of, exactly on, and one bit past a 64-bit boundary
    # (the last leaves a final word holding nothing but a crossing tail).
    lengths = np.full(2 * n_words + 1, 32)
    lengths[0], lengths[-1] = 16, 16 + extra_bits
    values = np.arange(1, lengths.size + 1, dtype=np.uint64) * np.uint64(0x0101)
    payload, total_bits = pack_codes(values, lengths)
    assert total_bits == 64 * n_words + extra_bits
    assert len(payload) == 8 * n_words + (extra_bits > 0)
    assert (payload, total_bits) == pack_codes_reference(values, lengths)
    reader = BitReader(payload, total_bits)
    reader.skip(total_bits - int(lengths[-1]))
    assert reader.read(int(lengths[-1])) == int(values[-1])


@given(seed=st.integers(0, 2**31 - 1), n_codes=st.integers(1, 400), max_length=st.integers(1, 32))
@settings(max_examples=80, deadline=None)
def test_pack_codes_matches_reference(seed, n_codes, max_length):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, max_length + 1, n_codes)
    values = rng.integers(0, 2**63, n_codes).astype(np.uint64)  # stray bits included
    assert pack_codes(values, lengths) == pack_codes_reference(values, lengths)


def test_bitreader_exhaustion():
    payload, bits = pack_codes(np.array([1], dtype=np.uint64), np.array([1]))
    reader = BitReader(payload, bits)
    reader.read(1)
    with pytest.raises(CompressionError):
        reader.read(1)


def test_bitreader_peek_pads_with_zeros():
    payload, bits = pack_codes(np.array([0b1], dtype=np.uint64), np.array([1]))
    reader = BitReader(payload, bits)
    assert reader.peek16() == 0b1000000000000000


# -- huffman -------------------------------------------------------------------


@given(
    data=st.lists(st.integers(-50, 50), min_size=0, max_size=500),
)
@settings(max_examples=60, deadline=None)
def test_huffman_roundtrip(data):
    symbols = np.asarray(data, dtype=np.int64)
    assert np.array_equal(huffman_decode(huffman_encode(symbols)), symbols)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=20, deadline=None)
def test_huffman_roundtrip_peaked_distribution(seed):
    rng = np.random.default_rng(seed)
    symbols = np.round(rng.standard_normal(5000) * 2).astype(np.int64)
    assert np.array_equal(huffman_decode(huffman_encode(symbols)), symbols)


def test_huffman_escape_path(rng):
    symbols = np.round(rng.standard_normal(2000) * 2).astype(np.int64)
    symbols[rng.choice(2000, 20, replace=False)] = rng.integers(-(2**29), 2**29, 20)
    blob = huffman_encode(symbols, max_alphabet=16)
    assert np.array_equal(huffman_decode(blob), symbols)


def test_huffman_compresses_skewed_data(rng):
    symbols = np.zeros(10000, dtype=np.int64)
    symbols[rng.choice(10000, 100, replace=False)] = 1
    blob = huffman_encode(symbols)
    assert len(blob) < 10000 * 8 / 20  # > 20x on a near-constant stream


def test_huffman_single_symbol():
    symbols = np.full(100, 7, dtype=np.int64)
    assert np.array_equal(huffman_decode(huffman_encode(symbols)), symbols)


def test_huffman_empty():
    assert huffman_decode(huffman_encode(np.array([], dtype=np.int64))).size == 0


def test_huffman_rejects_oversized_symbols():
    with pytest.raises(CompressionError):
        huffman_encode(np.array([2**40], dtype=np.int64))


def test_huffman_rejects_bad_magic():
    with pytest.raises(CompressionError):
        huffman_decode(b"XXXX" + b"\x00" * 16)


def test_huffman_many_distinct_lengths():
    # Exponentially skewed counts force a wide range of code lengths and
    # exercise the length-limiting fix-up.
    symbols = np.concatenate([np.full(2**i, i, dtype=np.int64) for i in range(18)])
    assert np.array_equal(huffman_decode(huffman_encode(symbols)), symbols)


# -- vectorized encoder vs the scalar oracle: byte-identical blobs ----------------

_INT32_EDGE = 2**31 - 1


def _stream(kind: str, n: int, rng: np.random.Generator) -> np.ndarray:
    if kind == "skewed":  # what the predictor stages emit
        return np.round(rng.standard_normal(n) * rng.choice([0.6, 4.0, 300.0])).astype(np.int64)
    if kind == "flat":
        return rng.integers(-int(rng.integers(1, 600)), 600, n)
    if kind == "escape_heavy":  # a narrow core plus wild values, SZ's outlier code among them
        symbols = np.round(rng.standard_normal(n) * 2).astype(np.int64)
        wild = rng.random(n) < 0.15
        symbols[wild] = rng.choice([2**30, -_INT32_EDGE, _INT32_EDGE, 123456789], int(wild.sum()))
        return symbols
    if kind == "int32_edge":
        return rng.choice([-_INT32_EDGE, _INT32_EDGE, -_INT32_EDGE + 1, 0], n)
    if kind == "fibonacci":  # code lengths grow linearly: triggers the 16-bit limit
        counts = [1, 1]
        while sum(counts) < 40 * n:
            counts.append(counts[-1] + counts[-2])
        symbols = np.repeat(np.arange(len(counts)) - 5, counts)
        return symbols[rng.permutation(symbols.size)]
    assert kind == "single"
    return np.full(n, int(rng.integers(-_INT32_EDGE, _INT32_EDGE)))


@given(
    kind=st.sampled_from(
        ["skewed", "flat", "escape_heavy", "int32_edge", "fibonacci", "single"]
    ),
    n=st.integers(0, 1200),
    max_alphabet=st.sampled_from([1, 2, 3, 16, 4096]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=150, deadline=None)
def test_encode_is_byte_identical_to_reference(kind, n, max_alphabet, seed):
    symbols = _stream(kind, n, np.random.default_rng(seed))
    blob = huffman_encode(symbols, max_alphabet=max_alphabet)
    assert blob == huffman_encode_reference(symbols, max_alphabet=max_alphabet)
    assert np.array_equal(huffman_decode(blob), symbols)


def test_encode_is_byte_identical_with_length_limit_and_escapes(rng):
    # 6000 distinct values under a 4096 cap with a heavy tail of count-1
    # symbols: escapes, the 16-bit limit and its Kraft fix-up all active.
    symbols = np.concatenate(
        [np.round(rng.standard_normal(200_000) * 3), rng.permutation(6000) - 3000]
    ).astype(np.int64)
    blob = huffman_encode(symbols)
    assert blob == huffman_encode_reference(symbols)
    table = np.frombuffer(blob, dtype=np.uint8, count=5 * 4096, offset=10).reshape(-1, 5)
    assert table[:, 4].max() == 16 and table[:, 4].min() < 4


@pytest.mark.parametrize("max_alphabet", [0, -1, 65536, 100_000])
def test_max_alphabet_out_of_range_is_rejected(max_alphabet):
    # 100_000 used to spin forever in the Kraft fix-up (70_000 codes cannot
    # fit 16 bits) and 0 silently sliced ``[:-1]``.
    with pytest.raises(CompressionError, match="max_alphabet"):
        huffman_encode(np.arange(70_000), max_alphabet=max_alphabet)
    for codec in (SZCompressor, ZFPCompressor, MGARDCompressor):
        with pytest.raises(CompressionError, match="max_alphabet"):
            codec(max_alphabet=max_alphabet)


def test_max_alphabet_bounds_are_accepted():
    symbols = np.arange(70_000) % 66_000
    for max_alphabet in (1, 65535):
        blob = huffman_encode(symbols, max_alphabet=max_alphabet)
        assert np.array_equal(huffman_decode(blob), symbols)


@pytest.mark.parametrize(
    "span_per_symbol, outlier",
    [(1, None), (4, None), (5, None), (1, 2**30), (1, -_INT32_EDGE)],
    ids=["dense", "dense-limit", "sorted-just-past", "sorted-sz-outlier", "sorted-int32-edge"],
)
def test_histogram_memory_is_linear_on_both_sides_of_the_span_choice(
    span_per_symbol, outlier, rng
):
    # The dense histogram is chosen from the observed span vs. n; a short
    # chunk carrying SZ's 2**30 outlier code must not allocate its span.
    n = 5000
    symbols = rng.integers(0, n * span_per_symbol, n)
    symbols[:2] = (0, n * span_per_symbol - 1)
    if outlier is not None:
        symbols[n // 2] = outlier
    expected = huffman_encode_reference(symbols)
    tracemalloc.start()
    try:
        blob = huffman_encode(symbols)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert blob == expected
    assert np.array_equal(huffman_decode(blob), symbols)
    assert peak < 250 * (n + np.unique(symbols).size)


# -- vectorized decoder vs retained scalar reference ----------------------------


@given(data=st.lists(st.integers(-50, 50), min_size=0, max_size=500))
@settings(max_examples=60, deadline=None)
def test_vectorized_decode_matches_reference(data):
    blob = huffman_encode(np.asarray(data, dtype=np.int64))
    assert np.array_equal(huffman_decode(blob), _decode_reference(blob))


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=25, deadline=None)
def test_vectorized_decode_matches_reference_escape_heavy(seed):
    rng = np.random.default_rng(seed)
    symbols = np.round(rng.standard_normal(1500) * 2).astype(np.int64)
    # Tiny alphabet forces a large escaped fraction with extreme values.
    symbols[rng.choice(1500, 150, replace=False)] = rng.integers(
        -(2**31) + 1, 2**31 - 1, 150
    )
    blob = huffman_encode(symbols, max_alphabet=8)
    assert np.array_equal(huffman_decode(blob), _decode_reference(blob))
    assert np.array_equal(huffman_decode(blob), symbols)


def test_vectorized_decode_matches_reference_empty():
    blob = huffman_encode(np.empty(0, dtype=np.int64))
    assert np.array_equal(huffman_decode(blob), _decode_reference(blob))


def test_vectorized_decode_matches_reference_large_peaked(rng):
    symbols = np.round(rng.normal(0.0, 0.7, size=60_000)).astype(np.int64)
    blob = huffman_encode(symbols)
    assert np.array_equal(huffman_decode(blob), _decode_reference(blob))


def test_vectorized_decode_shorter_than_one_block(rng):
    # Fewer symbols than the 16-wide expansion block exercises the tail.
    for n in (1, 2, 15, 16, 17):
        symbols = rng.integers(-3, 3, n)
        blob = huffman_encode(symbols)
        assert np.array_equal(huffman_decode(blob), symbols)
        assert np.array_equal(huffman_decode(blob), _decode_reference(blob))


# -- vectorized BitReader vs retained scalar reference --------------------------


@given(
    seed=st.integers(0, 2**31 - 1),
    n_codes=st.integers(1, 40),
)
@settings(max_examples=40, deadline=None)
def test_bitreader_read_matches_reference(seed, n_codes):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 33, n_codes)
    values = np.array(
        [int(rng.integers(0, 2**l)) for l in lengths], dtype=np.uint64
    )
    payload, total_bits = pack_codes(values, lengths)
    vec = BitReader(payload, total_bits)
    ref = BitReader(payload, total_bits)
    for length in lengths:
        assert vec.peek16() == ref._peek16_reference()
        assert vec.read(int(length)) == ref._read_reference(int(length))
    assert vec.remaining == ref.remaining == 0


def test_bitreader_read_zero_bits():
    payload, bits = pack_codes(np.array([0b101], dtype=np.uint64), np.array([3]))
    reader = BitReader(payload, bits)
    assert reader.read(0) == 0
    assert reader.position == 0
    assert reader.read(3) == 0b101
