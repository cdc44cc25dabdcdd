"""Tests for the bitstream and Huffman entropy-coding stages."""

import base64
import hashlib
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.bitstream import pack_codes, peek16, window_words
from repro.compress import MGARDCompressor, SZCompressor, ZFPCompressor
from repro.compress.huffman import _code_lengths, huffman_decode, huffman_encode, lane_size
from repro.exceptions import CompressionError

from .oracles.entropy_reference import (
    BitReader,
    canonical_codes_reference,
    check_reference,
    code_lengths_reference,
    escapes_by_insert_reference,
    huffman_decode_reference,
    huffman_encode_reference,
    lane_index_reference,
    lane_size_reference,
    legacy_layout_reference,
    pack_codes_reference,
    read_sections_reference,
    stream_offset_reference,
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
        pack_codes(np.zeros(1, dtype=np.uint64), np.array([49]))
    assert pack_codes(np.ones(1, dtype=np.uint64), np.array([48])) == (b"\0" * 5 + b"\x01", 48)


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


@given(
    seed=st.integers(0, 2**31 - 1),
    n_codes=st.integers(1, 400),
    min_length=st.sampled_from([1, 33]),  # 33-48: a Huffman escape folded with its raw value
    max_length=st.integers(1, 48),
)
@settings(max_examples=120, deadline=None)
def test_pack_codes_matches_reference(seed, n_codes, min_length, max_length):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(min(min_length, max_length), max_length + 1, n_codes)
    values = rng.integers(0, 2**63, n_codes).astype(np.uint64)  # stray bits included
    assert pack_codes(values, lengths) == pack_codes_reference(values, lengths)


def _fold_escapes(values, lengths, escaped, raw, width):
    """What the shipped encoder packs: escape code and raw ``width``-bit
    value as one code."""
    values, lengths = values.copy(), lengths.copy()
    values[escaped] = (values[escaped] << np.uint64(width)) | raw
    lengths[escaped] += width
    return values, lengths


@given(
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 600),
    escape_length=st.integers(1, 16),
    width=st.integers(1, 32),
    density=st.sampled_from([0.02, 0.5, 1.0]),  # lone escapes, runs of them, nothing else
)
@settings(max_examples=120, deadline=None)
def test_folded_escapes_pack_to_the_bits_of_inserted_raw_values(seed, n, escape_length, width, density):
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 17, n)
    values = rng.integers(0, 2**16, n).astype(np.uint64) & ((1 << lengths) - 1).astype(np.uint64)
    escaped = np.flatnonzero(rng.random(n) < density)
    lengths[escaped] = escape_length
    values[escaped] = np.uint64(2**escape_length - 1)
    raw = rng.integers(0, 2**width, escaped.size).astype(np.uint64)
    expected = pack_codes_reference(*escapes_by_insert_reference(values, lengths, escaped, raw, width))
    assert pack_codes(*_fold_escapes(values, lengths, escaped, raw, width)) == expected


@pytest.mark.parametrize("escape_length", [1, 7, 16])
def test_folded_escape_at_every_offset_of_a_word(escape_length):
    # ``lead`` bits, then escape + raw value starting at each bit of a
    # 64-bit word (it crosses into the next from offset
    # 64 - length - width + 1 on), then a second escape right behind it
    # and a tail.
    for lead, width in itertools.product(range(1, 65), (1, 14, 32)):
        lengths = np.array([min(lead, 16)] * (lead // 16) + [lead % 16 or 16, escape_length, escape_length, 5])
        if lead % 16 == 0:
            lengths = np.delete(lengths, 0)
        assert lengths[:-3].sum() == lead
        values = np.full(lengths.size, 0b10101, dtype=np.uint64) & ((1 << lengths) - 1).astype(np.uint64)
        escaped = np.array([lengths.size - 3, lengths.size - 2])
        raw = np.array([0xDEADBEEF, 0x80000001], dtype=np.uint64) & np.uint64(2**width - 1)
        expected = pack_codes_reference(*escapes_by_insert_reference(values, lengths, escaped, raw, width))
        assert pack_codes(*_fold_escapes(values, lengths, escaped, raw, width)) == expected


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


@given(seed=st.integers(0, 2**31 - 1), n_bytes=st.integers(0, 40), lead=st.integers(0, 7))
@settings(max_examples=60, deadline=None)
def test_peek16_matches_bitreader_at_every_position(seed, n_bytes, lead):
    # ``lead`` bytes precede the stream in the buffer and junk follows it:
    # neither may show, and past the stream's last byte everything is zero.
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 256, n_bytes, dtype=np.uint8).tobytes()
    total_bits = 8 * n_bytes - int(rng.integers(0, 8)) if n_bytes else 0
    words = window_words(b"\xff" * lead + payload + b"\xff" * 3, lead, total_bits)
    reader = BitReader(payload, 8 * n_bytes)
    expected = []
    for position in range(8 * n_bytes):
        reader.position = position
        expected.append(reader.peek16())
    assert np.array_equal(peek16(words, np.arange(8 * n_bytes)), expected)
    assert not peek16(words, np.arange(8 * n_bytes, 8 * n_bytes + 100)).any()


# -- huffman -------------------------------------------------------------------


#: HUF4 layout bits of the header's last byte (bits 3-7 hold the check)
_TABLE_B, _INDEX_B, _WIDE = 1, 2, 4


def _sections(blob: bytes) -> dict:
    """The fields and section offsets of a HUF2 / HUF3 / HUF4 stream, read
    by the oracle, independently of the decoder: ``width`` is the raw bits
    of an escaped value (32 in HUF2), ``counts`` the codes per length (the
    escape included), ``stored`` the symbols in canonical order."""
    return read_sections_reference(blob)


def _reseal(blob) -> bytes:
    """``blob`` with its HUF4 check recomputed over the sections as the
    oracle parses them: what a stream damaged on purpose needs to get past
    the check to the test it is written for."""
    sections = _sections(bytes(blob))
    blob = bytearray(blob)
    blob[19] = blob[19] & 7 | check_reference(blob[sections["table_at"] : sections["payload_at"]], blob[19]) << 3
    return bytes(blob)


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
    if kind == "escape_widths":  # a narrow core plus a tail whose widest value needs 1-32 bits
        symbols = np.round(rng.standard_normal(n) * 3).astype(np.int64)
        tail = rng.random(n) < 0.2
        half = 2 ** int(rng.integers(0, 32))
        symbols[tail] = rng.integers(-half + 1, half, int(tail.sum()))
        return symbols
    if kind == "int32_edge":
        return rng.choice([-_INT32_EDGE, _INT32_EDGE, -_INT32_EDGE + 1, 0], n)
    if kind == "sparse":  # a few dozen values strewn over int32: code table (b)
        return rng.choice(rng.integers(-_INT32_EDGE, _INT32_EDGE, int(rng.integers(1, 60))), n)
    if kind == "fibonacci":  # code lengths grow linearly: triggers the 16-bit limit
        counts = [1, 1]
        while sum(counts) < 40 * n:
            counts.append(counts[-1] + counts[-2])
        symbols = np.repeat(np.arange(len(counts)) - 5, counts)
        return symbols[rng.permutation(symbols.size)]
    assert kind == "single"
    return np.full(n, int(rng.integers(-_INT32_EDGE, _INT32_EDGE)))


def _check_against_oracle(symbols, max_alphabet=4096):
    blob = huffman_encode(symbols, max_alphabet=max_alphabet)
    assert blob == huffman_encode_reference(symbols, max_alphabet=max_alphabet)
    decoded = huffman_decode(blob)
    assert decoded.dtype == np.int64 and np.array_equal(decoded, symbols)
    assert np.array_equal(decoded, huffman_decode_reference(blob))
    return blob


@given(
    kind=st.sampled_from(
        ["skewed", "flat", "escape_heavy", "escape_widths", "int32_edge", "fibonacci", "single", "sparse"]
    ),
    n=st.integers(0, 1200),
    max_alphabet=st.sampled_from([1, 2, 3, 16, 4096]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=150, deadline=None)
def test_encode_is_byte_identical_to_reference(kind, n, max_alphabet, seed):
    _check_against_oracle(_stream(kind, n, np.random.default_rng(seed)), max_alphabet)


def test_encode_is_byte_identical_with_length_limit_and_escapes(rng):
    # 6000 distinct values under a 4096 cap with a heavy tail of count-1
    # symbols: escapes, the 16-bit limit and its Kraft fix-up all active.
    symbols = np.concatenate(
        [np.round(rng.standard_normal(200_000) * 3), rng.permutation(6000) - 3000]
    ).astype(np.int64)
    blob = huffman_encode(symbols)
    assert blob == huffman_encode_reference(symbols)
    assert np.array_equal(huffman_decode(blob), huffman_decode_reference(blob))
    sections = _sections(blob)
    assert sum(sections["counts"]) == 4096 and sections["escape_length"] > 0
    assert sections["counts"][15] > 0 and sum(sections["counts"][:3]) > 0


@given(
    kind=st.sampled_from(["ties", "wide", "equal", "fibonacci", "geometric"]),
    m=st.integers(1, 300),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=150, deadline=None)
def test_code_lengths_match_the_heap_reference(kind, m, seed):
    """The two-queue merge and its pointer-jumped depths against the
    oracle's heap, on frequency multisets where ties decide the tree and
    on ones deep enough for the 16-bit limit."""
    rng = np.random.default_rng(seed)
    if kind == "ties":
        frequencies = rng.integers(1, int(rng.integers(2, 8)), m)
    elif kind == "wide":
        frequencies = rng.integers(1, 10**9, m)
    elif kind == "equal":
        frequencies = np.full(m, int(rng.integers(1, 1000)))
    elif kind == "fibonacci":
        frequencies = np.rint(1.618 ** np.minimum(np.arange(m), 80)).astype(np.int64)
    else:
        frequencies = rng.geometric(0.01, m)
    frequencies = np.sort(frequencies.astype(np.int64))  # rank = symbol, so (freq, symbol) order
    expected = code_lengths_reference({rank: int(f) for rank, f in enumerate(frequencies)})
    lengths = _code_lengths(frequencies)
    assert lengths.dtype == np.int64
    assert lengths.tolist() == [expected[rank] for rank in range(m)]


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


# -- lockstep decoder vs the scalar oracle --------------------------------------


@given(data=st.lists(st.integers(-50, 50), min_size=0, max_size=500))
@settings(max_examples=60, deadline=None)
def test_vectorized_decode_matches_reference(data):
    blob = huffman_encode(np.asarray(data, dtype=np.int64))
    assert np.array_equal(huffman_decode(blob), huffman_decode_reference(blob))


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
    assert np.array_equal(huffman_decode(blob), huffman_decode_reference(blob))
    assert np.array_equal(huffman_decode(blob), symbols)


def test_vectorized_decode_matches_reference_empty():
    blob = huffman_encode(np.empty(0, dtype=np.int64))
    assert np.array_equal(huffman_decode(blob), huffman_decode_reference(blob))


def test_vectorized_decode_matches_reference_large_peaked(rng):
    symbols = np.round(rng.normal(0.0, 0.7, size=60_000)).astype(np.int64)
    blob = huffman_encode(symbols)
    assert np.array_equal(huffman_decode(blob), huffman_decode_reference(blob))


@given(
    longest=st.integers(1, 16),
    escaped=st.booleans(),
    wide=st.booleans(),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_decode_tables_follow_the_longest_code(longest, escaped, wide, seed):
    """The decoder tabulates ``2**L`` prefixes for a stream whose longest
    code is ``L`` bits.  Fibonacci counts over ``L + 1`` values build a
    chain whose two deepest codes are ``L`` bits long; capping the
    alphabet at ``L + 1`` turns one of them into the escape."""
    rng = np.random.default_rng(seed)
    counts = [1, 1]
    while len(counts) < longest + 1:
        counts.append(counts[-1] + counts[-2])
    span = 2**30 if wide else 2**14
    values = rng.choice(2 * span, longest + 1, replace=False) - span
    symbols = np.repeat(values, counts)[rng.permutation(sum(counts))]
    blob = huffman_encode(symbols, max_alphabet=longest + 1 if escaped else 4096)
    sections = _sections(blob)
    assert max(i + 1 for i, count in enumerate(sections["counts"]) if count) == longest
    assert (sections["escape_length"] == longest) == escaped
    decoded = huffman_decode(blob)
    assert decoded.dtype == np.int64 and np.array_equal(decoded, symbols)
    assert np.array_equal(decoded, huffman_decode_reference(blob))


def test_vectorized_decode_shorter_than_one_block(rng):
    # Fewer symbols than the smallest lane: one lane, cut short.
    for n in (1, 2, 15, 16, 17):
        symbols = rng.integers(-3, 3, n)
        blob = huffman_encode(symbols)
        assert np.array_equal(huffman_decode(blob), symbols)
        assert np.array_equal(huffman_decode(blob), huffman_decode_reference(blob))


# -- the lane index ---------------------------------------------------------------


def test_lane_size_follows_sqrt_n_and_its_clamps():
    # The smallest power of two whose index (16 bits a lane) is at most
    # 1/56 of the code bits, in [16, the power of two nearest sqrt(n)/2].
    sizes = list(range(1, 3000)) + [2**k + d for k in range(11, 33) for d in (-1, 0, 1)]
    for n in sizes:
        cap = lane_size(n, n)  # one bit a symbol asks for 1024: the cap shows
        assert cap == lane_size_reference(n, n)
        assert 16 <= cap <= 1024 and cap & (cap - 1) == 0
        if 16 < cap < 1024:
            assert cap / 2**0.5 <= n**0.5 / 2 < cap * 2**0.5
        for bits_per_symbol in (1.6, 4.3, 8.66, 14.3, 48):
            total_bits = max(n, round(n * bits_per_symbol))
            lane = lane_size(n, total_bits)
            assert lane == lane_size_reference(n, total_bits)
            assert 16 <= lane <= cap and lane & (lane - 1) == 0
            if 16 < lane < cap:  # the index rule decides: half the lane would break it
                assert 16 * n / lane <= total_bits / 56 < 16 * n / (lane // 2)
    # The benchmark's streams (seed 1) keep the lanes they had when every
    # escape took 32 raw bits: a pool chunk, the H2 and EuroSAT SZ streams
    # and Borghesi's SZ, ZFP and MGARD streams.  Under 1/64, H2's stream
    # (7.72 bits a symbol) would take 256, which decodes 1.9 ms slower.
    assert lane_size(18_428, 70_216) == 64
    assert lane_size(589_808, 4_555_706) == 128 and lane_size(224_639, 2_781_669) == 128
    assert lane_size(212_988, 1_343_547) == 256
    assert lane_size(262_144, 2_260_586) == 128 and lane_size(212_988, 2_483_998) == 128
    assert -(-1024 * 589_808 // 4_555_706) > 128


def _field_like_stream(rng, n: int) -> np.ndarray:
    """SZ-like codes at 8-9 bits a symbol: a peaked body and a 3 % tail of
    values far outside the alphabet cap, each one escaped."""
    symbols = np.round(rng.laplace(0.0, 40.0, n)).astype(np.int64)
    tail = rng.random(n) < 0.03
    symbols[tail] = rng.integers(-(2**20), 2**20, int(tail.sum()))
    return symbols


@pytest.mark.parametrize("lane", [1024, 512, 256])
def test_streams_written_at_an_earlier_lane_still_decode(lane, rng):
    # The lane is in the header: a stream the sqrt(n)/2 rule wrote at 512
    # (or any lane from 1 to 1024) decodes as it always did.
    symbols = _field_like_stream(rng, 2**18)
    blob = huffman_encode_reference(symbols, lane=lane)
    sections = _sections(blob)
    assert sections["lane"] == lane and sections["escape_length"] > 0
    assert 8 <= sections["total_bits"] / symbols.size <= 9
    decoded = huffman_decode(blob)
    assert decoded.dtype == np.int64 and np.array_equal(decoded, symbols)
    # today's encoder writes the same code bits at a shorter lane
    shipped = huffman_encode(symbols)
    assert _sections(shipped)["lane"] == 128
    assert shipped[_sections(shipped)["payload_at"] :] == blob[sections["payload_at"] :]


@pytest.mark.parametrize("lane_count", [1, 2, 7])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_stream_lengths_around_a_lane_boundary(lane_count, offset, rng):
    # 5000 symbols is 32 to a lane: n = kB - 1, kB, kB + 1, and the same
    # around the 16-symbol lanes of short streams (a single lane when k = 1).
    for n in (16 * lane_count + offset, 5024 + 32 * lane_count + offset):
        symbols = np.round(rng.standard_normal(n) * 3).astype(np.int64)
        sections = _sections(_check_against_oracle(symbols))
        assert sections["n_lanes"] == -(-n // sections["lane"])


@pytest.mark.parametrize("where", [-1, 0, 1], ids=["lane-end", "lane-start", "second"])
@pytest.mark.parametrize("value", [2**30, -(2**31) + 1, 2**31 - 1], ids=hex)
def test_escapes_at_lane_edges(where, value, rng):
    # The raw 32 bits belong to the lane of their escape code: as the last
    # symbol of a lane they run up to the boundary, as the first they start
    # on it.  2**30 is SZ's outlier code; the others are the int32 edges.
    n = 5000
    lane = lane_size(n, n)  # sqrt(n)/2 caps every 5000-symbol stream at 32
    symbols = np.round(rng.standard_normal(n) * 2).astype(np.int64)
    at = np.arange(lane, n, lane) + where
    symbols[at] = value
    symbols[-1] = value  # and as the last symbol of the stream
    blob = _check_against_oracle(symbols, max_alphabet=8)
    sections = _sections(blob)
    assert sections["lane"] == lane
    assert sections["escape_length"] > 0 and not sections["layout"] & _TABLE_B
    # every lane's bit length counts its escapes' raw bits
    assert sum(sections["lane_bits"]) == sections["total_bits"]


def test_wide_symbols_are_stored_as_int32(rng):
    # Spans this wide take code table (b), whose symbols are int16 when
    # every one fits.
    symbols = rng.choice([2**30, -(2**31) + 1, 40_000, 0, 1], 300)
    sections = _sections(_check_against_oracle(symbols))
    assert sections["layout"] & _TABLE_B and sections["symbol_bytes"] == 4
    assert sections["escape_length"] == 0
    narrow = _sections(_check_against_oracle(rng.choice([-(2**15), 2**15 - 1, 0], 300)))
    assert narrow["layout"] & _TABLE_B and narrow["symbol_bytes"] == 2


def test_code_bits_are_pack_codes_of_the_canonical_codes(rng):
    # The header changed with HUF2 and HUF4; the packed code bits are still
    # the plain concatenation of each symbol's canonical code.
    symbols = np.round(rng.standard_normal(3000) * 4).astype(np.int64)
    blob = huffman_encode(symbols)
    sections = _sections(blob)
    lengths = np.repeat(np.arange(1, 17), sections["counts"])
    codes = canonical_codes_reference(dict(zip(sections["stored"], lengths.tolist())))
    values, value_lengths = zip(*(codes[symbol] for symbol in symbols.tolist()))
    payload, total_bits = pack_codes(np.array(values, dtype=np.uint64), np.array(value_lengths))
    assert total_bits == sections["total_bits"]
    assert blob[sections["payload_at"] :] == payload


def test_decode_memory_is_linear_in_symbols_not_bits(rng):
    # 14 bits per symbol: a decoder that tabulates every bit offset needs
    # an order of magnitude more than one that tabulates every symbol.
    n = 200_000
    symbols = rng.integers(0, 2**14, n)
    blob = huffman_encode(symbols, max_alphabet=2**14 + 1)
    assert _sections(blob)["total_bits"] >= 13.9 * n
    tables = 2**16 * (8 + 1)
    tracemalloc.start()
    try:
        decoded = huffman_decode(blob)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(decoded, symbols)
    assert peak <= 32 * n + tables


# -- corrupt and truncated streams ------------------------------------------------


def _fuzz_stream(kind: str, seed: int) -> "tuple[np.ndarray, bytes]":
    rng = np.random.default_rng(seed)
    symbols = _stream(kind, int(rng.integers(1, 700)), rng)
    return symbols, huffman_encode(symbols, max_alphabet=int(rng.choice([1, 2, 3, 16, 4096])))


def _decodes_or_refuses(blob: bytes, n: int) -> "np.ndarray | None":
    """What the blob decoded to (``n`` int64 values), or None when it was
    refused with ``CompressionError``; anything else propagates."""
    try:
        decoded = huffman_decode(blob)
    except CompressionError:
        return None
    assert decoded.dtype == np.int64 and decoded.shape == (n,)
    return decoded


_FUZZ_KINDS = ["skewed", "flat", "escape_heavy", "escape_widths", "int32_edge", "single", "sparse"]


@given(kind=st.sampled_from(_FUZZ_KINDS), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_every_truncation_is_refused(kind, seed):
    # each stream as HUF4 and as the HUF2 / HUF3 stream written before it
    __, blob = _fuzz_stream(kind, seed)
    for stream in (blob, legacy_layout_reference(blob)):
        sections = _sections(stream)
        edges = {sections[key] for key in ("table_at", "stored_at", "index_at", "payload_at")}
        cuts = edges | {edge - 1 for edge in edges} | {edge + 1 for edge in edges}
        cuts |= set(range(0, 24)) | {len(stream) - 1, len(stream) - 2}
        for cut in sorted(cut for cut in cuts if 0 <= cut < len(stream)):
            with pytest.raises(CompressionError):
                huffman_decode(stream[:cut])


@given(
    kind=st.sampled_from(_FUZZ_KINDS),
    seed=st.integers(0, 2**31 - 1),
    section=st.sampled_from(["header", "counts", "stored", "index"]),
    data=st.data(),
)
@settings(max_examples=300, deadline=None)
def test_bit_flips_before_the_payload_never_escape_as_other_errors(kind, seed, section, data):
    # A flipped header field may decode (to other symbols); what may never
    # happen is an IndexError, a hang, or an output of the wrong length.
    # The code table ("counts": the span or the per-length counts, "stored":
    # the bitmap and nibbles or the symbols) and the index are under the
    # HUF4 check: a flip there is refused or decodes the same array.  The
    # HUF2 / HUF3 stream written before has no check, so only its index is
    # held to that.
    symbols, blob = _fuzz_stream(kind, seed)
    for stream in (blob, legacy_layout_reference(blob)):
        sections = _sections(stream)
        start, stop = {
            "header": (0, sections["table_at"]),
            "counts": (sections["table_at"], sections["stored_at"]),
            "stored": (sections["stored_at"], sections["index_at"]),
            "index": (sections["index_at"], sections["payload_at"]),
        }[section]
        if start == stop:  # an alphabet that is the escape alone stores no symbol
            continue
        at = data.draw(st.integers(start, stop - 1))
        bit = data.draw(st.integers(0, 7))
        corrupt = bytearray(stream)
        corrupt[at] ^= 1 << bit
        n = struct.unpack_from("<I", corrupt, 4)[0]
        decoded = _decodes_or_refuses(bytes(corrupt), n)
        if section == "index":
            # every lane must end where the index says: never a silent pass
            assert decoded is None
        elif section != "header" and stream[:4] == b"HUF4" and decoded is not None:
            assert np.array_equal(decoded, symbols)


def _with_lane_bits(blob: bytes, lane_bits) -> bytes:
    """``blob`` with another lane index, in the layout the oracle picks for
    it, and a check that covers it."""
    sections = _sections(blob)
    index, index_b = lane_index_reference(list(lane_bits))
    relaid = bytearray(blob[: sections["index_at"]] + index + blob[sections["payload_at"] :])
    relaid[19] = relaid[19] & ~_INDEX_B | _INDEX_B * index_b
    return _reseal(relaid)


def _moved_lanes_are_refused(blob: bytes) -> None:
    """The index rewritten with one lane's bit length moved and the check
    resealed, so the lane check is what refuses it."""
    sections = _sections(blob)
    assert _with_lane_bits(blob, sections["lane_bits"]) == blob
    for lane in (0, 1, sections["n_lanes"] // 2, sections["n_lanes"] - 1):
        for delta in (1, -1, 16):
            lane_bits = list(sections["lane_bits"])
            lane_bits[lane] += delta
            with pytest.raises(CompressionError, match="lane"):
                huffman_decode(_with_lane_bits(blob, lane_bits))


def test_corrupt_lane_length_is_caught_by_the_boundary_check(rng):
    symbols = np.round(rng.standard_normal(5000) * 3).astype(np.int64)
    blob = huffman_encode(symbols)
    assert _sections(blob)["lane"] == 32 and not _sections(blob)["layout"] & _INDEX_B
    _moved_lanes_are_refused(blob)


def test_corrupt_lane_length_in_index_b_is_caught_by_the_boundary_check(rng):
    # 13-bit codes every other 32-symbol lane: deltas of ~300 bits escape
    symbols = np.round(rng.standard_normal(5000) * 3).astype(np.int64)
    wide = np.arange(5000) // 32 % 2 == 1
    symbols[wide] = rng.integers(-(2**30), 2**30, int(wide.sum()))
    blob = huffman_encode(symbols)
    assert _sections(blob)["lane"] == 32 and _sections(blob)["layout"] & _INDEX_B
    _moved_lanes_are_refused(blob)


def test_corrupt_headers_are_refused(rng):
    symbols = np.round(rng.standard_normal(5000) * 3).astype(np.int64)
    blob = huffman_encode(symbols, max_alphabet=8)
    sections = _sections(blob)
    assert sections["layout"] == 0  # code table and index (a)
    # the same stream as HUF3, whose byte 19 is the bytes per stored symbol
    legacy = legacy_layout_reference(blob)
    assert legacy[:4] == b"HUF3" and legacy[19] == 2
    for stream, last_byte in (
        (blob, [blob[19] ^ 1 << bit for bit in range(8)]),  # layout and check
        (legacy, (0, 1, 3, 4, 8)),  # bytes per stored symbol (2 here)
    ):
        for at, fmt, values in (
            (4, "<I", (4999, 5001, 0xFFFFFFFF, 1)),  # n
            (8, "<Q", (0, 1, 2**63, sections["total_bits"] + 1)),  # total_bits
            (16, "<H", (0, 16, 64, 1025, 65535)),  # lane (32 here)
            (18, "<B", (0, 17, 255)),  # escape code length
            (19, "<B", last_byte),
        ):
            for value in values:
                corrupt = bytearray(stream)
                struct.pack_into(fmt, corrupt, at, value)
                with pytest.raises(CompressionError):
                    huffman_decode(bytes(corrupt))
    # an over-subscribed code table: the first symbol's code cut to one bit
    corrupt = bytearray(blob)
    corrupt[sections["nibbles_at"]] &= 0x0F
    with pytest.raises(CompressionError, match="over-subscribed"):
        huffman_decode(_reseal(corrupt))
    # and in the HUF3 table: three codes of length one
    corrupt = bytearray(legacy)
    struct.pack_into("<H", corrupt, _sections(legacy)["table_at"], 3)
    with pytest.raises(CompressionError):
        huffman_decode(bytes(corrupt))


def test_huf1_streams_are_refused_by_name():
    # what PR 12's encoder wrote for [7, 7, 7]
    huf1 = b"HUF1" + struct.pack("<IH", 3, 1) + struct.pack("<iB", 7, 1) + struct.pack("<Q", 3) + b"\x00"
    with pytest.raises(CompressionError, match="HUF1"):
        huffman_decode(huf1)


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


# -- the lane index inside SZ blobs --------------------------------------------------


@given(kind=st.sampled_from(_FUZZ_KINDS), seed=st.integers(0, 2**31 - 1), bit=st.integers(0, 15))
@settings(max_examples=200, deadline=None)
def test_a_flipped_lane_field_is_refused_or_names_the_same_stream(kind, seed, bit):
    """A stream of one lane decodes the same under any lane at least its
    length; every other flip of the header's lane field is refused."""
    rng = np.random.default_rng(seed)
    symbols = _stream(kind, int(rng.integers(1, 5000)), rng)
    corrupt = bytearray(huffman_encode(symbols))
    corrupt[16 + bit // 8] ^= 1 << (bit % 8)
    try:
        decoded = huffman_decode(bytes(corrupt))
    except CompressionError:
        return
    assert np.array_equal(decoded, symbols)


def _sz_entropy_offset(payload: bytes) -> int:
    """Where the Huffman stream starts in an SZ payload (parsed as SZ does)."""
    return stream_offset_reference("sz", payload)


@given(
    seed=st.integers(0, 2**31 - 1),
    target=st.sampled_from(["lane", "index", "cut"]),
    dtype=st.sampled_from([np.float32, np.float64]),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_sz_blobs_refuse_a_damaged_lane_index(seed, target, dtype, data):
    """A single-bit flip of the lane field or of a lane's bit length, or a
    payload cut inside them, ends in ``CompressionError`` from
    ``safe_decompress`` on the blob in memory and in ``IntegrityError``
    from the wire (CRC32), never in another array."""
    import dataclasses

    from repro.exceptions import IntegrityError
    from repro.io.serialization import blob_from_bytes, blob_to_bytes

    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(4, 40)), int(rng.integers(4, 60)))
    field = np.cumsum(rng.standard_normal(shape), axis=1).astype(dtype)
    codec = SZCompressor()
    blob = codec.compress(field, float(10.0 ** rng.uniform(-4, -1)))
    expected = codec.decompress(blob)
    start = _sz_entropy_offset(blob.payload)
    sections = _sections(blob.payload[start:])
    if target == "cut":
        byte, mask = data.draw(st.integers(start + 16, start + sections["payload_at"])), 0
    else:
        lo, hi = {"lane": (16, 18), "index": (sections["index_at"], sections["payload_at"])}[target]
        byte, mask = start + data.draw(st.integers(lo, hi - 1)), 1 << data.draw(st.integers(0, 7))

    def damage(raw: bytes, at: int) -> bytes:
        """``raw`` cut at, or with one bit flipped at, payload byte ``byte``;
        the payload starts at ``at``."""
        if not mask:
            return raw[: at + byte]
        raw = bytearray(raw)
        raw[at + byte] ^= mask
        return bytes(raw)

    damaged = dataclasses.replace(blob, payload=damage(blob.payload, 0))
    try:
        assert np.array_equal(codec.safe_decompress(damaged), expected)
    except CompressionError:
        pass
    wire = blob_to_bytes(blob)
    with pytest.raises((IntegrityError, CompressionError)):
        blob_from_bytes(damage(wire, len(wire) - len(blob.payload)))


# -- HUF3: an escape's raw field is as wide as the widest escaped value ----------

#: ``huffman_encode(_huf2_era_symbols(), max_alphabet=16)`` as written while
#: every escape took 32 raw bits (HUF2): 35 of its 400 symbols are escaped,
#: the int32 edges and SZ's 2**30 outlier code among them.
_HUF2_ESCAPED_STREAM = base64.b64decode(
    "SFVGMpABAAAyCgAAAAAAABAABAIAAAAABAAGAAMAAQACAAAAAAAAAAAAAAAAAAAAAAAAAP//AAAB"
    "AAIA/P/9//7/AwAEAPv/BQAGAPn/+v8HAHsANQC+AHsAXAA4AF8AXQA6AIEAPAB/AEIAdwDAAFsA"
    "YQA8ADoAOACcAJwANwBZANgAqrdUIf////6tFXAAACo5KCOsmwOi06+GR///rYtOAAAExMdcf///"
    "/G+gAABohj///Q1omP//6bfG8+XAaMjKPFyoAAAdEVVrGNw+o60KDEj/n8x///zsj1lyLLtx///m"
    "pE3IH/dHdXWze0qVYBd3H//+O0q1RAAAAA5Vruc51ZvMJ8bnzpLjvbP1V4KP//9QuzAAAAARfep7"
    "QsP/j/bcf//9E76EhgL2P////cmAAAAAmP////VIaoAAAEGvyfYAAAaY/euAAAEk+ZxmpV5kiyJm"
    "h9eK/3nhj//+vzngRqihLX6tHCldhHfqK1D4jAKoiqJcqP//9fq7yP////gV6P//+4vG9buP//79"
    "/iUf//5+vMuAAAEPDBLVrBgktDJskmAAAAAjh/g4XZbQUf////Fg7H///e+YAAAACMIj//+6xhAA"
    "AAAA"
)

#: ``blob_to_bytes(SZCompressor(max_alphabet=16).compress(_walk7(40, (6, 20)),
#: 1e-3))`` from the same encoder: a float32 SZ blob whose HUF2 stream
#: escapes, and the digest of the field it decoded to.
_HUF2_ESCAPED_SZ_BLOB = base64.b64decode(
    "UkJMQgIAuQAAAF0QnZB7ImNvZGVjIjoic3oiLCJzaGFwZSI6WzYsMjBdLCJkdHlwZSI6ImZsb2F0"
    "MzIiLCJtb2RlIjoiYWJzIiwidG9sZXJhbmNlIjowLjAwMSwibWV0YWRhdGEiOnsiYW5jaG9yX3N0"
    "cmlkZSI6NjQsImViIjowLjAwMDk5ODI5NjUzMjMyODM1NzMsImludGVycG9sYXRpb24iOiJkeW5h"
    "bWljIiwicHJlY2lzaW9uIjoiZmxvYXQzMiJ9ff7cUL0oW1A/AQAAAAAAAAAMAAAAAAAAAAAAAABI"
    "VUYydwAAABEHAAAAAAAAEAACAgAAAQABAAYACAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA3P9T/uL+"
    "cf8AACQAawAp/yr/lf+4/0cAswDWAEIBUAG8ANIAUgHVAJ0AFAFbAH2AAABQgAAACzH///r4AAAA"
    "NnQAAAD6AAAAu9H///tAf//+9DH///xfu8a9PD///7hQAAABHzR///8Xn///01yblH///4Mf///X"
    "5///87H///uGf///OzJK/UqnUPk///+Cz///01P//+88///8pj///ymP///TQ///9Ne0AAAAa+gA"
    "AACQAAAAEi9oAAAAkEv4UgAAADYAAAAJAAAABHzG/n///19B////czfoeAAAADXaMqgAAAFmd89Y"
    "////Bj///6aP///7mQAAAGKZj///8FAAAAPo///953P///wXk/wA"
)
_HUF2_ESCAPED_SZ_RECON = "0be2755167d335afe9283235f601d50f"

#: ``huffman_encode(_huf3_era_symbols(), max_alphabet=16)`` as written
#: before HUF4: escapes 14 raw bits wide, both sections in layout (b).
_HUF3_STREAM = base64.b64decode(
    "SFVGM5ABAAA4BwAAAAAAABAABAKOAAAAAAQABgADAAEAAgAAAAAAAAAAAAAAAAAAAAAAAAD+////"
    "AAABAPz//f8CAAMABAD7/wUABgD6//n/BwA7AFMAOwBlADcAWABGAEkARwA6ADwAPgBXAEcAPABM"
    "AEoATAB0AEUAVABHAEkATABMAJaucUzI3APQhCiENwrC7sHxTB7tKeLq2klliYBZEOcuDLQNxa1n"
    "M3GSE81ORSAXycSdUn6Od4vhEzVchTrSRLOGKj6le7Q08xyMAGRg1tOy3v4qdfDaFujuUNtF5+up"
    "FUjnLlHJXdN5e59cABZKBXoJW7VCtMrzTNbH/saIzrkGp7lUhdqjw9F72TAO3uUH46I8wrHNucd1"
    "Afv99ZZAZ5m3rhZLi3kggSkr+hSie/VcLXDbjvrJZaUYfVk4ZEKNiWu9ukDkABFsPod5/Towmjp3"
    "YqiZdIN0/Q2h1/q6tW55WPYOp+1VaQ=="
)
_HUF3_STREAM_DECODED = "a059342494747e1816303cc096c74940"

#: ``blob_to_bytes(SZCompressor(max_alphabet=16).compress(_walk7(41, (6, 20)),
#: 1e-3))`` from the same encoder: an SZ blob whose stream is HUF3.
_HUF3_SZ_BLOB = base64.b64decode(
    "UkJMQgIAuAAAAOiqwu97ImNvZGVjIjoic3oiLCJzaGFwZSI6WzYsMjBdLCJkdHlwZSI6ImZsb2F0"
    "MzIiLCJtb2RlIjoiYWJzIiwidG9sZXJhbmNlIjowLjAwMSwibWV0YWRhdGEiOnsiYW5jaG9yX3N0"
    "cmlkZSI6NjQsImViIjowLjAwMDk5Njg2NjAyMDc0MDA2MSwiaW50ZXJwb2xhdGlvbiI6ImR5bmFt"
    "aWMiLCJwcmVjaXNpb24iOiJmbG9hdDMyIn19/txIvShVUD8BAAAAAAAAAAwAAAAAAACgJEnCP0hV"
    "RjN3AAAAAAMAAAAAAAAQAAICjQAAAQABAAYACAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA3P8AACQA"
    "SACPALMA+wAp/3H/uP+5/0cA1wCKAa4BfgBOAFcAmgBVAFcAbQAqAPx8LwCYT/LO8+qOiB52zGNT"
    "pmmuW00BH5mT8oy7+vacA1xTJPGTylicHcM9NHgs7hnOxwBGgDXOdgJBQAkKepW0tqo7bwj8riIj"
    "tAGxJz3CzvYFnmT4L09M8hu+ttWeUg=="
)
_HUF3_SZ_RECON = "25a7ca2733dcd48f7d3fead21f07ec52"

#: ``blob_to_bytes(SZCompressor().compress(_chunk_field(), 1 / 32))`` from the
#: same encoder: one (9, 8, 256) chunk, 14 codes and no escape, so HUF2.
_HUF2_CHUNK_BLOB = base64.b64decode(
    "UkJMQgIAvAAAADUfB+p7ImNvZGVjIjoic3oiLCJzaGFwZSI6WzksOCwyNTZdLCJkdHlwZSI6ImZs"
    "b2F0MzIiLCJtb2RlIjoiYWJzIiwidG9sZXJhbmNlIjowLjAzMTI1LCJtZXRhZGF0YSI6eyJhbmNo"
    "b3Jfc3RyaWRlIjo2NCwiZWIiOjAuMDMxMjQ5NzM5MTk4NDI5MTEsImludGVycG9sYXRpb24iOiJk"
    "eW5hbWljIiwicHJlY2lzaW9uIjoiZmxvYXQzMiJ9faGPdn/u/58/BAAAAAAAAAASAACRgAAAAAAA"
    "ANA/AAAAAAAA3D8AAAAAAADfPwAAAAAAANk/SFVGMvxHAAD6dQAAAAAAAEAAAAIBAAEAAQABAAEA"
    "AQAAAAEABQACAAAAAAAAAAAAAAAAAAAA//8BAP7//f8CAPz/+v/7/wQABQAGAPn/AwAkAYwBQwFX"
    "AGEAYQDAAb4BwQG2AZUAIAGvACMBsgAnAaAAIAGgABwBTgBYAE0AUwBLAFIATgBMAFAATQBSAE4A"
    "TgBbAE0ASgBIAFIARwBiAM0A2AC6ANIAvgDRANwAvQCBAHYAiQB8AH4AgACEAH4AgwCCAIUAigB3"
    "AI0AjACOANgAxgDPAMoA1QC+AM8AvgBXAFgATABOAEoAUgCUAIgAVwBXAFUARwBQAFAAkQCEAFoA"
    "WABTAFIATQBNAI4AiABWAFgAUQBRAEYATQCRAIoAVQBXAE8AVABKAEoAkgCLAFQAUwBJAFAATQBK"
    "AJQAigBYAFcARwBYAEkATQCKAIoAWwBdAFEATgBGAE8AjwCQAGIAXABNAEwASABNAJIAjQBGAFIA"
    "SABEAE0ATwBKAEkASwBOAEgAVwBMAEYATwBHAFAAUgBPAE4ARgBQAFEATABSAFIAUQBOAE4AUABR"
    "AEkATQBOAEkAUgBGAEgASgBUAEwASwBKAEkAWwBLAEwAUABUAEgATABUAE0ARQBPAEgAUABMAEMA"
    "SABFAEkASgBGAFAATABMAE4AUwBJAFEATwBPAEwASwBLAEgATABHAEwATABSAE0ATQBIAFsATgBG"
    "AEcATgBNAEQAUABPAFMARwBTAFMATABNAFAATQBHAE4ARgBUAEYATABNAEUARgBKAEgAUgBLAFAA"
    "TQBLAE0ARwBNAFEARwBQAFEATwBHAFUATABFAFEAUABWAEgARwBIAEkASgBLAEsATQBNAFEARgD3"
    "/fr39/Pq//8/v8/Xf6/X//39+/r9ff395MsmWsZBjb37/Xvv9/n7/78+/3+35+vzf7/b8/783+/3"
    "35/373ve973ve93vd3ve/Pfnve973vz3vz357vfnvd73e973ve/Pe97vz3573vz3vfnve973d73v"
    "e/Pe973ve9+e97wAAagBHkAqQCBkqYxsDAAZiMMEzYGGfADbMwAIQAQABAf7+a/P3+v3+W//+/3/"
    "fz579/v9fnP//v+/v8+vfv9/v98+/v9/v8+e/f7/X79ffz+/7+/O/f6/f9/nz8/f6/f5b//7/v9/"
    "Ne/f7/f5z//7/v7/Pnfv9/r859/f9/f7/7vz9fv89ffz+/7+/bvz9/rt//+/3+/mvfv9/v87f//f"
    "9/f7nv3+v3+effz/f3+f+9+/3+vzn39/v+/v/u/P1/378+/n+/39/nb//7/v9/Pnvz9fv85//9/3"
    "9/n179/r9/nn//3/f7+/+9+fr9fnPv7/f7/Pnfn6/X79ffz/f7+//tsxttsw2zM222bMDbbbBmzM"
    "3ve73vd7u73ve973e73e97ve93e7u73ve93u93ve973e7vd73ebbNsbZttm22zZtts2YzbbbbbbG"
    "297353ve73u973u73e973e97ve97u73u73ve9357ve93d3vd+e97hts2zbbbNtm222z7ZtjbNts2"
    "zZtt73e97893d7u73u73e9+e7u93vd7ve/O93ve73ve93vd3e9353d22ZszYzNtttm22Y22GbbY3"
    "22Db3u973vfne73e73e73e93d7u973ve93u73vd7u7u97u73d73u9ttswzbbbbY2Nm22222DbMM2"
    "223u93d3d73ve973d73e973u93d3u973u7vd73ve9+d7u973u97vAAAAjMDBIAAEFMYkG2AYGMAB"
    "DABGwAAAqgBEAAYCzGQAAAIqMAYKBijAmBABjAAGAAAIhgSEQAA2CIEwFAAAgBQQgoDYIYAABAAK"
    "KBAANsAYBAAxABgAgAPmEDEBAQKAAhoQAEwwDVABkCIgADAwAUDABtsAAAAAAADANgBkADAHABGb"
    "AQCAMYABtsuMEgAAMghkGAAhAMkAGSAAIACAAIAGBACAACAAwBgQkAAFBtgMEAMAAAGGMAAAACAT"
    "bAAMAMABsAwG+++++zBd3d1SNt9999t9sVd3ddUb77fffffbZXV3d3dU23333332zKu7u7qhtvvv"
    "tvtsVffffbbYLu7uqhtvvvvvtsVXdddQ232+++2xVdXdUbb7777ffbCu7u7upNt9vvvvtsK7fffb"
    "YFd3d1VG2+++++2FXd3VUN9vt99999hVd3dyDb777b77YV3d3XUN9vvvvvvtsVfb77777Cru7u6u"
    "bbfffffffbCru7u6ptt99999vsK7uuuqZtvvvvtthV3d3dGbfffb77ZiuFVVRMZvt9mEqqqBtttj"
    "CkuoBtm2wFXJDbbbbbAqpUCqqJNttvtsFVUojNtvtsFVVdCbNttmFKupQ22+2GKVVQEqlDNtttsV"
    "VSqiNttsBVVVDNttvsCp1dINtt9swVVQBCkBt9tvtgTqpQ22222BVXVRm2+222CVVUDbZsYUrqkR"
    "QxttsKVVUGzbfbbBVUqmbb7bGxS66pBtttsBVVUBttooGzbbAqqqTbbbb7GKqqqo2z7fbbESq4gz"
    "bBkqqqjbbbfVQNs22MKqqqGbbbZolVEBs2YKVdUBtvvvtgCqqhtvvvtRMbbfbbBFdVS223222yVV"
    "VQDZmZiqqVA222GKqqoNttt9999999tiqu7u6g2+++++2wrrvd3UW3333//ffbNVd3VUNvt999ts"
    "Fd3d3dwN9999999titvt9vvthdXd1VDffb7fbfCq7u6qbfb777777bFXd3ddI332+++++2K6quqj"
    "bffffb5hW++++++22Ku7u6qNt99999thV3d3VRtvvvvvvvtiru7u6hm333232wqu7qhm3332+2wr"
    "7fffffbbK6u7rqG3333322wd13d1cG2+++++2yV3d1VTbb77777bE6u7u6ht9vt999sjmAABgBjD"
    "AYBtbAMMZmDAABgAGG2MAMyAMAAAAjGDBEABgwAQgwCAQA2AIABAAAEAAIDNkCBgbACEoEAAC5XV"
    "V1cu7u6qqqqqqqqqruqqqulyddVSVVXVdVVXVOqrqqpdUAzEwADBgMMMAMMG2BgAADMwDYMwAwmA"
    "jAQTQZhAABYRgAAEAAMAAIwgAAMAAoDAwIkMCwAYABAgDFBCFglXVVVVVV3VdVXKuqqqquqqurqu"
    "VdcqpFVVVddVSrqrp1VVQAGwDDABmAYGGG2wAAAzZhAMbAAZtgEgBBsAQwwygQYAhMBgmAQKgGEE"
    "wAEAAMAgGDBgAYEDAAAgQgAgEGBVVXVVXdVVVVVVXVVSqqrpVd111VVKqqqul3d11VVV1VXKhUAA"
    "AYGwzAwNjGMAAGGDAAMbABmBBmMhCIhggMKAADYAGAALCwAACMBYYMSAQAAAAGAAAMAAAAEAwI0R"
    "ACqu7qqqldV111V1VVVSqq6q6qlVXVVVXVdVVdXVVUqSquqnU2AAAxgDGxgAYWA2GYYMwABgE0mA"
    "MDAEIDMYCABiAIKACGQAwVMFAAxMGAAGEYBEABYAAAFgAKAABAAAAKqqpSuqquruq66qqVOrq7qq"
    "ququVOquqp3VVXS66rq6qqlVVQBgAMYbYBgAMAYYBgBgzNhhgABgAI0AAAAAGEQAAwABhBkAGEAG"
    "wAjAABsAAADBhAAbBgAAIAAAAAEq6uKrrqqq651Trq66q66qqqq6opVdddVVdVVVVSuqqqruqqqs"
    "AAMADANgBjA2MZsGNg0MAAABgjMGYgAACBkAAABhABsARFkQANgABs1gCADUAABgAoAAAQMEAAAb"
    "AAwAqpVVVXK5XcqrpdKrql3Kqqqqqq6qqlVXd1XVVVVKquqquqGYBhs2BhhgYjbAAAMbBhiMGYYB"
    "jYAYMAQQNkABY0AwAQIAAMxhkAQAADMASEEEAAAAEAAAGACEBAgAAAY3Krq7pO6rqqq6qqquKqp1"
    "JdXVU6qru7pXV1XVVdVQ6pXXK6p1ANgGMxgDYxsAzAGzDAMwwYZgDGMxjMAwABsAGIAEAYABggAG"
    "AwBQMzAAAAAAgIAAQUAgAMAAAAGxAAAADV1XXdVTqquqqlddVVVUcuq7qrpVdVV1XVVVUnXKq66q"
    "rq6qrqAAAAAAAE0BgAAbAoAAASBGDAaMAAAABsGAAwAAAAAAAMAIIAAAAwYIwAAwwCIABgMAUgGY"
    "EABgAhIIMAAAFAIwAAAAwEAgADMABAEAAAADQGAwQYGAAGAAFJBgMADGAACAAABiAASMZgGFAGYG"
    "AAYARsAAooDBmAACgABgBgBEAAAAAAAMGBAAwEAGAJsA2BAAAAAAAgQGCASMEMIADMABDDYbAAYA"
    "AGAwgQAMmAzYAAgAwAgIAGAYYAwACYwAMBAEAAMAAAAACYBIIAMZAAgBjBsIA2wEEAEAACYAAAYg"
    "CggAKNgBhAEAIDMMKiYAQAMG2BgJAgAiIFANgIDAYACBg2IAAIDAZgACYGAAGAAYGQAgAZgoAGGZ"
    "QDMAEGAQQAAgMYwBhgAAbACGAGAAACQAUAgAoAGIAMQQIAAEMYABgGAAADKMBgwAIAgwBAYAAEgA"
    "AAIYbAgGA0QGUAAAEEEBAAAEIAADGUBAAEAAAMwBAAIEgAAMAAKBQBAYMoxMmAIIAAMKACAYUGAA"
    "wAAESFQwAEAAYAAgwAQQAAQMAAABgIADAAVgDMGFNgAEADYAW2wECxgbAAAAAAMAGwAwDAAAAAAN"
    "gBAADFtsAIAEUAACAwgAwBtgGyQoAZjACgAAAAAAMAAwA2AAAgAEMAwxNgAEDAIDEGwAhgKAAAYB"
    "QDJAAwAABAEAgAAGwGAAG0DAABQAAAAgAAAAAMgyiEAGCGAAbADGAQAYUYAABhAAAIwAAAgAAAgA"
    "AgAAmQABQAAwABAAIAAAAQAGABAAwAAYGAAYAACFADEAGCAACAAAAAAAgoAAwoFAIYADDDAmBADA"
    "AEgDMAEAIECMAGwgAGQAABAQAoAAAAANDDATYEEAYKFAZFAEFUEAEYAAChEAABgwGAEoBDGCAAxg"
    "AADABtgGAAGgGAAAYYxRNgADAAAAYEAwoAAAQbADAQwAEAAyAIIAKDAbAwAAAAAAQAAAAgBgFIAw"
    "EQhABgACCYAAwAA2ADAAAAAAIKoAEwIAAAQAMTAAAAMMAAQA2CA2hgBhgBiABGAEBmGABUAoAAAA"
    "YAAAJbAmwAAAYAAACAQgCAAYYAFQgMgxhsCkGxUBgwGDYgMCAGAAAAAEAAAgBAoEAAADYgAGAAAA"
    "ABsDABAEAAGLAgEwASAAAAUMADKAAAAAAAAAgMg2MAAACiAYACGxmCgCAMAyAAYAEEBgAGIyAG2I"
    "AYQAAAAwBiABgABChgJAGAADYpgAwMDKhgwCAxhAAGAABgAbCDAAEIIIGAAAAMCAwmCQABhgBBsg"
    "IEbAAGwJgAAAwKUAAAAEAAGwAAAAYAAAMYxgAAAwEZBBEIQAAAAAABAAxiAhs2AbAAAGAYAAACAA"
    "DAAEAwAAAMATAAAWwYAAMAKDYAQAGAAAwEQAAAAAQAABAwgAAoAAAAEKAZQIAAAAoDAIAAAADAAI"
    "DEEgQGAQDJtgAAUgARGAMAAADADIAgmxYIAMgwAAAgMABgAJqMQAAAAIyAgCoABBgAGAFBgAECBA"
    "NgAAAqIogAAAAAAAAwAA2BgBkAUAAAAEYUABg2xgGAGAAAAwAwABAIAA2BsGGAAAwQAjYAAAAmAY"
    "GwQYmFAMAADMAADIQYAAAAAFAAGCAgZsBgwBBBDCYDAAUAAAAYaAIYBhAAAAAAUAAMAAYAQAxEUA"
    "A2YGCCDAGBgUAATMAgAAYNgAEYgBsNsFSgAAwBAGAAAAAAGCAABgAABgCgEMAAAgAABgAGAAAAAo"
    "CDMAAAwAAAYYADAMBAADAADA2AAYAYAADBkAAAAwUAABAwxsAAGAAGAwAEZjAYAABgABkIUsBhgA"
    "BADAgACCGMAAAANgAA=="
)
_HUF2_CHUNK_RECON = "b843bfab46009daadfc9a9cefd0bdcfd"


def _huf2_era_symbols() -> np.ndarray:
    rng = np.random.default_rng(40)
    symbols = np.round(rng.standard_normal(400) * 3).astype(np.int64)
    symbols[rng.choice(400, 24, replace=False)] = rng.integers(-(2**13), 2**13, 24)
    symbols[[7, 150, -1]] = (_INT32_EDGE, -_INT32_EDGE, 2**30)
    return symbols


def _huf3_era_symbols() -> np.ndarray:
    rng = np.random.default_rng(41)
    symbols = np.round(rng.standard_normal(400) * 3).astype(np.int64)
    symbols[rng.choice(400, 24, replace=False)] = rng.integers(-(2**13), 2**13, 24)
    return symbols


def _chunk_field() -> np.ndarray:
    """An H2-pool-sized chunk of smooth waves on a 1/64 grid, in float32."""
    rng = np.random.default_rng(43)
    g = np.meshgrid(np.arange(9), np.arange(8), np.arange(256), indexing="ij")
    field = np.round(16.0 * (np.sin(g[2] / 9.0 + g[0]) + np.cos(g[1] / 3.0)))
    return ((field + rng.integers(-1, 2, g[0].shape)) / 64.0).astype(np.float32)


def _walk7(seed, shape):
    """A seeded integer random walk over sevenths, in float32."""
    steps = np.random.default_rng(seed).integers(-3, 4, size=shape)
    for axis in range(len(shape)):
        steps = np.cumsum(steps, axis=axis)
    return (steps / 7.0).astype(np.float32)


def _digest(data) -> str:
    return hashlib.blake2b(bytes(data), digest_size=16).hexdigest()


def test_huf2_streams_with_escapes_still_decode():
    sections = _sections(_HUF2_ESCAPED_STREAM)
    assert sections["magic"] == b"HUF2" and sections["escape_length"] > 0
    decoded = huffman_decode(_HUF2_ESCAPED_STREAM)
    assert decoded.dtype == np.int64 and np.array_equal(decoded, _huf2_era_symbols())
    assert np.array_equal(huffman_decode_reference(_HUF2_ESCAPED_STREAM), decoded)
    # today's stream of the same symbols: HUF4, 32 raw bits (the int32
    # edges are escaped), the same decode
    fresh = _check_against_oracle(_huf2_era_symbols(), max_alphabet=16)
    assert _sections(fresh)["magic"] == b"HUF4" and _sections(fresh)["width"] == 32


def test_an_sz_blob_with_huf2_escapes_decodes_to_the_bit():
    from repro.io.serialization import blob_from_bytes

    blob = blob_from_bytes(_HUF2_ESCAPED_SZ_BLOB)
    start = _sz_entropy_offset(blob.payload)
    sections = _sections(blob.payload[start:])
    assert sections["magic"] == b"HUF2" and sections["escape_length"] > 0
    restored = SZCompressor().safe_decompress(blob)
    assert _digest(restored.tobytes()) == _HUF2_ESCAPED_SZ_RECON
    # the same field written today: narrower escapes, the same reconstruction
    codec = SZCompressor(max_alphabet=16)
    fresh = codec.compress(_walk7(40, (6, 20)), 1e-3)
    fresh_sections = _sections(fresh.payload[_sz_entropy_offset(fresh.payload) :])
    assert fresh_sections["magic"] == b"HUF4" and fresh_sections["width"] < 32
    assert len(fresh.payload) < len(blob.payload)
    assert _digest(codec.decompress(fresh).tobytes()) == _HUF2_ESCAPED_SZ_RECON


@pytest.mark.parametrize(
    "widest, width",
    [(0, 1), (-1, 1), (1, 2), (-(2**13), 14), (2**13 - 1, 14), (2**13, 15), (-(2**15), 16),
     (-(2**30), 31), (2**30, 32), (-_INT32_EDGE, 32), (_INT32_EDGE, 32)],
)
def test_the_raw_width_is_the_widest_escape_in_twos_complement(widest, width):
    # 2**30, SZ's outlier code, needs 32 bits: at 31 it would read back
    # as -2**30.
    symbols = np.array([100] * 50 + [101] * 40 + [widest, 0, widest, -1])
    blob = _check_against_oracle(symbols, max_alphabet=3)
    sections = _sections(blob)
    assert sections["magic"] == b"HUF4" and sections["width"] == width
    code_bits = 50 * 1 + 40 * 2 + 4 * 2  # the escape is the rarest code: 2 bits
    assert sections["total_bits"] == code_bits + 4 * width


def test_a_stream_without_escapes_is_huf2_with_no_width_byte(rng):
    # as written before HUF4, and as HUF4 writes it: no width byte either way
    from repro.io.serialization import blob_from_bytes

    payload = blob_from_bytes(_HUF2_CHUNK_BLOB).payload
    sections = _sections(payload[_sz_entropy_offset(payload) :])
    assert sections["magic"] == b"HUF2" and sections["escape_length"] == 0
    assert sections["table_at"] == 20
    fresh = _sections(huffman_encode(np.round(rng.standard_normal(3000) * 4).astype(np.int64)))
    assert fresh["magic"] == b"HUF4" and fresh["escape_length"] == 0 and fresh["table_at"] == 20


def _escaped_stream(kind: str, seed: int) -> "tuple[np.ndarray, bytes]":
    rng = np.random.default_rng(seed)
    symbols = _stream(kind, int(rng.integers(1, 700)), rng)
    return symbols, huffman_encode(symbols, max_alphabet=int(rng.choice([1, 2, 3, 16])))


@given(
    kind=st.sampled_from(["skewed", "flat", "escape_heavy", "escape_widths", "int32_edge"]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=150, deadline=None)
def test_every_flip_and_cut_of_the_width_byte_is_refused_or_decodes_the_same(kind, seed):
    """A wider or narrower raw field moves every escape, yet the walk can
    still end each lane on its boundary after another parse (1 in ~600
    flips of a bare width did): the byte's parity bit refuses every one."""
    symbols, blob = _escaped_stream(kind, seed)
    if not _sections(blob)["escape_length"]:  # the alphabet held every value
        return
    for bit in range(8):
        corrupt = bytearray(blob)
        corrupt[20] ^= 1 << bit
        try:
            decoded = huffman_decode(bytes(corrupt))
        except CompressionError:
            continue
        assert np.array_equal(decoded, symbols)
    for cut in (20, 21):  # before and after the width byte
        with pytest.raises(CompressionError):
            huffman_decode(blob[:cut])


@pytest.mark.parametrize("width_byte", [0x00, 0x80, 0x21, 0xA1, 0x7F, 0xFF, 0x30], ids=hex)
def test_a_width_outside_1_to_32_is_refused(width_byte, rng):
    # 0x00: W = 0; 0x21 / 0x30: 33 and 48 with even parity; 0x7F / 0xFF: 127
    symbols = np.round(rng.standard_normal(2000) * 2).astype(np.int64)
    symbols[::50] = 2000
    blob = bytearray(huffman_encode(symbols, max_alphabet=8))
    assert blob[:4] == b"HUF4" and blob[20] == 0x0C  # 12 bits, parity clear
    blob[20] = width_byte
    with pytest.raises(CompressionError, match="header"):
        huffman_decode(bytes(blob))


def test_a_huf3_stream_without_an_escape_code_is_refused(rng):
    blob = bytearray(_HUF3_STREAM)
    blob[18] = 0  # escape code length
    with pytest.raises(CompressionError, match="header"):
        huffman_decode(bytes(blob))
    # an escape-free HUF2 stream relabelled HUF3, with and without a width byte
    from repro.io.serialization import blob_from_bytes

    payload = blob_from_bytes(_HUF2_CHUNK_BLOB).payload
    plain = payload[_sz_entropy_offset(payload) :]
    assert plain[:4] == b"HUF2"
    for relabelled in (b"HUF3" + plain[4:], b"HUF3" + plain[4:20] + b"\x0c" + plain[20:]):
        with pytest.raises(CompressionError):
            huffman_decode(relabelled)
    # HUF4 has a width byte exactly when it has an escape code: without
    # one, the width byte is read as the code table
    symbols = np.round(rng.standard_normal(2000) * 2).astype(np.int64)
    symbols[::50] = 2000
    escaped = bytearray(huffman_encode(symbols, max_alphabet=8))
    escaped[18] = 0
    with pytest.raises(CompressionError):
        huffman_decode(bytes(escaped))


@pytest.mark.parametrize("width", [1, 4, 9, 15])
def test_an_escape_as_the_last_symbol_is_read_from_the_stream_alone(width, rng):
    # The decoder reads 32 bits where a raw field starts; past the last
    # byte those are zeros it supplies, never the bytes that follow.
    for n in range(40, 48):  # the raw field ends on each bit of a byte
        symbols = np.full(n, 3, dtype=np.int64)
        symbols[: n // 2] = 5
        symbols[-1] = -(2 ** (width - 1))
        blob = _check_against_oracle(symbols, max_alphabet=3)
        assert _sections(blob)["width"] == width
        assert len(blob) == _sections(blob)["payload_at"] + (_sections(blob)["total_bits"] + 7) // 8
        for tail in (b"", b"\xff" * 8, b"\x00\xff\x55"):
            assert np.array_equal(huffman_decode(blob + tail), symbols)
        with pytest.raises(CompressionError, match="truncated"):
            huffman_decode(blob[:-1])


def test_sz_outlier_codes_among_the_escapes_round_trip(rng):
    # Codes beyond a 16-value alphabet and one spike of 1e12, which SZ
    # marks with its 2**30 outlier code at the few points that predict
    # from it: rare, so escaped, and only 32 raw bits hold it.
    field = np.cumsum(rng.standard_normal((24, 60)), axis=1)
    field[7, 30] += 1e12
    codec = SZCompressor(max_alphabet=16)
    blob = codec.compress(field, 1e-2)
    start = _sz_entropy_offset(blob.payload)
    sections = _sections(blob.payload[start:])
    codes = huffman_decode(blob.payload[start:])
    assert 1 <= (codes == 2**30).sum() <= 4 and np.abs(codes[codes != 2**30]).max() < 2**14
    assert sections["magic"] == b"HUF4" and sections["width"] == 32
    assert np.abs(codec.decompress(blob) - field).max() <= 1e-2



# -- HUF4: a nibble a symbol in the code table, a byte a lane in the index --------


def _sz_stream(blob) -> bytes:
    return blob.payload[_sz_entropy_offset(blob.payload) :]


def test_a_huf3_stream_still_decodes():
    sections = _sections(_HUF3_STREAM)
    assert sections["magic"] == b"HUF3" and sections["width"] == 14
    decoded = huffman_decode(_HUF3_STREAM)
    assert decoded.dtype == np.int64 and _digest(decoded.tobytes()) == _HUF3_STREAM_DECODED
    assert np.array_equal(decoded, _huf3_era_symbols())
    assert np.array_equal(huffman_decode_reference(_HUF3_STREAM), decoded)
    # today's stream is the same stream re-laid: same code bits, fewer bytes
    fresh = _check_against_oracle(_huf3_era_symbols(), max_alphabet=16)
    assert _sections(fresh)["magic"] == b"HUF4" and len(fresh) < len(_HUF3_STREAM)
    assert legacy_layout_reference(fresh) == _HUF3_STREAM


@pytest.mark.parametrize(
    "vector, field, codec, recon, magic",
    [
        (_HUF3_SZ_BLOB, lambda: _walk7(41, (6, 20)), lambda: SZCompressor(max_alphabet=16), _HUF3_SZ_RECON, b"HUF3"),
        (_HUF2_CHUNK_BLOB, _chunk_field, SZCompressor, _HUF2_CHUNK_RECON, b"HUF2"),
    ],
    ids=["huf3-sz", "huf2-chunk"],
)
def test_sz_blobs_written_before_huf4_decode_to_the_bit(vector, field, codec, recon, magic):
    from repro.io.serialization import blob_from_bytes

    blob = blob_from_bytes(vector)
    assert _sections(_sz_stream(blob))["magic"] == magic
    assert _digest(SZCompressor().safe_decompress(blob).tobytes()) == recon
    # the same field written today: the same codes, a re-laid stream
    codec = codec()
    fresh = codec.compress(field(), blob.tolerance)
    assert _sections(_sz_stream(fresh))["magic"] == b"HUF4"
    assert legacy_layout_reference(_sz_stream(fresh)) == _sz_stream(blob)
    assert len(fresh.payload) < len(blob.payload)
    assert _digest(codec.decompress(fresh).tobytes()) == recon


@given(
    kind=st.sampled_from(_FUZZ_KINDS + ["fibonacci"]),
    n=st.integers(0, 3000),
    max_alphabet=st.sampled_from([1, 2, 3, 16, 4096]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=80, deadline=None)
def test_huf4_is_the_earlier_stream_relaid_and_never_larger(kind, n, max_alphabet, seed):
    """Only the code table and the index move: re-laid in layout (b), a
    HUF4 stream is the HUF2 / HUF3 stream of the same symbols, which
    decodes the same, and it is never the larger of the two."""
    symbols = _stream(kind, n, np.random.default_rng(seed))
    blob = huffman_encode(symbols, max_alphabet=max_alphabet)
    legacy = legacy_layout_reference(blob)
    assert legacy[:4] == (b"HUF3" if _sections(blob)["escape_length"] else b"HUF2")
    assert len(blob) <= len(legacy)
    assert np.array_equal(huffman_decode(legacy), symbols)
    assert np.array_equal(huffman_decode_reference(legacy), symbols)


@given(kind=st.sampled_from(_FUZZ_KINDS), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_every_flip_and_cut_of_a_huf4_table_or_index_is_refused_or_decodes_the_same(kind, seed):
    """Every bit of the layout byte, the code table and the index, one at
    a time, and every cut inside them: the five check bits see each flip
    that leaves the sections where they were, and one that moves them is
    left to the truncation and lane checks."""
    symbols, blob = _fuzz_stream(kind, seed)
    sections = _sections(blob)
    for at in [19, *range(sections["table_at"], sections["payload_at"])]:
        for bit in range(8):
            corrupt = bytearray(blob)
            corrupt[at] ^= 1 << bit
            try:
                decoded = huffman_decode(bytes(corrupt))
            except CompressionError:
                continue
            assert np.array_equal(decoded, symbols), (at, bit)
    for cut in range(sections["table_at"], sections["payload_at"] + 1):
        with pytest.raises(CompressionError):
            huffman_decode(blob[:cut])


def test_a_single_symbol_alphabet_is_one_nibble():
    blob = _check_against_oracle(np.full(100, -7))
    sections = _sections(blob)
    assert sections["layout"] & _TABLE_B == 0 and sections["stored"] == [-7]
    assert sections["counts"][0] == 1 and sections["index_at"] - sections["stored_at"] == 2
    assert struct.unpack_from("<ii", blob, sections["table_at"]) == (-7, 0)


def test_an_escape_only_alphabet_stores_no_symbol(rng):
    symbols = rng.integers(-1000, 1000, 300)
    blob = _check_against_oracle(symbols, max_alphabet=1)
    sections = _sections(blob)
    assert sections["escape_length"] == 1 and sections["stored"] == []
    # table (a): a zero span and one empty bitmap byte, against 32 count bytes
    assert sections["layout"] & _TABLE_B == 0
    assert blob[sections["table_at"] : sections["index_at"]] == bytes(9)


def test_a_sparse_alphabet_takes_table_b(rng):
    # SZ's 2**30 outlier code kept as a symbol: the bitmap would span 2**30
    values = np.array([-2, -1, 0, 1, 2, 2**30])
    symbols = values[rng.integers(0, values.size, 2000)]
    sections = _sections(_check_against_oracle(symbols))
    assert sections["layout"] & _TABLE_B and sections["symbol_bytes"] == 4
    assert sorted(sections["stored"]) == values.tolist()


@pytest.mark.parametrize("low", [-_INT32_EDGE, 2**31 - 40, -_INT32_EDGE + 1000])
def test_int32_extreme_symbols_round_trip_in_table_a(low, rng):
    symbols = low + rng.integers(0, 39, 1000)
    sections = _sections(_check_against_oracle(symbols))
    assert sections["layout"] & _TABLE_B == 0 and min(sections["stored"]) == symbols.min()
    # both edges at once span 2**32 - 2: table (b)
    both = _sections(_check_against_oracle(rng.choice([-_INT32_EDGE, _INT32_EDGE], 1000)))
    assert both["layout"] & _TABLE_B and both["symbol_bytes"] == 4


def test_a_16_bit_code_is_nibble_15(rng):
    counts = [1, 1]
    while len(counts) < 17:
        counts.append(counts[-1] + counts[-2])
    symbols = np.repeat(np.arange(17) * 3, counts)[rng.permutation(sum(counts))]
    blob = _check_against_oracle(symbols)
    sections = _sections(blob)
    assert sections["layout"] & _TABLE_B == 0 and sections["counts"][15] == 2
    nibbles = blob[sections["nibbles_at"] : sections["index_at"]]
    assert nibbles[0] >> 4 == 15 and nibbles[0] & 15 == 15  # symbols 0 and 3, the rarest


def test_an_index_whose_deltas_all_escape_takes_index_b():
    # Lanes of 16 symbols alternate between 1-bit codes (16 bits) and
    # escapes of 1 + 32 bits (528 bits), starting with the escapes: every
    # delta is +-512 or more, so the int8 layout would take 3 bytes a lane.
    symbols = np.zeros(512, dtype=np.int64)
    symbols[np.arange(512) // 16 % 2 == 0] = -(2**30) - 1 - np.arange(256)
    blob = _check_against_oracle(symbols, max_alphabet=2)
    sections = _sections(blob)
    assert sections["lane"] == 16 and set(sections["lane_bits"]) == {16, 528}
    assert sections["layout"] & _INDEX_B and sections["payload_at"] - sections["index_at"] == 64
    # with the first two lanes swapped, the first delta fits: still (b),
    # since 1 + 3 * 31 bytes is not less than 2 * 32
    symbols[:32] = np.roll(symbols[:32], 16)
    sections = _sections(_check_against_oracle(symbols, max_alphabet=2))
    assert sections["layout"] & _INDEX_B and sections["lane_bits"][0] == 16
    # half the lanes at 16 bits and the next half at 528: one delta escapes
    symbols = np.sort(symbols)[::-1]
    assert not _sections(_check_against_oracle(symbols, max_alphabet=2))["layout"] & _INDEX_B


def test_escape_markers_that_disagree_with_the_escape_list_are_refused(rng):
    symbols = _field_like_stream(rng, 20_000)
    blob = huffman_encode(symbols)
    sections = _sections(blob)
    assert not sections["layout"] & _INDEX_B
    deltas = np.frombuffer(blob, np.int8, sections["n_lanes"], sections["index_at"])
    markers, plain = np.flatnonzero(deltas == -128), np.flatnonzero(deltas != -128)
    assert markers.size >= 2 and plain.size >= 2
    # one marker fewer than the list holds, one more, each at both ends
    for at, value in [(markers[0], 0), (markers[-1], 5), (plain[0], -128), (plain[-1], -128)]:
        corrupt = bytearray(blob)
        corrupt[sections["index_at"] + at] = value & 0xFF
        with pytest.raises(CompressionError):
            huffman_decode(_reseal(corrupt))
