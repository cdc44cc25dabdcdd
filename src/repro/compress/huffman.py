"""Canonical Huffman coding over integer symbols.

This is the entropy stage shared by the SZ-, ZFP- and MGARD-like codecs.
Design points:

* **canonical codes** — only code lengths are stored; codes are re-derived
  on decode, keeping headers small;
* **length-limited to 16 bits** — decoding uses a single 65536-entry
  lookup table, one table hit per symbol;
* **escape symbol** — alphabets are capped (quantization codes follow a
  sharply peaked distribution); rare symbols are emitted as an escape code
  followed by a raw 32-bit value, so pathological inputs cannot blow up
  the table;
* **vectorized encode** — a ``bincount`` histogram (a sort when the value
  span dwarfs the stream), code lengths from a two-queue merge over the
  frequency-sorted alphabet, canonical codes by ``lexsort``/``cumsum``
  and word-accumulated packing (:func:`~repro.compress.bitstream.pack_codes`).
  The scalar encoder it replaced lives on in
  ``tests/oracles/entropy_reference.py``; property tests assert the blobs
  are byte-identical;
* **vectorized decode** — instead of a per-symbol Python loop, the
  decoder gathers the 16-bit prefix window of *every* bit offset at once,
  turns the prefix table into a next-position function, composes it into
  a 16-symbol jump table by pointer doubling, walks block starts
  sequentially (``n/16`` cheap iterations) and expands within blocks
  columnwise.  Escapes resolve in a masked second pass.  The original
  scalar decoder is retained as :func:`_decode_reference`; property tests
  assert bit-exact agreement.

Decode tables (65536-entry symbol/advance arrays) are memoized on the
lengths header via :mod:`repro.perf.cache`, so chunked streams sharing a
code table build it once.
"""

from __future__ import annotations

import struct

import numpy as np

from ..exceptions import CompressionError
from ..perf.cache import get_memo
from .bitstream import pack_codes

__all__ = ["huffman_encode", "huffman_decode"]

_MAX_CODE_LENGTH = 16
_MAGIC = b"HUF1"
_ESCAPE = -(2**31)  # sentinel symbol id for escaped values

#: slack past the end of the bit positions array: strictly larger than the
#: largest single-symbol advance (16-bit code + 32 raw bits), so composed
#: jumps from any in-stream position stay in bounds without clamping.
_PAD = 64

#: a dense ``bincount`` histogram is used while the observed value span is
#: at most this many times the symbol count, which keeps every table
#: O(n); wider spans (SZ's 2**30 outlier code in a short chunk) sort.
_DENSE_SPAN_PER_SYMBOL = 4

#: one header table entry, ``struct.pack("<iB", symbol, length)``
_ENTRY = np.dtype([("symbol", "<i4"), ("length", "u1")])


def check_max_alphabet(max_alphabet: int) -> int:
    """Validate an alphabet cap: the header counts its entries in 16 bits
    and more than 65536 codes cannot all fit the 16-bit length limit."""
    if not 1 <= max_alphabet <= 65535:
        raise CompressionError(
            f"max_alphabet must lie in [1, 65535], got {max_alphabet!r}"
        )
    return int(max_alphabet)


def _code_lengths(frequencies: np.ndarray) -> np.ndarray:
    """Length-limited Huffman code lengths for ascending ``frequencies``.

    The alphabet must arrive sorted by ``(frequency, symbol)``.  The tree
    is built with the two-queue merge: leaves are consumed in that order,
    merged nodes queue FIFO (their weights are non-decreasing), and a leaf
    wins a weight tie against a merged node - the tree a heap keyed by
    ``(frequency, symbol rank, then creation counter)`` builds.
    """
    m = frequencies.size
    if m == 1:
        return np.ones(1, dtype=np.int64)
    weight = frequencies.tolist() + [0] * (m - 1)
    parent = [0] * (2 * m - 1)
    leaf, merged = 0, m
    for node in range(m, 2 * m - 1):
        total = 0
        for __ in range(2):
            if leaf < m and (merged == node or weight[leaf] <= weight[merged]):
                child, leaf = leaf, leaf + 1
            else:
                child, merged = merged, merged + 1
            parent[child] = node
            total += weight[child]
        weight[node] = total
    depth = [0] * (2 * m - 1)
    for node in range(2 * m - 3, -1, -1):
        depth[node] = depth[parent[node]] + 1
    lengths = np.minimum(np.array(depth[:m], dtype=np.int64), _MAX_CODE_LENGTH)

    # Clamping overlong codes overfills the Kraft sum; restore it by
    # deepening codes in ascending-frequency order, one bit per visit,
    # sweep after sweep, stopping at the first code that fits (zlib-style).
    budget = 1 << _MAX_CODE_LENGTH
    kraft = int(np.left_shift(1, _MAX_CODE_LENGTH - lengths).sum())
    while kraft > budget:
        # Kraft mass freed by one more bit: half the code's own, none at 16.
        gain = np.left_shift(1, _MAX_CODE_LENGTH - lengths) >> 1
        after = kraft - np.cumsum(gain)
        stop = int(np.argmax(after <= budget)) if after[-1] <= budget else m - 1
        lengths[: stop + 1] += gain[: stop + 1] > 0
        kraft = int(after[stop])
    return lengths


def huffman_encode(symbols: np.ndarray, max_alphabet: int = 4096) -> bytes:
    """Encode an integer array into a self-contained blob.

    Symbols outside the ``max_alphabet`` most frequent values are escaped
    (raw 32-bit two's complement after an escape code).
    """
    max_alphabet = check_max_alphabet(max_alphabet)
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    n = symbols.size
    if n == 0:
        return _MAGIC + struct.pack("<IH", 0, 0)
    low, high = int(symbols.min()), int(symbols.max())
    if low <= -(2**31) or high >= 2**31:
        raise CompressionError("huffman symbols must fit in int32")

    # Histogram.  ``slot`` sends every symbol to its row of the per-value
    # code table: its offset from the minimum while the span is dense
    # enough to tabulate, its rank among the distinct values otherwise.
    n_slots = high - low + 1
    if n_slots <= _DENSE_SPAN_PER_SYMBOL * n:
        slot = symbols - low
        histogram = np.bincount(slot, minlength=n_slots)
        unique_slot = np.flatnonzero(histogram)
        unique, counts = unique_slot + low, histogram[unique_slot]
    else:
        unique, slot, counts = np.unique(symbols, return_inverse=True, return_counts=True)
        n_slots = unique.size
        unique_slot = np.arange(n_slots)

    # Alphabet: the most frequent values, plus the escape when any value
    # was dropped (its symbol id sorts below every int32 value).
    keep = np.argsort(counts)[::-1][: max_alphabet - 1]
    alphabet, frequencies, kept_slot = unique[keep], counts[keep], unique_slot[keep]
    n_escaped = n - int(frequencies.sum())
    if n_escaped > 0:
        alphabet = np.concatenate(([_ESCAPE], alphabet))
        frequencies = np.concatenate(([n_escaped], frequencies))

    by_frequency = np.lexsort((alphabet, frequencies))
    lengths = np.empty(alphabet.size, dtype=np.int64)
    lengths[by_frequency] = _code_lengths(frequencies[by_frequency])

    # Canonical codes in (length, symbol) order: left-aligned to 16 bits,
    # a code is the Kraft mass of every code before it.
    canonical = np.lexsort((alphabet, lengths))
    table = np.empty(alphabet.size, dtype=_ENTRY)
    table["symbol"], table["length"] = alphabet[canonical], lengths[canonical]
    mass = np.left_shift(1, _MAX_CODE_LENGTH - lengths[canonical])
    codes = np.empty(alphabet.size, dtype=np.uint64)
    codes[canonical] = (np.cumsum(mass) - mass) >> (_MAX_CODE_LENGTH - lengths[canonical])

    # Per-slot (code, length).  Entry 0 is the escape whenever a value was
    # dropped, so it is the fill; with nothing dropped every slot that
    # occurs is overwritten.
    first_kept = alphabet.size - keep.size
    slot_code = np.full(n_slots, codes[0])
    slot_length = np.full(n_slots, lengths[0])
    slot_code[kept_slot], slot_length[kept_slot] = codes[first_kept:], lengths[first_kept:]
    values, value_lengths = slot_code[slot], slot_length[slot]
    if n_escaped > 0:
        # The raw 32-bit value follows each escape code.
        slot_dropped = np.ones(n_slots, dtype=bool)
        slot_dropped[kept_slot] = False
        escaped = np.flatnonzero(slot_dropped[slot])
        raw = (symbols[escaped] & 0xFFFFFFFF).astype(np.uint64)
        values = np.insert(values, escaped + 1, raw)
        value_lengths = np.insert(value_lengths, escaped + 1, 32)

    payload, total_bits = pack_codes(values, value_lengths)
    return b"".join(
        (
            _MAGIC,
            struct.pack("<IH", n, alphabet.size),
            table.tobytes(),
            struct.pack("<Q", total_bits),
            payload,
        )
    )


def _canonical_codes(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
    """Assign canonical (code, length) pairs sorted by (length, symbol)."""
    code = 0
    previous_length = 0
    table: dict[int, tuple[int, int]] = {}
    for symbol, length in sorted(lengths.items(), key=lambda item: (item[1], item[0])):
        code <<= length - previous_length
        table[symbol] = (code, length)
        code += 1
        previous_length = length
    return table


def _build_decode_tables(
    lengths: dict[int, int]
) -> tuple[np.ndarray, np.ndarray, int | None]:
    """65536-entry prefix tables: symbol, fused position advance, escape len.

    ``advance`` folds the escape's trailing 32 raw bits into the code
    length, so one gather per bit position yields the full next-position
    function regardless of escapes.
    """
    codes = _canonical_codes(lengths)
    table_symbol = np.zeros(2**_MAX_CODE_LENGTH, dtype=np.int32)
    advance = np.zeros(2**_MAX_CODE_LENGTH, dtype=np.int32)
    escape_length: int | None = None
    for symbol, (code, length) in codes.items():
        start = code << (_MAX_CODE_LENGTH - length)
        end = (code + 1) << (_MAX_CODE_LENGTH - length)
        table_symbol[start:end] = symbol
        if symbol == _ESCAPE:
            escape_length = length
            advance[start:end] = length + 32
        else:
            advance[start:end] = length
    return table_symbol, advance, escape_length


def _decode_tables_for_header(header: bytes, n_alphabet: int):
    """Cached decode tables keyed by the raw lengths header bytes."""

    def build():
        lengths: dict[int, int] = {}
        offset = 0
        for __ in range(n_alphabet):
            symbol, length = struct.unpack_from("<iB", header, offset)
            lengths[symbol] = length
            offset += 5
        return _build_decode_tables(lengths)

    return get_memo("huffman_tables", maxsize=64).get(bytes(header), build)


def huffman_decode(blob: bytes) -> np.ndarray:
    """Decode a blob produced by :func:`huffman_encode` (vectorized)."""
    if blob[:4] != _MAGIC:
        raise CompressionError("bad huffman magic")
    n, n_alphabet = struct.unpack_from("<IH", blob, 4)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    offset = 10 + 5 * n_alphabet
    table_symbol, advance, escape_length = _decode_tables_for_header(
        blob[10:offset], n_alphabet
    )
    (total_bits,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    if total_bits >= 2**31 - _PAD:
        # int32 position arithmetic would overflow; take the scalar path.
        return _decode_reference(blob)

    payload = np.frombuffer(blob, dtype=np.uint8, offset=offset)
    if payload.size * 8 < total_bits:
        raise CompressionError("huffman payload truncated")

    # 32-bit big-endian window at every byte offset; the 16-bit prefix at
    # bit position p is then (V32[p >> 3] >> (16 - (p & 7))) & 0xFFFF.
    padded = np.concatenate(
        [payload, np.zeros(_PAD // 8 + 8, dtype=np.uint8)]
    ).astype(np.uint32)
    v32 = (
        (padded[:-3] << np.uint32(24))
        | (padded[1:-2] << np.uint32(16))
        | (padded[2:-1] << np.uint32(8))
        | padded[3:]
    )

    length = int(total_bits) + _PAD
    pos = np.arange(length, dtype=np.int32)
    # All gathers below use mode="clip": indices are in bounds by
    # construction (the absorbing state keeps composed jumps under
    # length), and skipping numpy's per-element bounds check is ~30%
    # faster; a corrupt stream clamps into the absorbing region and is
    # caught by the final alignment check.
    window = (
        np.take(v32, pos >> 3, mode="clip")
        >> (np.int32(16) - (pos & 7)).astype(np.uint32)
    ) & np.uint32(0xFFFF)

    # Next-position function over every bit offset; positions at or past
    # the stream end collapse into an absorbing overrun state so corrupt
    # walks terminate and fail the final alignment check.
    nxt = pos + np.take(advance, window, mode="clip")
    nxt[total_bits:] = total_bits + 1

    # Pointer doubling: nxt -> nxt^2 -> nxt^4 -> nxt^8 -> nxt^16, ping-
    # ponging between two buffers so each squaring is a single gather.
    jump = np.take(nxt, nxt, mode="clip")
    scratch = np.empty_like(jump)
    for __ in range(3):
        np.take(jump, jump, out=scratch, mode="clip")
        jump, scratch = scratch, jump

    # Sequential part, shrunk 16x: walk one block start per 16 symbols.
    block = 16
    n_blocks = (n + block - 1) // block
    item = jump.item
    start_list = [0] * n_blocks
    p = 0
    for k in range(n_blocks):
        start_list[k] = p
        p = item(p)

    # Within-block expansion, one row per symbol offset (contiguous
    # writes); row j holds the position of symbol 16*k + j for every k.
    rows = np.empty((block, n_blocks), dtype=np.int32)
    rows[0] = start_list
    for j in range(1, block):
        np.take(nxt, rows[j - 1], out=rows[j], mode="clip")
    positions = rows.T.reshape(-1)[:n]

    symbols = np.take(table_symbol, np.take(window, positions, mode="clip"), mode="clip")
    out = symbols.astype(np.int64)

    if escape_length is not None:
        escaped = symbols == np.int32(_ESCAPE)
        if escaped.any():
            raw_start = positions[escaped].astype(np.int64) + escape_length
            raw = (np.take(window, raw_start, mode="clip").astype(np.int64) << 16) | np.take(
                window, raw_start + 16, mode="clip"
            )
            out[escaped] = np.where(raw >= 2**31, raw - 2**32, raw)

    consumed = int(nxt[int(positions[-1])])
    if consumed != total_bits:
        raise CompressionError(
            f"huffman stream misaligned: consumed {consumed} of {total_bits} bits"
        )
    return out


def _decode_reference(blob: bytes) -> np.ndarray:
    """The original scalar decoder, one table hit per symbol.

    Kept as the ground truth for the vectorized path: property tests
    assert :func:`huffman_decode` is bit-exact against it, and it serves
    as the fallback for streams too large for int32 position arithmetic.
    """
    if blob[:4] != _MAGIC:
        raise CompressionError("bad huffman magic")
    n, n_alphabet = struct.unpack_from("<IH", blob, 4)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    offset = 10
    lengths: dict[int, int] = {}
    for __ in range(n_alphabet):
        symbol, length = struct.unpack_from("<iB", blob, offset)
        lengths[symbol] = length
        offset += 5
    (total_bits,) = struct.unpack_from("<Q", blob, offset)
    offset += 8
    codes = _canonical_codes(lengths)

    # 16-bit prefix lookup table: prefix -> (symbol, length).
    table_symbol = np.zeros(2**_MAX_CODE_LENGTH, dtype=np.int64)
    table_length = np.zeros(2**_MAX_CODE_LENGTH, dtype=np.int64)
    for symbol, (code, length) in codes.items():
        start = code << (_MAX_CODE_LENGTH - length)
        end = (code + 1) << (_MAX_CODE_LENGTH - length)
        table_symbol[start:end] = symbol
        table_length[start:end] = length

    bits = np.unpackbits(np.frombuffer(blob[offset:], dtype=np.uint8))
    if bits.size < total_bits:
        raise CompressionError("huffman payload truncated")
    # Sliding 16-bit window values for every bit offset.
    padded = np.concatenate([bits, np.zeros(_MAX_CODE_LENGTH, dtype=np.uint8)])
    window = np.zeros(total_bits + 1, dtype=np.uint32)
    for j in range(_MAX_CODE_LENGTH):
        window[: total_bits + 1] |= padded[j : j + total_bits + 1].astype(np.uint32) << (
            _MAX_CODE_LENGTH - 1 - j
        )

    out = np.empty(n, dtype=np.int64)
    position = 0
    symbols_view = table_symbol
    lengths_view = table_length
    for i in range(n):
        prefix = window[position]
        symbol = symbols_view[prefix]
        position += lengths_view[prefix]
        if symbol == _ESCAPE:
            raw = (int(window[position]) << 16) | int(window[position + 16])
            position += 32
            if raw >= 2**31:
                raw -= 2**32
            symbol = raw
        out[i] = symbol
    if position != total_bits:
        raise CompressionError(
            f"huffman stream misaligned: consumed {position} of {total_bits} bits"
        )
    return out
