"""Canonical Huffman coding over integer symbols, with a lane index.

The entropy stage shared by the SZ-, ZFP- and MGARD-like codecs:

* **canonical, length-limited codes** of at most 16 bits, which the
  decoder rebuilds from each stored symbol's code length;
* **escapes** — the alphabet is capped; any other value is the escape
  code followed by its raw ``W`` bits, one code of up to 48 bits; ``W``
  is the two's-complement width of the widest escaped value (at most 32);
* **lane index** — the bit length of every run of ``lane`` symbols, so
  the decoder knows where each run starts (``lane``: :func:`lane_size`);
* **encode** — a ``bincount`` histogram (a sort when the value span
  dwarfs the stream), code lengths from a two-queue merge, canonical codes
  by ``lexsort``/``cumsum``, one gather of each symbol's left-justified
  code and word-accumulated packing (:mod:`~repro.compress.bitstream`);
* **lockstep decode** — ``lane`` steps over vectors with one entry per
  lane, one masked pass for the escapes and one transposing copy.  Every
  lane must end where the index says, so a flipped code bit is an error.

Stream layout (little endian), each section in the smaller layout::

    <4sIQHBB  "HUF4", n symbols, total code bits, lane, escape code length
              (0: none), layout: bit 0 table (b), bit 1 index (b), bit 2
              int32 symbols in (b), bits 3-7 the XOR of the table and index
              bytes and bits 0-2, folded to five bits
    B         raw width W, bit 7 even parity (only with an escape)
    table (a) <ii lowest stored symbol and span, a presence bitmap over the
              span (LSB first), a nibble ``length - 1`` per symbol by symbol
    table (b) 16H codes per length 1..16 (the escape included), the symbols
              (int16 unless bit 2) in (length, symbol) order, escape left out
    index (a) int8 per lane, its bit length minus the previous lane's;
              -128 escapes to a <H, all of them after the deltas
    index (b) <H bit length per lane
    packed code bits, MSB first

``HUF2`` and ``HUF3`` streams still decode: their last header byte is the
bytes per stored symbol (2 or 4) and both sections are (b); ``HUF3`` has
the width byte, and a ``HUF2`` escape reads with ``W = 32``.  The scalar
coder in ``tests/oracles/entropy_reference.py`` writes and reads the same
formats one field at a time; property tests assert identical bytes.
"""

from __future__ import annotations

import struct

import numpy as np

from ..exceptions import CompressionError
from .base import codec_scratch
from .bitstream import pack_justified, peek16, window_words

__all__ = ["huffman_encode", "huffman_decode"]

_MAX_CODE_LENGTH = 16
_MAGIC = b"HUF4"
_ESCAPE = -(2**31)  # sentinel symbol id for escaped values
_HEADER = struct.Struct("<4sIQHBB")
_TABLE_B, _INDEX_B, _WIDE = 1, 2, 4  # layout bits of the header's last byte
_COUNTS = np.dtype("<u2")  # per-length code counts and lane bit lengths
#: 1024 symbols of at most 16 + 32 bits each fit a uint16 lane bit length
_MAX_LANE = 1024

#: a dense ``bincount`` histogram is used while the observed value span is
#: at most this many times the symbol count, which keeps every table
#: O(n); wider spans (SZ's 2**30 outlier code in a short chunk) sort.
_DENSE_SPAN_PER_SYMBOL = 4


def check_max_alphabet(max_alphabet: int) -> int:
    """Validate an alphabet cap: more than 65536 codes cannot all fit the
    16-bit length limit, and the escape takes one of them."""
    if not 1 <= max_alphabet <= 65535:
        raise CompressionError(f"max_alphabet must lie in [1, 65535], got {max_alphabet!r}")
    return int(max_alphabet)


def lane_size(n: int, total_bits: int) -> int:
    """The smallest power of two whose index (16 bits a lane) is at most
    1/56 of the code bits, ``lane >= 896 * n / total_bits``, in [16, the
    power of two nearest ``sqrt(n) / 2`` on a log scale, at most 1024]."""
    cap = 1 << min(max((n.bit_length() - 2) // 2, 4), 10)
    need = -(-896 * n // total_bits)
    return min(max(1 << (need - 1).bit_length(), 16), cap)


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
    # The heads of both queues live in locals; an infinite weight stands
    # for an exhausted leaf queue and for an empty merged queue (slots of
    # ``merged`` not yet written), so taking a child is one comparison.
    # Nodes are numbered leaves 0..m-1, merged m..2m-2; both queues are
    # consumed in order, so the leaves taken so far, noted after every
    # merge, are all the tree there is to remember.
    leaves = frequencies.tolist()
    leaves.append(float("inf"))
    merged = [float("inf")] * m
    taken = [0] * m
    leaf = head = 0
    leaf_weight, merged_weight = leaves[0], merged[0]
    for made in range(m - 1):
        if leaf_weight <= merged_weight:
            total = leaf_weight
            leaf += 1
            leaf_weight = leaves[leaf]
        else:
            total = merged_weight
            head += 1
            merged_weight = merged[head]
        if leaf_weight <= merged_weight:
            total += leaf_weight
            leaf += 1
            leaf_weight = leaves[leaf]
        else:
            total += merged_weight
            head += 1
            merged_weight = merged[head]
        merged[made] = total
        taken[made + 1] = leaf
        if head == made:  # the queue was empty: the new node is its head
            merged_weight = total

    # Merged node m+i adopted ``from_leaves[i]`` leaves and, the queue
    # being FIFO, the next ``2 - from_leaves[i]`` merged nodes; the root
    # points at itself.
    root = 2 * m - 2
    from_leaves = np.diff(np.array(taken))
    nodes = np.arange(m, root + 1)
    jump = np.concatenate(
        (np.repeat(nodes, from_leaves), np.repeat(nodes, 2 - from_leaves), [root])
    )
    # Depths by pointer jumping: ``depth[v]`` is the distance from v to
    # ``jump[v]``, doubled each round.  Parents never decrease along
    # either queue, so depth never increases and leaf 0 is a deepest
    # node: once its pointer reaches the root, every pointer has.
    depth = np.ones(root + 1, dtype=np.int64)
    depth[root] = 0
    while jump[0] != root:
        depth += depth[jump]
        jump = jump[jump]
    lengths = np.minimum(depth[:m], _MAX_CODE_LENGTH)

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
    (the escape code, then raw two's complement as wide as the widest).
    """
    max_alphabet = check_max_alphabet(max_alphabet)
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    n = symbols.size
    if n == 0:
        return _HEADER.pack(_MAGIC, 0, 0, 0, 0, 0)
    low, high = int(symbols.min()), int(symbols.max())
    if low <= -(2**31) or high >= 2**31:
        raise CompressionError("huffman symbols must fit in int32")

    # Histogram.  ``slot`` sends every symbol to its row of the per-value
    # code table: its offset from the minimum while the span is dense
    # enough to tabulate, its rank among the distinct values otherwise.
    # It goes to scratch slot 2, where SZ's codes arrive: in place for them.
    scratch = codec_scratch()
    n_slots = high - low + 1
    dense = n_slots <= _DENSE_SPAN_PER_SYMBOL * n
    if dense:
        slot = np.subtract(symbols, low, out=scratch.take(2, (n,), np.int64))
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
    width = 0  # raw bits of an escaped value
    if n_escaped > 0:
        alphabet = np.concatenate(([_ESCAPE], alphabet))
        frequencies = np.concatenate(([n_escaped], frequencies))
        width = max(_signed_width(int(v)) for v in np.delete(unique, keep)[[0, -1]])

    by_frequency = np.lexsort((alphabet, frequencies))
    lengths = np.empty(alphabet.size, dtype=np.int64)
    lengths[by_frequency] = _code_lengths(frequencies[by_frequency])

    # Canonical codes in (length, symbol) order: left-aligned to 16 bits,
    # a code is the Kraft mass of every code before it.
    canonical = np.lexsort((alphabet, lengths))
    mass = np.left_shift(1, _MAX_CODE_LENGTH - lengths[canonical])
    codes = np.empty(alphabet.size, dtype=np.uint64)
    codes[canonical] = (np.cumsum(mass) - mass) >> (_MAX_CODE_LENGTH - lengths[canonical])
    # The escape is not stored: the decoder knows where it sorts.
    stored = alphabet[canonical]
    stored = stored[stored != _ESCAPE]

    # Per-slot code, left-justified in 64 bits, and its length.  A slot is
    # one value, so a dropped value's slot holds the escape code and the
    # value's raw ``width`` bits: one gather per symbol yields its whole code.
    first_kept = alphabet.size - keep.size
    slot_length = np.full(n_slots, lengths[0] + width, dtype=np.uint8)
    slot_length[kept_slot] = lengths[first_kept:]
    if n_escaped > 0:
        raw = (np.arange(low, high + 1) if dense else unique) & ((1 << width) - 1)
        slot_code = (codes[0] << np.uint64(width)) | raw.astype(np.uint64)
    else:
        slot_code = np.empty(n_slots, dtype=np.uint64)
    slot_code[kept_slot] = codes[first_kept:]
    slot_code <<= np.uint64(64) - slot_length

    # The lane follows from the code bits, which the alphabet already
    # knows; the index comes from the packer's own running offsets.
    total_bits = int(np.dot(frequencies, lengths)) + width * n_escaped
    lane = lane_size(n, total_bits)
    justified = np.take(slot_code, slot, out=scratch.take(3, (n,), np.uint64), mode="clip")
    code_lengths = np.take(slot_length, slot, out=scratch.take(4, (n,), np.uint8), mode="clip")
    payload, lane_ends = pack_justified(justified, code_lengths, lane)
    # Each section in the smaller of its two layouts (module docstring); the
    # escape sorts first in ``alphabet``, so the rest by symbol is table (a).
    ascending = np.argsort(alphabet)[n_escaped > 0 :]
    first, last = (int(stored.min()), int(stored.max())) if stored.size else (0, 0)
    span, narrow = last - first, -(2**15) <= first and last < 2**15
    if 9 + span // 8 + (stored.size + 1) // 2 < 2 * (_MAX_CODE_LENGTH + stored.size * (2 - narrow)):
        present = np.bincount(alphabet[ascending] - first, minlength=1) > 0
        nibbles = np.append(lengths[ascending] - 1, [0] * (stored.size & 1)).astype(np.uint8)
        table = np.packbits(present, bitorder="little"), nibbles[::2] << 4 | nibbles[1::2]
        layout, sections = 0, [np.array([first, span], "<i4"), *table]
    else:
        counts = np.bincount(lengths, minlength=_MAX_CODE_LENGTH + 1)[1:].astype(_COUNTS)
        stored = stored.astype("<i2" if narrow else "<i4")
        layout, sections = _TABLE_B | _WIDE * (not narrow), [counts, stored]
    lane_bits = np.diff(lane_ends, prepend=0)
    delta = np.diff(lane_bits, prepend=0)
    far = np.abs(delta) > 127
    if 2 * np.count_nonzero(far) < lane_bits.size:
        sections += [np.where(far, -128, delta).astype(np.int8), lane_bits[far].astype(_COUNTS)]
    else:
        layout, sections = layout | _INDEX_B, sections + [lane_bits.astype(_COUNTS)]
    sections = b"".join(sections)
    layout |= _check(sections, layout) << 3
    header = _HEADER.pack(_MAGIC, n, total_bits, lane, lengths[0] if n_escaped else 0, layout)
    return b"".join((header, bytes([_width_byte(width)] if n_escaped else []), sections, payload))


def _signed_width(value: int) -> int:
    """Bits of ``value`` in two's complement: 1 for 0 and -1, 32 for 2**30."""
    return (value if value >= 0 else ~value).bit_length() + 1


def _width_byte(width: int) -> int:
    """Width and an even-parity bit 7: a lane can end on its boundary after
    a parse at another width, so one flipped bit must be caught here."""
    return width | (width.bit_count() & 1) << 7


def _check(sections: bytes, layout: int) -> int:
    """Five bits of which one flips with any one bit of ``sections`` or ``layout``."""
    folded = int(np.bitwise_xor.reduce(np.frombuffer(sections, np.uint8), initial=layout))
    return (folded ^ folded >> 5) & 31


def _sections(blob: bytes, at: int, layout: int, escape_length: int, n_lanes: int) -> tuple:
    """Codes per length (the escape included), the stored symbols in
    canonical order, every lane's bit length, and where the code bits start."""

    def take(dtype, count: int) -> np.ndarray:
        nonlocal at
        at, start = at + count * np.dtype(dtype).itemsize, at
        if count < 0 or len(blob) < at:
            raise CompressionError("huffman code table or lane index truncated")
        return np.frombuffer(blob, dtype, count, start)

    if layout & _TABLE_B:
        counts = take(_COUNTS, _MAX_CODE_LENGTH).astype(np.int64)
        stored = take("<i4" if layout & _WIDE else "<i2", int(counts.sum()) - (escape_length > 0))
    else:
        low, span = take("<i4", 2).tolist()
        present = np.unpackbits(take(np.uint8, span // 8 + 1), bitorder="little").view(bool)
        symbols = present[: span + 1].nonzero()[0] + low
        nibbles = take(np.uint8, (symbols.size + 1) // 2)
        lengths = np.column_stack((nibbles >> 4, nibbles & 15)).ravel()[: symbols.size] + 1
        counts = np.bincount(np.append(lengths, escape_length), minlength=_MAX_CODE_LENGTH + 1)[1:]
        stored = symbols.take(lengths.argsort(kind="stable"))  # symbols ascend: (length, symbol)
    if layout & _INDEX_B:
        return counts, stored, take(_COUNTS, n_lanes).astype(np.int64), at
    lane_bits = take(np.int8, n_lanes).astype(np.int64)
    marks = np.flatnonzero(lane_bits == -128)
    lane_bits[marks] = 0  # a marked lane restarts at its escaped length
    np.cumsum(lane_bits, out=lane_bits)
    restart = np.append(0, take(_COUNTS, marks.size) - lane_bits[marks])
    lane_bits += np.repeat(restart, np.diff(marks, prepend=0, append=n_lanes))
    return counts, stored, lane_bits, at


def _decode_tables(
    counts: np.ndarray, stored: np.ndarray, escape_length: int, width: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Prefix tables over the stream's longest code length ``L``: int32
    symbol and fused position advance, ``2**L`` entries each, and ``L``.

    In canonical order the code of length ``l`` covers the next
    ``2**(L - l)`` prefixes, so both tables are one ``np.repeat``.
    ``advance`` folds the escape's trailing ``width`` raw bits into its
    code length, so one lookup per symbol yields the next position.  Prefixes
    no code covers (a single-symbol alphabet, a corrupt table) advance by
    zero: a walk that reaches one stalls and fails the lane check.
    """
    longest = int(np.flatnonzero(counts).max(initial=0)) + 1
    lengths = np.repeat(np.arange(1, longest + 1), counts[:longest])
    span = np.left_shift(1, longest - lengths)
    uncovered = (1 << longest) - int(span.sum())
    if uncovered < 0:
        raise CompressionError("huffman code table is over-subscribed")
    symbols = stored.astype(np.int32)
    step = lengths.astype(np.uint8)
    if escape_length:
        # The escape id sorts below every symbol: first of its length.
        at = int(counts[: escape_length - 1].sum())
        symbols = np.insert(symbols, at, _ESCAPE)
        step[at] += width
    span = np.append(span, uncovered)
    table_symbol = np.repeat(np.append(symbols, np.int32(0)), span)
    return table_symbol, np.repeat(np.append(step, np.uint8(0)), span), longest


def huffman_decode(blob: bytes) -> np.ndarray:
    """Decode a blob produced by :func:`huffman_encode`."""
    return decode_symbols(blob, None)


def decode_symbols(blob: bytes, slot: "int | None") -> np.ndarray:
    """:func:`huffman_decode` into scratch ``slot`` as int32 (2, for a
    caller that is done with the symbols before its next codec call) or,
    with ``None``, into a fresh int64 array."""
    if blob[:4] not in (b"HUF2", b"HUF3", _MAGIC) or len(blob) < _HEADER.size:
        raise CompressionError(f"bad huffman magic {bytes(blob[:4])!r} or truncated header")
    magic, n, total_bits, lane, escape_length, layout = _HEADER.unpack_from(blob)
    has_width = magic == b"HUF3" or (magic == _MAGIC and escape_length > 0)
    if n == 0 and not has_width:
        return np.empty(0, dtype=np.int64)
    # HUF2 escapes carry 32 raw bits; a missing width byte reads as 0, refused.
    table_at = _HEADER.size + has_width
    width_byte = sum(blob[_HEADER.size : table_at]) if has_width else _width_byte(32)
    width = width_byte & 0x7F
    if not (
        1 <= lane <= _MAX_LANE
        and escape_length <= _MAX_CODE_LENGTH
        and (escape_length > 0 or not has_width)
        and 1 <= width <= 32
        and width_byte.bit_count() % 2 == 0
        and (magic == _MAGIC or layout in (2, 4))  # HUF2 / HUF3: bytes per stored symbol
        and 0 < n <= total_bits  # every symbol takes at least one bit
    ):
        raise CompressionError("huffman header is corrupt")
    if magic != _MAGIC:
        layout = _TABLE_B | _INDEX_B | _WIDE * (layout == 4)
    n_lanes = -(-n // lane)
    counts, stored, lane_bits, code_at = _sections(blob, table_at, layout, escape_length, n_lanes)
    if escape_length and counts[escape_length - 1] == 0:
        raise CompressionError("huffman code table lacks its escape code")
    if magic == _MAGIC and _check(blob[table_at:code_at], layout & 7) != layout >> 3:
        raise CompressionError("huffman code table or lane index is corrupt")
    if len(blob) < code_at + ((total_bits + 7) >> 3):
        raise CompressionError("huffman payload truncated")
    lane_ends = np.cumsum(lane_bits)
    if lane_ends[-1] != total_bits:
        raise CompressionError("huffman stream misaligned: a lane ends off its boundary")
    table_symbol, advance, longest = _decode_tables(counts, stored, escape_length, width)
    words = window_words(blob, code_at, total_bits)

    # Row j holds the bit position of symbol j of every lane, and the
    # symbol; the last lane has ``tail`` symbols and sits out the other
    # steps.  Positions and windows are int64: no gather converts indices.
    scratch = codec_scratch()
    steps = min(lane, n)
    tail = n - (n_lanes - 1) * lane
    rows = scratch.take(1, (steps + 1, n_lanes), np.int64)
    symbols = scratch.take(3, (steps, n_lanes), np.int32)
    rows[0] = lane_ends - lane_bits
    lanes, step = np.empty((3, n_lanes), dtype=np.int64), np.empty(n_lanes, dtype=np.uint8)
    drop = np.uint64(64 - longest)
    # Gathers use mode="clip": a corrupt stream may walk anywhere, and
    # clamping keeps it in bounds (and is faster than bounds checking)
    # until the lane check below rejects it.  A window is ``longest``
    # bits wide, so it cannot leave the tables.
    for first, last, active in ((0, tail, n_lanes), (tail, steps, n_lanes - 1)):
        (word_a, shift_a, index_a), step_a = lanes[:, :active], step[:active]
        window_a, by = index_a.view(np.uint64), shift_a.view(np.uint64)
        for j in range(first, last):
            position = rows[j, :active]
            np.right_shift(position, 4, out=word_a)
            np.bitwise_and(position, 15, out=shift_a)
            words.take(word_a, out=window_a, mode="clip")
            np.left_shift(window_a, by, out=window_a)
            np.right_shift(window_a, drop, out=window_a)
            advance.take(index_a, out=step_a, mode="clip")
            table_symbol.take(index_a, out=symbols[j, :active], mode="clip")
            np.add(position, step_a, out=rows[j + 1, :active])
    ends = rows[steps]
    ends[-1] = rows[tail, -1]
    if not np.array_equal(ends, lane_ends):
        raise CompressionError("huffman stream misaligned: a lane ends off its boundary")

    if escape_length:
        symbols[tail:, -1] = 0  # the steps the last lane sat out
        escaped = np.flatnonzero(np.equal(symbols, _ESCAPE, out=scratch.take(4, symbols.shape, bool)))
        raw_at = rows.reshape(-1)[escaped] + escape_length
        raw = (peek16(words, raw_at) << np.uint64(16)) | peek16(words, raw_at + 16)
        # The raw field leads the 32 bits read: a shift sign-extends it.
        symbols.reshape(-1)[escaped] = raw.astype(np.uint32).view(np.int32) >> (32 - width)
    # Stream order is lane-major: one transposing copy.
    out = np.empty(n, dtype=np.int64) if slot is None else scratch.take(slot, (n,), np.int32)
    full = (n_lanes - 1) * lane
    out[:full].reshape(n_lanes - 1, steps)[...] = symbols[:, :-1].T
    out[full:] = symbols[:tail, -1]
    return out
