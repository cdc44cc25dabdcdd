"""Canonical Huffman coding over integer symbols, with a lane index.

This is the entropy stage shared by the SZ-, ZFP- and MGARD-like codecs.
Design points:

* **canonical codes, written canonically** — the header carries how many
  codes there are of each length and the symbols in ``(length, symbol)``
  order (int16 when they fit); codes are re-derived on decode;
* **length-limited to 16 bits** — decoding uses one lookup table of
  ``2**L`` entries for the stream's longest code length ``L``, one table
  hit per symbol;
* **escape symbol** — alphabets are capped (quantization codes follow a
  sharply peaked distribution); rare symbols are emitted as an escape code
  followed by a raw 32-bit value, so pathological inputs cannot blow up
  the table;
* **lane index** — the stream records the bit length of every run of
  ``lane`` symbols, so the decoder knows where each run starts instead of
  having to discover symbol boundaries bit by bit.  ``lane`` is about
  ``sqrt(n) / 2``, which keeps the index near ``4 * sqrt(n)`` bytes;
* **vectorized encode** — a ``bincount`` histogram (a sort when the value
  span dwarfs the stream), code lengths from a two-queue merge over the
  frequency-sorted alphabet, canonical codes by ``lexsort``/``cumsum``
  and word-accumulated packing (:func:`~repro.compress.bitstream.pack_codes`);
* **lockstep decode** — all lanes are walked together: ``lane`` steps of
  *L-bit window gather, advance-table lookup, ``pos += advance``* over
  vectors with one entry per lane, then one symbol-table gather and a
  masked pass for the escapes.  Work and transient memory are O(symbols),
  whatever the code lengths.  Every lane must end exactly where the index
  says the next one starts, so a flipped bit anywhere is an error.

Stream layout (``HUF2``, little endian)::

    4s  magic            I   n symbols          Q   total code bits
    H   lane             B   escape code length (0: no escape)
    B   bytes per stored symbol (2 or 4)
    16H codes per length 1..16 (the escape included)
    symbols in (length, symbol) order, the escape left out
    ceil(n / lane) x H   bit length of each lane
    packed code bits, MSB first

The scalar coder in ``tests/oracles/entropy_reference.py`` writes and
reads the same format one symbol at a time; property tests assert
byte-identical blobs and equal decodes.
"""

from __future__ import annotations

import struct

import numpy as np

from ..exceptions import CompressionError
from .base import codec_scratch
from .bitstream import pack_codes, peek16, window_words

__all__ = ["huffman_encode", "huffman_decode"]

_MAX_CODE_LENGTH = 16
_MAGIC = b"HUF2"
_ESCAPE = -(2**31)  # sentinel symbol id for escaped values
_HEADER = struct.Struct("<4sIQHBB")
_COUNTS = np.dtype("<u2")  # per-length code counts and lane bit lengths
_STORED_AT = _HEADER.size + _MAX_CODE_LENGTH * _COUNTS.itemsize
#: a lane of 1024 symbols is at most 1024 * (16 + 32) bits, which fits
#: the index's uint16 entries
_MAX_LANE = 1024

#: a dense ``bincount`` histogram is used while the observed value span is
#: at most this many times the symbol count, which keeps every table
#: O(n); wider spans (SZ's 2**30 outlier code in a short chunk) sort.
_DENSE_SPAN_PER_SYMBOL = 4


def check_max_alphabet(max_alphabet: int) -> int:
    """Validate an alphabet cap: more than 65536 codes cannot all fit the
    16-bit length limit, and the escape takes one of them."""
    if not 1 <= max_alphabet <= 65535:
        raise CompressionError(
            f"max_alphabet must lie in [1, 65535], got {max_alphabet!r}"
        )
    return int(max_alphabet)


def lane_size(n: int) -> int:
    """Symbols per lane: the power of two nearest ``sqrt(n) / 2`` (on a
    log scale), clamped to [16, 1024]."""
    return 1 << min(max((n.bit_length() - 2) // 2, 4), 10)


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
    (raw 32-bit two's complement after an escape code).
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
    if n_escaped > 0:
        alphabet = np.concatenate(([_ESCAPE], alphabet))
        frequencies = np.concatenate(([n_escaped], frequencies))

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
    narrow = stored.size == 0 or (stored.min() >= -(2**15) and stored.max() < 2**15)

    # Per-slot (code, length).  Entry 0 is the escape whenever a value was
    # dropped, so it is the fill; with nothing dropped every slot that
    # occurs is overwritten.
    first_kept = alphabet.size - keep.size
    slot_code = np.full(n_slots, codes[0])
    slot_length = np.full(n_slots, lengths[0])
    slot_code[kept_slot], slot_length[kept_slot] = codes[first_kept:], lengths[first_kept:]
    values = np.take(slot_code, slot, out=scratch.take(3, (n,), np.uint64), mode="clip")
    value_lengths = np.take(slot_length, slot, out=scratch.take(4, (n,), np.int64), mode="clip")
    if n_escaped > 0:
        # The raw 32-bit value follows each escape code: one longer code.
        slot_dropped = np.ones(n_slots, dtype=bool)
        slot_dropped[kept_slot] = False
        dropped = np.take(slot_dropped, slot, out=scratch.take(1, (n,), bool), mode="clip")
        escaped = np.flatnonzero(dropped)
        raw = slot[escaped] + low if dense else unique[slot[escaped]]
        values[escaped] = (codes[0] << np.uint64(32)) | (raw & 0xFFFFFFFF).astype(np.uint64)
        value_lengths[escaped] += 32
    lane = lane_size(n)
    lane_bits = np.add.reduceat(value_lengths, np.arange(0, n, lane))

    payload, total_bits = pack_codes(values, value_lengths)
    return b"".join(
        (
            _HEADER.pack(
                _MAGIC, n, total_bits, lane, lengths[0] if n_escaped > 0 else 0, 2 if narrow else 4
            ),
            np.bincount(lengths, minlength=_MAX_CODE_LENGTH + 1)[1:].astype(_COUNTS).tobytes(),
            stored.astype("<i2" if narrow else "<i4").tobytes(),
            lane_bits.astype(_COUNTS).tobytes(),
            payload,
        )
    )


def _decode_tables(
    counts: np.ndarray, stored: np.ndarray, escape_length: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Prefix tables over the stream's longest code length ``L``: int32
    symbol and fused position advance, ``2**L`` entries each, and ``L``.

    In canonical order the code of length ``l`` covers the next
    ``2**(L - l)`` prefixes, so both tables are one ``np.repeat``.
    ``advance`` folds the escape's trailing 32 raw bits into its code
    length, so one lookup per symbol yields the next position.  Prefixes
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
        step[at] += 32
    span = np.append(span, uncovered)
    table_symbol = np.repeat(np.append(symbols, np.int32(0)), span)
    return table_symbol, np.repeat(np.append(step, np.uint8(0)), span), longest


def huffman_decode(blob: bytes) -> np.ndarray:
    """Decode a blob produced by :func:`huffman_encode`."""
    return decode_symbols(blob, None)


def decode_symbols(blob: bytes, slot: "int | None") -> np.ndarray:
    """:func:`huffman_decode` into scratch ``slot`` (2, for a caller that
    is done with the symbols before its next codec call) or, with
    ``None``, into a fresh array."""
    if blob[:4] == b"HUF1":
        raise CompressionError("HUF1 huffman streams are no longer supported")
    if blob[:4] != _MAGIC:
        raise CompressionError("bad huffman magic")
    if len(blob) < _HEADER.size:
        raise CompressionError("huffman header truncated")
    __, n, total_bits, lane, escape_length, symbol_bytes = _HEADER.unpack_from(blob)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    if not (
        1 <= lane <= _MAX_LANE
        and escape_length <= _MAX_CODE_LENGTH
        and symbol_bytes in (2, 4)
        and n <= total_bits  # every symbol takes at least one bit
    ):
        raise CompressionError("huffman header is corrupt")
    if len(blob) < _STORED_AT:
        raise CompressionError("huffman code table truncated")
    counts = np.frombuffer(blob, _COUNTS, _MAX_CODE_LENGTH, _HEADER.size).astype(np.int64)
    n_stored = int(counts.sum()) - (escape_length > 0)
    if n_stored < 0 or (escape_length and counts[escape_length - 1] == 0):
        raise CompressionError("huffman code table lacks its escape code")
    n_lanes = -(-n // lane)
    index_at = _STORED_AT + n_stored * symbol_bytes
    payload_at = index_at + n_lanes * _COUNTS.itemsize
    if len(blob) < payload_at + ((total_bits + 7) >> 3):
        raise CompressionError("huffman payload truncated")
    stored = np.frombuffer(blob, f"<i{symbol_bytes}", n_stored, _STORED_AT)
    lane_bits = np.frombuffer(blob, _COUNTS, n_lanes, index_at).astype(np.int64)
    lane_ends = np.cumsum(lane_bits)
    if lane_ends[-1] != total_bits:
        raise CompressionError("huffman stream misaligned: a lane ends off its boundary")
    table_symbol, advance, longest = _decode_tables(counts, stored, escape_length)
    words = window_words(blob, payload_at, total_bits)

    # Row j holds the bit position of symbol j of every lane; the last
    # lane has ``tail`` symbols and sits out the remaining steps.  No
    # walk passes its lane's start by more than 48 bits a step.
    scratch = codec_scratch()
    steps = min(lane, n)
    tail = n - (n_lanes - 1) * lane
    position_type = np.int32 if total_bits + 48 * steps < 2**31 else np.int64
    rows = scratch.take(1, (steps + 1, n_lanes), position_type)
    windows = scratch.take(3, (steps, n_lanes), np.uint32)
    rows[0] = lane_ends - lane_bits
    word = np.empty(n_lanes, dtype=position_type)
    shift = np.empty(n_lanes, dtype=np.uint32)
    step = np.empty(n_lanes, dtype=np.uint8)
    # Gathers use mode="clip": a corrupt stream may walk anywhere, and
    # clamping keeps it in bounds (and is faster than bounds checking)
    # until the lane check below rejects it.
    for first, last, active in ((0, tail, n_lanes), (tail, steps, n_lanes - 1)):
        word_a, shift_a, step_a = word[:active], shift[:active], step[:active]
        for j in range(first, last):
            position, window = rows[j, :active], windows[j, :active]
            np.right_shift(position, 4, out=word_a)
            np.bitwise_and(position, 15, out=shift_a, casting="unsafe")
            words.take(word_a, out=window, mode="clip")
            np.left_shift(window, shift_a, out=window)
            np.right_shift(window, 32 - longest, out=window)
            advance.take(window, out=step_a, mode="clip")
            np.add(position, step_a, out=rows[j + 1, :active])
    ends = rows[steps]
    ends[-1] = rows[tail, -1]
    if not np.array_equal(ends, lane_ends):
        raise CompressionError("huffman stream misaligned: a lane ends off its boundary")

    # A window is ``longest`` bits wide, so it cannot leave the table.
    # Widened to the index type on the way: a gather would otherwise do
    # that itself, into a fresh stream-sized array.
    lane_major = scratch.take(4, (n_lanes, steps), np.intp)
    lane_major[...] = windows.T
    symbols = scratch.take(3, (n,), np.int32)
    np.take(table_symbol, lane_major.reshape(-1)[:n], out=symbols, mode="clip")
    out = np.empty(n, dtype=np.int64) if slot is None else scratch.take(slot, (n,), np.int64)
    out[...] = symbols
    if escape_length:
        escaped = np.flatnonzero(np.equal(out, _ESCAPE, out=scratch.take(3, (n,), bool)))
        raw_at = rows[escaped % lane, escaped // lane] + escape_length
        raw = (peek16(words, raw_at) << np.uint32(16)) | peek16(words, raw_at + 16)
        out[escaped] = raw.view(np.int32)
    return out
