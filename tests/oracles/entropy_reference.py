"""The scalar entropy coder the vectorized one must reproduce byte for byte.

These are the coder of ``repro.compress.huffman`` / ``bitstream`` as it
was before it was rewritten as array code: a ``(freq, tiebreak)`` heap
over symbol groups, dict-based canonical codes, per-entry header packing,
a per-bit ``pack_codes`` and a decoder that walks the stream one symbol at
a time.  The code lengths, the codes and the packed bits are as they
always were, except that an escaped value's raw field is as wide as the
widest escaped value instead of 32 bits; the sections around them are
``HUF4`` (see ``repro.compress.huffman``): a code table and a lane index,
each in the smaller of two layouts, written here with ``struct`` one
field, bit or nibble at a time, and a five-bit check folded from their
bytes.  :func:`read_sections_reference` parses ``HUF2``, ``HUF3`` and
``HUF4`` the same way, and :func:`legacy_layout_reference` re-lays a
``HUF4`` stream as the ``HUF2`` / ``HUF3`` stream the previous encoder
wrote for the same symbols.  The blobs these write *are* the format:
property tests assert the shipped encoder emits identical bytes and the
shipped decoder returns what ``huffman_decode_reference`` returns, which
never looks at the lane index.
``BitReader`` is the cursor-based reader the tests use to pull codes back
out of a packed stream; nothing in ``src/`` reads bit by bit any more.
"""

from __future__ import annotations

import heapq
import struct

import numpy as np

from repro.exceptions import CompressionError

_MAX_CODE_LENGTH = 16
_MAGIC = b"HUF4"
_LEGACY = (b"HUF2", b"HUF3")  # no escape / escapes with their raw width
_HEADER = "<4sIQHBB"
_TABLE_B, _INDEX_B, _WIDE = 1, 2, 4  # HUF4 layout bits; bits 3-7 are the check
_ESCAPE = -(2**31)

#: descending powers of two: _POW2[64 - k:] is [2^(k-1), ..., 2, 1], so a
#: dot product against it assembles a k-bit big-endian integer.
_POW2 = np.left_shift(np.uint64(1), np.arange(63, -1, -1, dtype=np.uint64))


def pack_codes_reference(values: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Per-bit ``pack_codes``: one scatter pass per bit position."""
    values = np.asarray(values, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if values.shape != lengths.shape:
        raise CompressionError("values and lengths must have the same shape")
    if values.size == 0:
        return b"", 0
    if lengths.min() < 1 or lengths.max() > 48:
        raise CompressionError("code lengths must lie in [1, 48]")
    ends = np.cumsum(lengths)
    starts = ends - lengths
    total_bits = int(ends[-1])
    bits = np.zeros(total_bits, dtype=np.uint8)
    max_len = int(lengths.max())
    for j in range(max_len):
        active = lengths > j
        shift = (lengths[active] - 1 - j).astype(np.uint64)
        bits[starts[active] + j] = (values[active] >> shift) & np.uint64(1)
    return np.packbits(bits).tobytes(), total_bits


def escapes_by_insert_reference(
    values: np.ndarray,
    value_lengths: np.ndarray,
    escaped: np.ndarray,
    raw: np.ndarray,
    width: int = 32,
) -> tuple[np.ndarray, np.ndarray]:
    """The array encoder's escapes while the raw ``width``-bit value was
    a code of its own: two whole-stream ``np.insert`` copies.  The shipped
    encoder packs ``(escape code << width) | raw`` as one code of up to 48
    bits instead; the packed bits must not differ."""
    values = np.insert(values, escaped + 1, raw)
    value_lengths = np.insert(value_lengths, escaped + 1, width)
    return values, value_lengths


def signed_width_reference(value: int) -> int:
    """The fewest bits that hold ``value`` in two's complement."""
    width = 1
    while not -(2 ** (width - 1)) <= value < 2 ** (width - 1):
        width += 1
    return width


def code_lengths_reference(frequencies: dict[int, int]) -> dict[int, int]:
    """Huffman code lengths per symbol, length-limited to 16 bits."""
    if len(frequencies) == 1:
        return {next(iter(frequencies)): 1}
    heap: list[tuple[int, int, list[int]]] = []
    for tiebreak, (symbol, freq) in enumerate(sorted(frequencies.items())):
        heapq.heappush(heap, (freq, tiebreak, [symbol]))
    lengths = {symbol: 0 for symbol in frequencies}
    counter = len(frequencies)
    while len(heap) > 1:
        f1, __, group1 = heapq.heappop(heap)
        f2, __, group2 = heapq.heappop(heap)
        for symbol in group1 + group2:
            lengths[symbol] += 1
        counter += 1
        heapq.heappush(heap, (f1 + f2, counter, group1 + group2))
    # Length-limit: clamp overlong codes, then restore the Kraft sum by
    # deepening the shallowest cheap symbols (zlib-style fix-up).
    capped = {s: min(l, _MAX_CODE_LENGTH) for s, l in lengths.items()}
    kraft = sum(2 ** (_MAX_CODE_LENGTH - l) for l in capped.values())
    budget = 2**_MAX_CODE_LENGTH
    if kraft > budget:
        order = sorted(capped, key=lambda s: (frequencies[s], s))
        index = 0
        while kraft > budget:
            symbol = order[index % len(order)]
            index += 1
            if capped[symbol] < _MAX_CODE_LENGTH:
                kraft -= 2 ** (_MAX_CODE_LENGTH - capped[symbol] - 1)
                capped[symbol] += 1
    return capped


def canonical_codes_reference(lengths: dict[int, int]) -> dict[int, tuple[int, int]]:
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


def lane_size_reference(n: int, total_bits: int) -> int:
    """The smallest power of two from 16 up whose index, 16 bits a lane,
    is at most 1/56 of the ``total_bits`` code bits, but no more than the
    power of two nearest ``sqrt(n) / 2`` on a log scale (in [16, 1024])."""
    cap = 16
    while cap < 1024 and 8 * cap * cap <= n:
        cap *= 2
    lane = 16
    while lane < cap and 56 * (16 * n) > total_bits * lane:  # 16 n / lane > total / 56
        lane *= 2
    return lane


def huffman_encode_reference(
    symbols: np.ndarray, max_alphabet: int = 4096, lane: "int | None" = None
) -> bytes:
    """Dict-and-loop ``huffman_encode`` (no ``max_alphabet`` validation:
    it hangs above 65536 symbols, which is why the shipped one checks).

    ``lane`` writes the stream with that many symbols per lane instead of
    the one :func:`lane_size_reference` picks: streams written under an
    earlier lane rule, which every decoder must go on reading."""
    symbols = np.asarray(symbols, dtype=np.int64).ravel()
    n = symbols.size
    if n == 0:
        return struct.pack(_HEADER, _MAGIC, 0, 0, 0, 0, 0)
    unique, inverse, counts = np.unique(symbols, return_inverse=True, return_counts=True)
    if np.any(np.abs(unique) >= 2**31):
        raise CompressionError("huffman symbols must fit in int32")
    keep = np.argsort(counts)[::-1][: max_alphabet - 1]
    kept_unique = np.zeros(unique.size, dtype=bool)
    kept_unique[keep] = True
    frequencies: dict[int, int] = {int(unique[i]): int(counts[i]) for i in keep}
    n_escaped = n - sum(frequencies.values())
    if n_escaped > 0:
        frequencies[_ESCAPE] = n_escaped
    lengths = code_lengths_reference(frequencies)
    codes = canonical_codes_reference(lengths)

    escape_code, escape_length = codes.get(_ESCAPE, (0, 0))
    unique_code = np.empty(unique.size, dtype=np.uint64)
    unique_length = np.empty(unique.size, dtype=np.int64)
    for i, symbol in enumerate(unique):
        entry = codes.get(int(symbol))
        if entry is None:
            unique_code[i], unique_length[i] = escape_code, escape_length
        else:
            unique_code[i], unique_length[i] = entry
    values = unique_code[inverse]
    value_lengths = unique_length[inverse]
    escaped_mask = ~kept_unique[inverse]
    width = max((signed_width_reference(int(v)) for v in unique[~kept_unique]), default=0)

    # Lane index: the bits of every run of ``lane`` symbols, raw values included.
    symbol_bits = value_lengths + width * escaped_mask
    if lane is None:
        lane = lane_size_reference(n, int(symbol_bits.sum()))
    lane_bits = [int(symbol_bits[at : at + lane].sum()) for at in range(0, n, lane)]

    if n_escaped > 0:
        raw = (symbols[escaped_mask].astype(np.int64) & (2**width - 1)).astype(np.uint64)
        merged_values = np.empty(n + int(escaped_mask.sum()), dtype=np.uint64)
        merged_lengths = np.empty_like(merged_values, dtype=np.int64)
        positions = np.arange(n) + np.cumsum(escaped_mask) - escaped_mask
        merged_values[positions] = values
        merged_lengths[positions] = value_lengths
        raw_positions = positions[escaped_mask] + 1
        merged_values[raw_positions] = raw
        merged_lengths[raw_positions] = width
        values, value_lengths = merged_values, merged_lengths

    payload, total_bits = pack_codes_reference(values, value_lengths)
    stored = [
        symbol
        for symbol, __ in sorted(lengths.items(), key=lambda item: (item[1], item[0]))
        if symbol != _ESCAPE
    ]
    narrow = all(-(2**15) <= symbol < 2**15 for symbol in stored)
    table_b, layout = struct.pack("<16H", *_counts_reference(lengths)), _TABLE_B
    for symbol in stored:
        table_b += struct.pack("<h" if narrow else "<i", symbol)
    if not narrow:
        layout |= _WIDE
    # Table (a) costs the bitmap over [lowest, highest]: sized before it is
    # built, since a sparse alphabet may span 2**31 values.
    ascending = sorted(stored)
    span = ascending[-1] - ascending[0] if ascending else 0
    if 8 + (span + 8) // 8 + (len(ascending) + 1) // 2 < len(table_b):
        table, layout = _table_a_reference(ascending, lengths), 0
    else:
        table = table_b
    index, index_b = lane_index_reference(lane_bits)
    layout |= _INDEX_B * index_b
    layout |= check_reference(table + index, layout) << 3
    header = struct.pack(_HEADER, _MAGIC, n, total_bits, lane, escape_length, layout)
    if n_escaped > 0:  # the width, and bit 7 to make the byte's bit count even
        header += struct.pack("<B", width + 128 * (bin(width).count("1") % 2))
    return header + table + index + payload


def lane_index_reference(lane_bits: list[int]) -> tuple[bytes, bool]:
    """The smaller lane index for these bit lengths, and whether it is
    layout (b): one ``<H`` a lane, against (a)'s int8 deltas from the
    previous lane, -128 standing for a ``<H`` after the deltas."""
    deltas, escaped = b"", b""
    previous = 0
    for bits in lane_bits:
        if -127 <= bits - previous <= 127:
            deltas += struct.pack("<b", bits - previous)
        else:
            deltas += struct.pack("<b", -128)
            escaped += struct.pack("<H", bits)
        previous = bits
    index_b = b"".join(struct.pack("<H", bits) for bits in lane_bits)
    if len(deltas) + len(escaped) < len(index_b):
        return deltas + escaped, False
    return index_b, True


def _counts_reference(lengths: dict[int, int]) -> list[int]:
    """Codes of each length 1..16, the escape included."""
    return [sum(1 for l in lengths.values() if l == length) for length in range(1, 17)]


def _table_a_reference(ascending: list[int], lengths: dict[int, int]) -> bytes:
    """Lowest symbol and span, the presence bitmap (LSB first) and a nibble
    ``length - 1`` per symbol in ascending order, high nibble first."""
    low = ascending[0] if ascending else 0
    span = ascending[-1] - low if ascending else 0
    bitmap = bytearray((span + 8) // 8)
    for symbol in ascending:
        bitmap[(symbol - low) // 8] |= 1 << ((symbol - low) % 8)
    nibbles = [lengths[symbol] - 1 for symbol in ascending] + [0] * (len(ascending) % 2)
    packed = bytes(16 * high + low_nibble for high, low_nibble in zip(nibbles[::2], nibbles[1::2]))
    return struct.pack("<ii", low, span) + bytes(bitmap) + packed


def check_reference(sections: bytes, layout: int) -> int:
    """The HUF4 check: the XOR of every table and index byte and the three
    layout bits, bits 5-7 folded onto bits 0-2."""
    folded = layout & 7
    for byte in sections:
        folded ^= byte
    return (folded & 31) ^ (folded >> 5)


def read_sections_reference(blob: bytes) -> dict:
    """Every field of a ``HUF2`` / ``HUF3`` / ``HUF4`` stream, read one at
    a time, with the offset of each section.  ``layout`` is the HUF4
    layout bits (a legacy stream is tables and index (b)); ``lengths`` maps
    each stored symbol to its code length, the escape included."""
    magic, n, total_bits, lane, escape_length, last = struct.unpack_from(_HEADER, blob, 0)
    if magic not in _LEGACY + (_MAGIC,):
        raise CompressionError("bad huffman magic")
    at = struct.calcsize(_HEADER)
    fields = dict(magic=magic, n=n, total_bits=total_bits, lane=lane, escape_length=escape_length)
    fields.update(width=32, check=None, layout=last & 7, symbol_bytes=None)
    if magic in _LEGACY:
        fields.update(layout=_TABLE_B | _INDEX_B | _WIDE * (last == 4), symbol_bytes=last)
    else:
        fields["check"] = last >> 3
    if n == 0:  # the header alone
        empty = dict(lengths={}, lane_bits=[], n_lanes=0, counts=[0] * 16, stored=[])
        return {**fields, **empty, **{key: at for key in ("table_at", "stored_at", "index_at", "payload_at")}}
    if magic == b"HUF3" or (magic == _MAGIC and escape_length > 0):
        (width_byte,) = struct.unpack_from("<B", blob, at)
        at += 1
        fields["width"] = width_byte % 128
        if bin(width_byte).count("1") % 2 or not 1 <= width_byte % 128 <= 32 or not escape_length:
            raise CompressionError("huffman header is corrupt")
    fields["table_at"] = at
    lengths: dict[int, int] = {_ESCAPE: escape_length} if escape_length else {}
    if fields["layout"] & _TABLE_B:
        counts = struct.unpack_from("<16H", blob, at)
        at += 32
        fields["stored_at"] = at
        symbol_bytes = 4 if fields["layout"] & _WIDE else 2
        fields["symbol_bytes"] = symbol_bytes
        for length, count in enumerate(counts, start=1):
            for __ in range(count - (length == escape_length)):
                (symbol,) = struct.unpack_from("<h" if symbol_bytes == 2 else "<i", blob, at)
                lengths[symbol] = length
                at += symbol_bytes
    else:
        low, span = struct.unpack_from("<ii", blob, at)
        at += 8
        fields["stored_at"] = at
        ascending = [low + bit for bit in range(span + 1) if blob[at + bit // 8] >> (bit % 8) & 1]
        at += (span + 8) // 8
        fields["nibbles_at"] = at
        for rank, symbol in enumerate(ascending):
            lengths[symbol] = (blob[at + rank // 2] >> (0 if rank % 2 else 4) & 15) + 1
        at += (len(ascending) + 1) // 2
    fields["index_at"] = at
    n_lanes = -(-n // lane) if n else 0
    if fields["layout"] & _INDEX_B:
        lane_bits = list(struct.unpack_from(f"<{n_lanes}H", blob, at))
        at += 2 * n_lanes
    else:
        deltas = struct.unpack_from(f"<{n_lanes}b", blob, at)
        at += n_lanes
        fields["escapes_at"] = at
        lane_bits, previous = [], 0
        for delta in deltas:
            if delta == -128:
                (previous,) = struct.unpack_from("<H", blob, at)
                at += 2
            else:
                previous += delta
            lane_bits.append(previous)
    fields.update(lengths=lengths, lane_bits=lane_bits, n_lanes=n_lanes, payload_at=at)
    fields["counts"] = _counts_reference(lengths)
    fields["stored"] = sorted((s for s in lengths if s != _ESCAPE), key=lambda s: (lengths[s], s))
    return fields


def legacy_layout_reference(blob: bytes) -> bytes:
    """A ``HUF4`` stream as the encoder before it wrote it: ``HUF3`` (the
    width byte, then both sections in layout (b)) when it escapes,
    ``HUF2`` otherwise, the same code bits behind them."""
    fields = read_sections_reference(blob)
    assert fields["magic"] == _MAGIC
    if fields["n"] == 0:
        return struct.pack(_HEADER, b"HUF2", 0, 0, 0, 0, 0)
    narrow = all(-(2**15) <= symbol < 2**15 for symbol in fields["stored"])
    escaped = fields["escape_length"] > 0
    header = struct.pack(
        _HEADER, _LEGACY[escaped], fields["n"], fields["total_bits"], fields["lane"],
        fields["escape_length"], 2 if narrow else 4,
    )
    if escaped:
        header += blob[struct.calcsize(_HEADER) : fields["table_at"]]
    symbols = b"".join(struct.pack("<h" if narrow else "<i", s) for s in fields["stored"])
    index = b"".join(struct.pack("<H", bits) for bits in fields["lane_bits"])
    counts = struct.pack("<16H", *fields["counts"])
    return header + counts + symbols + index + blob[fields["payload_at"] :]


def huffman_decode_reference(blob: bytes) -> np.ndarray:
    """The scalar decoder, one table hit per symbol, start to end.

    It skips the lane index: where a symbol starts is where the previous
    one ended, and the only check is that the last one ends on
    ``total_bits``.  A ``HUF4`` stream's check must hold.
    """
    if blob[:4] not in _LEGACY + (_MAGIC,):
        raise CompressionError("bad huffman magic")
    __, n, total_bits, __, __, last = struct.unpack_from(_HEADER, blob, 0)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    fields = read_sections_reference(blob)
    if fields["check"] is not None and fields["check"] != check_reference(
        blob[fields["table_at"] : fields["payload_at"]], last
    ):
        raise CompressionError("huffman code table or lane index is corrupt")
    width, offset = fields["width"], fields["payload_at"]
    codes = canonical_codes_reference(fields["lengths"])

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
    for i in range(n):
        prefix = window[position]
        symbol = table_symbol[prefix]
        position += table_length[prefix]
        if symbol == _ESCAPE:
            raw = int(window[position]) >> max(16 - width, 0)  # the first 16 raw bits
            if width > 16:
                raw = (raw << (width - 16)) | (int(window[position + 16]) >> (32 - width))
            position += width
            if raw >= 2 ** (width - 1):
                raw -= 2**width
            symbol = raw
        out[i] = symbol
    if position != total_bits:
        raise CompressionError(
            f"huffman stream misaligned: consumed {position} of {total_bits} bits"
        )
    return out


def stream_offset_reference(codec: str, payload: bytes) -> int:
    """Where the Huffman stream starts in an SZ, ZFP or MGARD payload,
    parsed as each codec does; it runs to the payload's end."""
    if codec == "zfp":
        return struct.calcsize("<dB")
    if codec == "mgard":
        (n_coarse,) = struct.unpack_from("<I", payload, 9)
        return struct.calcsize("<dBI") + 8 * n_coarse
    __, n_anchors, n_outliers, n_choices = struct.unpack_from("<dIIH", payload, 0)
    return struct.calcsize("<dIIH") + (n_choices + 7) // 8 + 8 * (n_anchors + n_outliers)


class BitReader:
    """Sequential MSB-first bit reader over packed bytes."""

    def __init__(self, payload: bytes, total_bits: int) -> None:
        self._bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8))
        if total_bits > self._bits.size:
            raise CompressionError(
                f"bitstream declares {total_bits} bits but payload has {self._bits.size}"
            )
        self.total_bits = total_bits
        self.position = 0

    def read(self, n_bits: int) -> int:
        """Read ``n_bits`` as an unsigned big-endian integer."""
        end = self.position + n_bits
        if end > self.total_bits:
            raise CompressionError("bitstream exhausted")
        chunk = self._bits[self.position : end]
        self.position = end
        if n_bits == 0:
            return 0
        if n_bits > 64:
            # Beyond uint64 the dot product would overflow; assemble with
            # the scalar loop (no caller reads codes this wide).
            value = 0
            for bit in chunk:
                value = (value << 1) | int(bit)
            return value
        return int(chunk.astype(np.uint64) @ _POW2[64 - n_bits :])

    def peek16(self) -> int:
        """Peek up to 16 bits (zero padded past the end) without advancing."""
        end = min(self.position + 16, self._bits.size)
        chunk = self._bits[self.position : end]
        if chunk.size == 0:
            return 0
        value = int(chunk.astype(np.uint64) @ _POW2[64 - chunk.size :])
        return value << (16 - chunk.size)

    def _read_reference(self, n_bits: int) -> int:
        """Scalar ``read`` kept as ground truth for property tests."""
        end = self.position + n_bits
        if end > self.total_bits:
            raise CompressionError("bitstream exhausted")
        chunk = self._bits[self.position : end]
        self.position = end
        value = 0
        for bit in chunk:
            value = (value << 1) | int(bit)
        return value

    def _peek16_reference(self) -> int:
        """Scalar ``peek16`` kept as ground truth for property tests."""
        end = min(self.position + 16, self._bits.size)
        chunk = self._bits[self.position : end]
        value = 0
        for bit in chunk:
            value = (value << 1) | int(bit)
        return value << (16 - len(chunk))

    def skip(self, n_bits: int) -> None:
        self.position += n_bits
        if self.position > self.total_bits:
            raise CompressionError("bitstream exhausted")

    @property
    def remaining(self) -> int:
        return self.total_bits - self.position
