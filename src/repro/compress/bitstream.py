"""Bit-level packing used by the entropy coding stages of the codecs.

Codes are accumulated straight into 64-bit big-endian destination words:
every code, left-justified in 64 bits, is shifted to its place in the word
it starts in and added to that word with one ``np.add.at`` (the bits of a
word's codes are disjoint, so add = or).  A code is at most 48 bits long
(a Huffman escape code and up to 32 raw bits), so it crosses at most one word
boundary and no boundary is crossed twice; the crossing tails are or-ed in
by one masked pass.  The stream-sized intermediates are slots 1, 2 and 5
of the thread's :class:`~repro.compress.base.CodecScratch`.
Reading goes through an array of 32-bit windows, one at every 16-bit offset
(each in the upper half of a uint64), from which the 16 bits at any bit
position are one gather and two shifts.
No per-bit array is materialised either way.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import CompressionError
from .base import codec_scratch

__all__ = ["pack_codes", "peek16", "window_words"]


def pack_codes(values: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Concatenate variable-length big-endian codes into packed bytes:
    ``(payload zero padded to a byte, total_bits)``.  Only the low
    ``lengths[i]`` (1..48) bits of ``values[i]`` are emitted; stray higher
    bits are dropped."""
    values = np.asarray(values, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if values.shape != lengths.shape:
        raise CompressionError("values and lengths must have the same shape")
    if values.size == 0:
        return b"", 0
    if lengths.min() < 1 or lengths.max() > 48:
        raise CompressionError("code lengths must lie in [1, 48]")
    lengths = lengths.ravel()
    # Left-justify each code in a 64-bit lane: bits above its declared
    # length fall off the top, so they cannot bleed into a neighbour.
    justified = np.left_shift(values.ravel(), (64 - lengths).astype(np.uint64))
    payload, lane_ends = pack_justified(justified, lengths, lengths.size)
    return payload, int(lane_ends[-1])


def pack_justified(codes: np.ndarray, lengths: np.ndarray, lane: int) -> tuple[bytes, np.ndarray]:
    """:func:`pack_codes` of valid codes left-justified in uint64 ``codes``
    (which it consumes): the payload and the bit offset at which each run
    of ``lane`` codes ends, the last one ``total_bits``."""
    # Each n-sized temporary would be freshly paged-in memory, which costs
    # more than the arithmetic: they are scratch slots 1, 2 and 5.
    scratch, n = codec_scratch(), lengths.size
    starts = scratch.take(1, (n,), np.int64)
    starts[0] = 0
    np.cumsum(lengths[:-1], dtype=np.int64, out=starts[1:])
    total_bits = int(starts[-1]) + int(lengths[-1])
    lane_ends = np.append(starts[lane::lane], total_bits)
    word = np.right_shift(starts, 6, out=scratch.take(2, (n,), np.int64))
    # Only the last code starting in a word can cross into the next one
    # (a code of < 64 bits cannot span a whole word), so no boundary is
    # crossed twice.
    new_word = np.not_equal(word[1:], word[:-1], out=scratch.take(5, (n - 1,), bool))
    last = np.append(np.flatnonzero(new_word), n - 1)
    offset = np.bitwise_and(starts, 63, out=starts).view(np.uint64)
    crossing = np.flatnonzero(offset[last] + lengths[last] > 64)
    spill = last[crossing]
    tails = codes[spill] << (64 - offset[spill])
    # Each code shifted to its place in the word it starts in; the codes
    # of one word have disjoint bits, so summing them or-s them.
    codes >>= offset
    words = np.zeros((total_bits + 63) >> 6, dtype=np.uint64)
    np.add.at(words, word, codes)
    words[crossing + 1] |= tails
    return words.astype(">u8").tobytes()[: (total_bits + 7) >> 3], lane_ends


def window_words(buffer: bytes, offset: int, total_bits: int) -> np.ndarray:
    """The 32 bits at every 16-bit offset of a packed stream, in the upper
    half of a uint64 (so a window shifted up to 16 bits to the left stays
    within one word).

    ``buffer[offset:]`` must hold ``total_bits`` bits; whatever follows
    the stream's last byte reads as zero.  Costs four bytes of memory per
    byte of stream.
    """
    n_bytes = (total_bits + 7) >> 3
    padded = np.zeros((n_bytes + 5) & ~1, dtype=np.uint8)
    padded[:n_bytes] = np.frombuffer(buffer, dtype=np.uint8, count=n_bytes, offset=offset)
    # A big-endian uint32 at every second byte: overlapping views.
    words = np.ndarray((padded.size // 2 - 1,), ">u4", padded, 0, (2,)).astype(np.uint64)
    words <<= np.uint64(32)
    return words


def peek16(words: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The 16 bits starting at each bit position, as uint64.

    Positions past the stream clamp to its last word.
    """
    window = np.take(words, positions >> 4, mode="clip")
    window <<= (positions & 15).astype(np.uint64)
    window >>= np.uint64(48)
    return window
