"""Bit-level packing used by the entropy coding stages of the codecs.

Codes are accumulated straight into 64-bit big-endian destination words:
every code is shifted to its place in the word it starts in and the codes
of one word are summed (their bits are disjoint, so add = or).  A code is
at most 48 bits long (a Huffman escape and its raw 32 bits), so it crosses
at most one word boundary and no boundary is crossed twice; the crossing
tails are or-ed in by one masked pass.  The stream-sized intermediates are
slots 1, 2 and 5 of the thread's :class:`~repro.compress.base.CodecScratch`.
Reading goes through an array of 32-bit words, one at every 16-bit offset,
from which the 16 bits at any bit position are one gather and two shifts.
No per-bit array is materialised either way.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import CompressionError
from .base import codec_scratch

__all__ = ["pack_codes", "peek16", "window_words"]


def pack_codes(values: np.ndarray, lengths: np.ndarray) -> tuple[bytes, int]:
    """Concatenate variable-length big-endian codes into packed bytes.

    Parameters
    ----------
    values:
        Non-negative code values, one per symbol.  Only the low
        ``lengths[i]`` bits of ``values[i]`` are emitted; stray higher
        bits are dropped.
    lengths:
        Bit length of each code (1..48).

    Returns
    -------
    (payload, total_bits):
        Packed bytes (zero padded to a byte boundary) and the exact number
        of meaningful bits.
    """
    values = np.asarray(values, dtype=np.uint64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if values.shape != lengths.shape:
        raise CompressionError("values and lengths must have the same shape")
    if values.size == 0:
        return b"", 0
    if lengths.min() < 1 or lengths.max() > 48:
        raise CompressionError("code lengths must lie in [1, 48]")
    values, lengths = values.ravel(), lengths.ravel()
    # Each n-sized temporary would be freshly paged-in memory, which costs
    # more than the arithmetic: they are scratch slots 1 and 2.
    scratch, n = codec_scratch(), lengths.size
    starts = np.cumsum(lengths, out=scratch.take(1, (n,), np.int64))
    total_bits = int(starts[-1])
    starts -= lengths
    # Every word but a final tail-only one has a code starting in it (a
    # code of < 64 bits cannot span a whole word), so the words that own
    # a group of codes are exactly 0..word[-1], in order: group k is word k.
    word = np.right_shift(starts, 6, out=scratch.take(2, (n,), np.int64))
    new_word = np.not_equal(word[1:], word[:-1], out=scratch.take(5, (n - 1,), bool))
    group_starts = np.concatenate(([0], np.flatnonzero(new_word) + 1))
    offset = np.bitwise_and(starts, 63, out=starts).view(np.uint64)
    # Left-justify each code in a 64-bit lane: bits above its declared
    # length fall off the top, so they cannot bleed into a neighbour.
    lane = np.subtract(64, lengths, out=word).view(np.uint64)
    np.left_shift(values, lane, out=lane)
    # Only the last code of a group can cross into the next word.
    last = np.append(group_starts[1:] - 1, n - 1)
    crossing = np.flatnonzero(offset[last] + lengths[last].view(np.uint64) > 64)
    spill = last[crossing]
    tails = lane[spill] << (64 - offset[spill])
    lane >>= offset
    words = np.zeros((total_bits + 63) >> 6, dtype=np.uint64)
    words[: group_starts.size] = np.add.reduceat(lane, group_starts)
    words[crossing + 1] |= tails
    return words.astype(">u8").tobytes()[: (total_bits + 7) >> 3], total_bits


def window_words(buffer: bytes, offset: int, total_bits: int) -> np.ndarray:
    """The 32 bits at every 16-bit offset of a packed stream, as uint32.

    ``buffer[offset:]`` must hold ``total_bits`` bits; whatever follows
    the stream's last byte reads as zero.  Costs two bytes of memory per
    byte of stream.
    """
    n_bytes = (total_bits + 7) >> 3
    padded = np.zeros((n_bytes + 5) & ~1, dtype=np.uint8)
    padded[:n_bytes] = np.frombuffer(buffer, dtype=np.uint8, count=n_bytes, offset=offset)
    halves = padded.view(">u2")
    words = halves[:-1].astype(np.uint32)
    words <<= 16
    words |= halves[1:]
    return words


def peek16(words: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The 16 bits starting at each bit position, as uint32.

    Positions past the stream clamp to its last word.
    """
    window = np.take(words, positions >> 4, mode="clip")
    window <<= (positions & 15).astype(np.uint32)
    window >>= 16
    return window
