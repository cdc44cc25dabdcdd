"""On-disk serialization of compressed blobs.

A :class:`~repro.compress.base.CompressedBlob` becomes a self-contained
byte string: magic, JSON header (codec, shape, dtype, mode, tolerance,
metadata) and the raw payload.  Everything a decoder needs travels inside
the file, so blobs written by one process decode anywhere.

The wire format is version 2: ``RBLB | u16 version | u32 header_len |
u32 crc32 | header | payload`` where the CRC32 covers ``header +
payload``.  Any bit flip or truncation anywhere after the prelude is
detected on read and surfaced as :class:`~repro.exceptions.IntegrityError`
— corrupted bytes can never silently reach a codec.  Version 1 carried
no CRC and is refused: every v1 blob ever written holds HUF1 entropy
streams, which no decoder reads any more.

Every malformed input raises a typed :class:`CompressionError` (or its
:class:`IntegrityError` subclass); ``struct.error``/``KeyError``/
``IndexError`` never escape this module.
"""

from __future__ import annotations

import json
import os
import struct
import zlib

from ..compress.base import CompressedBlob, ErrorBoundMode
from ..exceptions import CompressionError, IntegrityError

__all__ = [
    "blob_to_bytes",
    "blob_from_bytes",
    "append_jsonl",
    "atomic_write_bytes",
    "atomic_write_json",
    "read_jsonl_records",
]

_MAGIC = b"RBLB"
_VERSION = 2
_PRELUDE = struct.Struct("<HII")  # version, header length, crc32(header+payload)

_REQUIRED_HEADER_KEYS = ("codec", "shape", "dtype", "mode", "tolerance")


def _jsonable_metadata(metadata: dict) -> dict:
    """Keep only JSON-representable metadata entries."""
    out = {}
    for key, value in metadata.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        elif isinstance(value, tuple) and all(isinstance(v, int) for v in value):
            out[key] = list(value)
    return out


def blob_to_bytes(blob: CompressedBlob) -> bytes:
    """Serialize a blob into a self-contained v2 byte string.

    A CRC32 over header+payload lets readers detect corruption.
    """
    header = {
        "codec": blob.codec,
        "shape": list(blob.shape),
        "dtype": blob.dtype,
        "mode": blob.mode.value,
        "tolerance": blob.tolerance,
        "metadata": _jsonable_metadata(blob.metadata),
    }
    header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
    crc = zlib.crc32(blob.payload, zlib.crc32(header_bytes))
    prelude = _PRELUDE.pack(_VERSION, len(header_bytes), crc)
    return _MAGIC + prelude + header_bytes + blob.payload


# -- atomic whole-file writes (manifests, checkpoints) ----------------------


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + fsync + rename).

    A reader never observes a half-written file: it sees either the old
    content or the new, which is what checkpoint manifests and store
    entries rely on when a run is killed mid-write.  A failed write,
    sync or rename leaves ``path`` untouched and removes the temp file.
    """
    directory = os.path.dirname(os.path.abspath(path))
    tmp_path = os.path.join(directory, f".{os.path.basename(path)}.tmp.{os.getpid()}")
    fd = os.open(tmp_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        finally:
            raise


def atomic_write_json(path: str, payload: dict, default=None) -> None:
    """Atomically write ``payload`` as pretty-printed JSON."""
    text = json.dumps(payload, indent=2, sort_keys=True, default=default) + "\n"
    atomic_write_bytes(path, text.encode("utf-8"))


# -- append-only JSONL (checkpoint journal, audit registry) -------------------

#: ends a torn line before the next record: ``json.dumps`` escapes every
#: control character, so no record it wrote contains a raw NUL
_TORN = "\x00"


def append_jsonl(path: str, payload: dict, default=None) -> int:
    """Append one JSON object to ``path`` as a single atomic write.

    The record is serialized first, then written with one ``os.write`` on
    an ``O_APPEND`` descriptor: concurrent appenders (parallel chunked
    execution auditing per chunk) interleave whole lines, never bytes,
    and a crashed writer can at worst lose its own line.  Every writer
    appends whole lines, so a file that does not end in a newline ends in
    a torn append: the record then first ends that line with ``_TORN``,
    which :func:`read_jsonl_records` skips wherever it sits.  ``default``
    is the ``json.dumps`` fallback converter for non-native values.
    Returns the number of bytes written.
    """
    line = (json.dumps(payload, sort_keys=True, default=default) + "\n").encode("utf-8")
    fd = os.open(path, os.O_RDWR | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        size = os.fstat(fd).st_size
        if size and os.pread(fd, 1, size - 1) != b"\n":
            line = f"{_TORN}\n".encode("ascii") + line
        return os.write(fd, line)
    finally:
        os.close(fd)


def read_jsonl_records(path: str) -> list[dict]:
    """Load every well-formed record from an append-only JSONL file.

    Blank lines are skipped, and so are torn appends: a malformed *final*
    line (its writer crashed) and a malformed line a later append ended
    with ``_TORN`` (a line that lost only its newline still loads).  A
    malformed line anywhere else raises :class:`IntegrityError` — that
    indicates real file damage, not an interrupted append.
    """
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        lines = [line.strip() for line in handle]
    lines = [line for line in lines if line]
    records: list[dict] = []
    for index, line in enumerate(lines):
        try:
            records.append(json.loads(line.removesuffix(_TORN)))
        except ValueError as exc:
            if index == len(lines) - 1 or line.endswith(_TORN):
                continue  # torn append: recoverable by design
            raise IntegrityError(
                f"corrupt JSONL record at line {index + 1} of {path!r}: {exc}"
            ) from exc
    return records


def _parse_header(raw: bytes) -> dict:
    """Decode and validate the JSON header; typed errors only."""
    try:
        header = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CompressionError(f"corrupt blob header: {exc}") from exc
    if not isinstance(header, dict):
        raise CompressionError("corrupt blob header: not a JSON object")
    missing = [key for key in _REQUIRED_HEADER_KEYS if key not in header]
    if missing:
        raise CompressionError(f"blob header missing required keys {missing}")
    if not isinstance(header["shape"], list) or not all(
        isinstance(v, int) and v >= 0 for v in header["shape"]
    ):
        raise CompressionError(f"blob header has invalid shape {header['shape']!r}")
    try:
        header["mode"] = ErrorBoundMode(header["mode"])
    except ValueError as exc:
        raise CompressionError(f"blob header has unknown mode: {exc}") from exc
    try:
        header["tolerance"] = float(header["tolerance"])
    except (TypeError, ValueError) as exc:
        raise CompressionError(f"blob header has invalid tolerance: {exc}") from exc
    if not isinstance(header.get("codec"), str) or not isinstance(
        header.get("dtype"), str
    ):
        raise CompressionError("blob header codec/dtype must be strings")
    metadata = header.get("metadata", {})
    if not isinstance(metadata, dict):
        raise CompressionError("blob header metadata must be an object")
    header["metadata"] = metadata
    return header


def blob_from_bytes(data: bytes) -> CompressedBlob:
    """Reconstruct a blob from :func:`blob_to_bytes` output.

    The blob is checksum-verified and raises :class:`IntegrityError` on
    any mismatch; a version other than 2 is a :class:`CompressionError`.
    """
    data = bytes(data)
    if len(data) < 4 or data[:4] != _MAGIC:
        raise CompressionError("not a repro blob (bad magic)")
    if len(data) < 4 + 2:
        raise IntegrityError(
            f"truncated blob: {len(data)} bytes is too short for a version field"
        )
    (version,) = struct.unpack_from("<H", data, 4)
    if version != _VERSION:
        raise CompressionError(f"unsupported blob version {version}")
    offset = 4 + _PRELUDE.size
    if len(data) < offset:
        raise IntegrityError(
            f"truncated blob: {len(data)} bytes is too short for a "
            f"v{version} prelude ({offset} bytes)"
        )
    __, header_length, checksum = _PRELUDE.unpack_from(data, 4)
    if offset + header_length > len(data):
        raise IntegrityError(
            f"truncated blob: header claims {header_length} bytes but only "
            f"{len(data) - offset} remain after the prelude"
        )
    header_bytes = data[offset : offset + header_length]
    payload = data[offset + header_length :]
    actual = zlib.crc32(payload, zlib.crc32(header_bytes))
    if actual != checksum:
        raise IntegrityError(
            f"blob checksum mismatch: stored {checksum:#010x}, "
            f"computed {actual:#010x} — data corrupted on disk or in transit"
        )
    header = _parse_header(header_bytes)
    metadata = header["metadata"]
    if "padded_shape" in metadata:
        metadata["padded_shape"] = tuple(metadata["padded_shape"])
    return CompressedBlob(
        codec=header["codec"],
        payload=payload,
        shape=tuple(header["shape"]),
        dtype=header["dtype"],
        mode=header["mode"],
        tolerance=header["tolerance"],
        metadata=metadata,
    )
