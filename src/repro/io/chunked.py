"""Chunked storage of large arrays — the tile pattern of in-situ HPC I/O.

Petabyte-scale simulation output is never compressed as one buffer: it is
tiled so readers can fetch regions of interest and writers stream as data
is produced.  :class:`ChunkedArrayWriter`/:class:`ChunkedArrayReader`
split an array into regular chunks along its leading axis, store each as
an independent error-bounded blob in a :class:`~repro.io.store.DatasetStore`,
and reassemble on read — each chunk individually honours the pointwise
tolerance, so the assembled array does too.

Both directions are serial: ``append`` stores its slab before it
returns and ``read`` loads the chunks one after another in manifest
order: two threads lost on every read and were a toss-up on writes
(docs/PERFORMANCE.md, "Worker pools and chunked execution").
"""

from __future__ import annotations

import json
import os

import numpy as np

from ..compress import Compressor, ErrorBoundMode
from ..exceptions import CompressionError
from .serialization import atomic_write_bytes
from .store import DatasetStore

__all__ = ["ChunkedArrayWriter", "ChunkedArrayReader", "write_chunked", "read_chunked"]

_MANIFEST_SUFFIX = ".manifest.json"


class ChunkedArrayWriter:
    """Stream an array into a store as leading-axis chunks.

    Parameters
    ----------
    store:
        Destination store.
    name:
        Logical array name; chunks become ``<name>.cNNNN`` entries plus a
        JSON manifest.
    tolerance, mode, codec:
        Error contract applied to every chunk.

    ``append`` stores each slab before it returns.  Once one store
    failed the writer is spent: every later ``append`` and ``close``
    raises :class:`~repro.exceptions.CompressionError`, so no manifest
    can describe an array with a slab missing.
    """

    def __init__(
        self,
        store: DatasetStore,
        name: str,
        tolerance: float,
        mode: ErrorBoundMode = ErrorBoundMode.ABS,
        codec: Compressor | str | None = None,
    ) -> None:
        if not mode.is_pointwise:
            raise CompressionError(
                "chunked storage requires a pointwise mode: per-chunk L2 "
                "budgets do not compose into a whole-array L2 budget"
            )
        self.store = store
        self.name = name
        self.tolerance = float(tolerance)
        self.mode = mode
        self.codec = codec
        self._chunks: list[dict] = []
        self._dtype: str | None = None
        self._closed = False
        self._failed: str | None = None  # the entry whose store raised

    def _check_usable(self) -> None:
        if self._failed is not None:
            raise CompressionError(
                f"storing chunk {self._failed!r} failed; the writer writes "
                "no manifest for an array with a slab missing"
            )

    def append(self, chunk: np.ndarray) -> None:
        """Write one chunk (a slab along the final array's leading axis)."""
        if self._closed:
            raise CompressionError("writer already closed")
        self._check_usable()
        chunk = np.asarray(chunk)
        if self._chunks and tuple(chunk.shape[1:]) != tuple(self._chunks[0]["shape"][1:]):
            raise CompressionError(
                f"chunk trailing shape {chunk.shape[1:]} does not match "
                f"{tuple(self._chunks[0]['shape'][1:])}"
            )
        index = len(self._chunks)
        entry = f"{self.name}.c{index:04d}"
        try:
            self.store.put(entry, chunk, self.tolerance, self.mode, codec=self.codec)
        except BaseException:
            self._failed = entry
            raise
        self._chunks.append({"entry": entry, "shape": list(chunk.shape)})
        self._dtype = str(chunk.dtype)

    def close(self) -> None:
        """Finalize: write the manifest of every stored chunk."""
        if self._closed:
            return
        self._check_usable()
        if not self._chunks:
            raise CompressionError("no chunks were written")
        manifest = {
            "name": self.name,
            "dtype": self._dtype,
            "tolerance": self.tolerance,
            "mode": self.mode.value,
            "chunks": self._chunks,
        }
        path = os.path.join(self.store.directory, self.name + _MANIFEST_SUFFIX)
        # atomic: a reader (or a resumed run) never sees a torn manifest
        atomic_write_bytes(path, json.dumps(manifest).encode("utf-8"))
        self._closed = True

    def __enter__(self) -> "ChunkedArrayWriter":
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        if exc_type is None:  # an error exit never writes a manifest
            self.close()


class ChunkedArrayReader:
    """Reassemble (parts of) a chunked array."""

    def __init__(self, store: DatasetStore, name: str) -> None:
        path = os.path.join(store.directory, name + _MANIFEST_SUFFIX)
        if not os.path.exists(path):
            raise CompressionError(f"no chunked array {name!r} in {store.directory}")
        with open(path, encoding="utf-8") as handle:
            self.manifest = json.load(handle)
        self.store = store

    @property
    def n_chunks(self) -> int:
        return len(self.manifest["chunks"])

    @property
    def shape(self) -> tuple[int, ...]:
        chunks = self.manifest["chunks"]
        leading = sum(chunk["shape"][0] for chunk in chunks)
        return (leading,) + tuple(chunks[0]["shape"][1:])

    def read_chunk(self, index: int) -> np.ndarray:
        """Load one chunk by position."""
        if not 0 <= index < self.n_chunks:
            raise CompressionError(f"chunk index {index} out of range")
        return self.store.get(self.manifest["chunks"][index]["entry"])

    def read(self) -> np.ndarray:
        """Load and concatenate every chunk (in manifest order)."""
        return np.concatenate([self.read_chunk(index) for index in range(self.n_chunks)])


def write_chunked(
    store: DatasetStore,
    name: str,
    array: np.ndarray,
    tolerance: float,
    chunk_size: int,
    mode: ErrorBoundMode = ErrorBoundMode.ABS,
    codec: Compressor | str | None = None,
) -> int:
    """Split ``array`` along axis 0 into ``chunk_size`` slabs and store.

    Returns the number of chunks written.
    """
    if chunk_size < 1:
        raise CompressionError("chunk_size must be >= 1")
    with ChunkedArrayWriter(store, name, tolerance, mode, codec) as writer:
        for start in range(0, len(array), chunk_size):
            writer.append(array[start : start + chunk_size])
        n_chunks = len(writer._chunks)
    return n_chunks


def read_chunked(store: DatasetStore, name: str) -> np.ndarray:
    """Load a chunked array written by :func:`write_chunked`."""
    return ChunkedArrayReader(store, name).read()
