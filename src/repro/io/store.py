"""A tiny error-bounded array store with integrity verification.

Models the persistent-storage side of the paper's pipeline (Fig. 1):
simulation output lands on disk compressed under an error contract, and
the analysis stage reads it back, paying decompression instead of raw
bandwidth.  Each array becomes one ``<name>.rblob`` file written
atomically; codecs are resolved from the blob itself on read.

Every read is verified: the v2 wire format carries a CRC32 over
header+payload and decompressed arrays are screened for NaN/Inf.  A
failed check raises its typed error; recovering from it is the
supervised pool's job, not the store's.
"""

from __future__ import annotations

import os

import numpy as np

from ..compress import CompressedBlob, Compressor, ErrorBoundMode, get_compressor
from ..exceptions import CompressionError
from ..obs import get_tracer
from .serialization import atomic_write_bytes, blob_from_bytes, blob_to_bytes

__all__ = ["DatasetStore"]

_SUFFIX = ".rblob"
_FORBIDDEN_FRAGMENTS = ("/", "\\", "..")


class DatasetStore:
    """Directory of compressed arrays with per-array error contracts.

    Parameters
    ----------
    directory:
        Storage root; created if missing.
    """

    def __init__(self, directory: str) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)

    def _path(self, name: str) -> str:
        bad = (
            not name
            or name.startswith(".")
            or any(fragment in name for fragment in _FORBIDDEN_FRAGMENTS)
            or os.sep in name
            or (os.altsep is not None and os.altsep in name)
        )
        if bad:
            raise CompressionError(f"invalid array name {name!r}")
        return os.path.join(self.directory, name + _SUFFIX)

    # -- write -------------------------------------------------------------
    def put(
        self,
        name: str,
        array: np.ndarray,
        tolerance: float,
        mode: ErrorBoundMode = ErrorBoundMode.ABS,
        codec: Compressor | str = "sz",
    ) -> CompressedBlob:
        """Compress and persist ``array`` under the given error contract.

        The file write is atomic (temp file + rename), so a crashed
        writer can never leave a torn blob behind.
        """
        path = self._path(name)  # validate before compressing
        if isinstance(codec, str):
            codec = get_compressor(codec)
        array = np.asarray(array)
        with get_tracer().span(
            "store.put", entry=name, codec=codec.name, tolerance=float(tolerance)
        ) as span:
            blob = codec.compress(array, tolerance, mode)
            atomic_write_bytes(path, blob_to_bytes(blob))
            span.set(compression_ratio=blob.compression_ratio, payload_bytes=blob.nbytes)
        return blob

    # -- read --------------------------------------------------------------
    def get(self, name: str) -> np.ndarray:
        """Load, verify and decompress one array.

        Checksum verification happens in :func:`blob_from_bytes`; the
        reconstruction is screened for NaN/Inf.
        A corrupt entry raises :class:`~repro.exceptions.IntegrityError`,
        a missing one :class:`~repro.exceptions.CompressionError`.
        """
        with get_tracer().span("store.get", entry=name):
            blob = self.get_blob(name)
            return get_compressor(blob.codec).safe_decompress(blob)

    def get_blob(self, name: str) -> CompressedBlob:
        """Load the raw blob without decompressing (checksum-verified)."""
        path = self._path(name)
        if not os.path.exists(path):
            raise CompressionError(f"array {name!r} not found in {self.directory}")
        with open(path, "rb") as handle:
            return blob_from_bytes(handle.read())

    def verify(self, name: str) -> bool:
        """True if the stored entry passes checksum + structural checks."""
        try:
            self.get_blob(name).validate()
            return True
        except CompressionError:
            return False

    # -- management ----------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        return os.path.exists(self._path(name))

    def names(self) -> list[str]:
        """Stored array names, sorted."""
        return sorted(
            entry[: -len(_SUFFIX)]
            for entry in os.listdir(self.directory)
            if entry.endswith(_SUFFIX)
        )

    def delete(self, name: str) -> None:
        path = self._path(name)
        if os.path.exists(path):
            os.unlink(path)

    def stored_bytes(self, name: str) -> int:
        """On-disk size of one entry."""
        return os.path.getsize(self._path(name))

    def summary(self) -> list[tuple[str, str, tuple[int, ...], float, float]]:
        """(name, codec, shape, tolerance, compression ratio) per entry."""
        rows = []
        for name in self.names():
            blob = self.get_blob(name)
            rows.append(
                (name, blob.codec, blob.shape, blob.tolerance, blob.compression_ratio)
            )
        return rows
