"""A tiny error-bounded array store with integrity verification.

Models the persistent-storage side of the paper's pipeline (Fig. 1):
simulation output lands on disk compressed under an error contract, and
the analysis stage reads it back, paying decompression instead of raw
bandwidth.  Each array becomes one ``<name>.rblob`` file written
atomically; codecs are resolved from the blob itself on read.

Every read is verified: the v2 wire format carries a CRC32 over
header+payload, decompressed arrays are screened for NaN/Inf, and a
configurable ``on_corruption`` policy decides what happens when
verification fails — ``raise`` the typed error, ``recompress-from-source``
under the original contract, or ``fallback-lossless`` (store the source
uncompressed, trivially inside any tolerance).  Recovery needs a source:
either keep one at :meth:`put` time (``keep_source=True``) or register a
provider with :meth:`attach_source`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..compress import CompressedBlob, Compressor, ErrorBoundMode, get_compressor
from ..exceptions import CompressionError, IntegrityError
from ..obs import get_tracer
from ..resilience.policy import (
    CorruptionPolicy,
    record_recovery,
    record_retry,
    resolve_policy,
)
from .serialization import atomic_write_bytes, blob_from_bytes, blob_to_bytes

__all__ = ["DatasetStore"]

_SUFFIX = ".rblob"
_FORBIDDEN_FRAGMENTS = ("/", "\\", "..")


@dataclass
class _Contract:
    """The compression contract one entry was written under."""

    tolerance: float
    mode: ErrorBoundMode
    codec: str


class DatasetStore:
    """Directory of compressed arrays with per-array error contracts.

    Parameters
    ----------
    directory:
        Storage root; created if missing.
    default_codec:
        Codec used by :meth:`put` when none is given.
    on_corruption:
        Degradation policy applied when a read fails verification:
        ``"raise"`` (default), ``"recompress-from-source"`` or
        ``"fallback-lossless"``.
    max_retries:
        Recovery attempts per read before the original error propagates.
    """

    def __init__(
        self,
        directory: str,
        default_codec: str = "sz",
        on_corruption: "CorruptionPolicy | str" = CorruptionPolicy.RAISE,
        max_retries: int = 2,
    ) -> None:
        self.directory = str(directory)
        os.makedirs(self.directory, exist_ok=True)
        self.default_codec = default_codec
        self.on_corruption = resolve_policy(on_corruption)
        self.max_retries = int(max_retries)
        self._sources: dict[str, Callable[[], np.ndarray]] = {}
        self._contracts: dict[str, _Contract] = {}

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
        codec: Compressor | str | None = None,
        keep_source: bool = False,
    ) -> CompressedBlob:
        """Compress and persist ``array`` under the given error contract.

        The file write is atomic (temp file + rename), so a crashed
        writer can never leave a torn blob behind.  With
        ``keep_source=True`` the store retains the (uncompressed) array
        in memory so recovery policies can repair this entry later.
        """
        path = self._path(name)  # validate before compressing
        if isinstance(codec, str) or codec is None:
            codec = get_compressor(codec or self.default_codec)
        array = np.asarray(array)
        with get_tracer().span(
            "store.put", entry=name, codec=codec.name, tolerance=float(tolerance)
        ) as span:
            blob = codec.compress(array, tolerance, mode)
            atomic_write_bytes(path, blob_to_bytes(blob))
            span.set(compression_ratio=blob.compression_ratio, payload_bytes=blob.nbytes)
        self._contracts[name] = _Contract(float(tolerance), mode, codec.name)
        if keep_source:
            frozen = array.copy()
            frozen.setflags(write=False)
            self._sources[name] = lambda: frozen
        return blob

    def attach_source(self, name: str, provider: Callable[[], np.ndarray]) -> None:
        """Register a zero-argument callable reproducing ``name``'s data.

        Recovery policies call it when the stored blob fails
        verification — e.g. a loader that re-reads simulation output.
        """
        self._path(name)  # validate the name
        self._sources[name] = provider

    # -- read --------------------------------------------------------------
    def get(self, name: str, screen: bool = True) -> np.ndarray:
        """Load, verify and decompress one array.

        Checksum verification happens in :func:`blob_from_bytes`; the
        reconstruction is screened for NaN/Inf unless ``screen=False``.
        On verification failure the configured ``on_corruption`` policy
        runs, bounded by ``max_retries``.
        """
        failure: CompressionError | None = None
        with get_tracer().span("store.get", entry=name, policy=self.on_corruption.value) as span:
            for attempt in range(self.max_retries + 1):
                try:
                    blob = self.get_blob(name)
                    codec = get_compressor(blob.codec)
                    data = codec.safe_decompress(blob, screen=screen)
                    span.set(attempts=attempt + 1, recovered=attempt > 0)
                    if attempt:
                        record_recovery(self.on_corruption, "store")
                    return data
                except IntegrityError as exc:
                    failure = exc
                except CompressionError as exc:
                    if not os.path.exists(self._path(name)):
                        raise  # missing entry: not a corruption event
                    failure = exc
                if self.on_corruption is CorruptionPolicy.RAISE or attempt >= self.max_retries:
                    break
                record_retry("store")
                if not self._repair(name):
                    break
        assert failure is not None
        if self.on_corruption.recovers:
            raise IntegrityError(
                f"array {name!r} failed verification and could not be "
                f"recovered under policy {self.on_corruption.value!r} "
                f"(source attached: {name in self._sources}): {failure}"
            ) from failure
        raise failure

    def _repair(self, name: str) -> bool:
        """Rewrite a corrupt entry from its source; False if impossible."""
        provider = self._sources.get(name)
        contract = self._contracts.get(name)
        if provider is None:
            return False
        if contract is None:
            # Last resort: the on-disk header may still be readable even
            # if the payload is corrupt — recover the contract from it.
            try:
                blob = self.get_blob(name)
                contract = _Contract(blob.tolerance, blob.mode, blob.codec)
            except CompressionError:
                return False
        array = np.asarray(provider())
        codec = get_compressor(contract.codec)
        if self.on_corruption is CorruptionPolicy.FALLBACK_LOSSLESS:
            blob = CompressedBlob(
                codec=contract.codec,
                payload=np.ascontiguousarray(array).tobytes(),
                shape=array.shape,
                dtype=str(array.dtype),
                mode=contract.mode,
                tolerance=contract.tolerance,
                metadata={"lossless": True, "degraded": True},
            )
        else:  # RECOMPRESS
            blob = codec.compress(array, contract.tolerance, contract.mode)
        atomic_write_bytes(self._path(name), blob_to_bytes(blob))
        self._contracts[name] = contract
        return True

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
        self._sources.pop(name, None)
        self._contracts.pop(name, None)

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
