"""Codec framework: error-bound modes, compressed blobs, compressor ABC.

The paper uses three error-bounded lossy compressors (SZ, ZFP, MGARD) and
exercises them under both pointwise (L-infinity) and L2 tolerances; ZFP
supports only the pointwise mode (Fig. 8 note).  The framework captures
that as a per-codec ``supported_modes`` set.
"""

from __future__ import annotations

import math
import mmap
import struct
import threading
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ..exceptions import CompressionError, IntegrityError, ToleranceError
from ..obs import get_tracer

__all__ = [
    "ErrorBoundMode",
    "CompressedBlob",
    "Compressor",
    "absolute_tolerance",
    "guarded_pointwise_bound",
    "l2_norm",
]


class CodecScratch:
    """The calling thread's reusable codec buffers, shared by lifetime.

    A slot is one growable byte buffer (it ends up about as large as the
    biggest field's float64 image; slot 5 half that), kept from the second
    request of a size on; what lives in it changes as a call moves through
    its stages, and a stage that consumes an array in place takes the slot
    that array already sits in.  SZ's arrays are in its working dtype *w*
    (float32 for a float32 field, else float64):

    ====  ======  ================  ====================  ===============  ==============
    slot  dtype   SZ encode pass    Huffman + bit packer  Huffman decode   SZ decode pass
    ====  ======  ================  ====================  ===============  ==============
    0     w       the field, in w   -                     -                -
    1     w       reconstruction    code bit offsets      lane positions   reconstruction
    2     int64   codes        -->  table rows, then      int32       -->  codes (int32)
                                    word indices          symbols
    3     w       linear | cubic    left-justified code   step-major       linear | cubic
                                    per symbol            symbols
    4     w       both residuals    length per symbol     escape mask      dequantized
    5     w       abs(residual)     new-word mask         -                -
    ====  ======  ================  ====================  ===============  ==============

    The dtype column is SZ's (the entropy stage types its own views); in
    the L2 modes slots 3 and 4 also hold a pass's reconstruction in the
    field's dtype and its error in float64.  ZFP's decode follows the
    Huffman decode with its float64 codes in slot 0, blocks in 1 and the
    padded field in 3.

    Contents are garbage between codec calls.  Nothing a codec returns
    (payload bytes, the reconstruction) may be a view of a slot.  Not
    thread-safe: :func:`codec_scratch` hands every thread its own, and a
    forked child works on its copy of the forking thread's.
    """

    def __init__(self) -> None:
        self._slots = [bytearray()] * 6
        self._asked = [0] * 6  # the largest request, in bytes, each slot has seen

    def take(self, slot: int, shape, dtype=np.float64, start: int = 0) -> np.ndarray:
        """Uninitialised ``shape`` array of ``dtype`` in ``slot``, ``start``
        elements in."""
        offset = start * np.dtype(dtype).itemsize if start else 0
        try:
            return np.ndarray(shape, dtype, self._slots[slot], offset)
        except TypeError:  # the slot is too small
            pass
        stop = offset + math.prod(shape) * np.dtype(dtype).itemsize
        if self._asked[slot] < stop:
            # The first request this large is served fresh, so that a
            # one-off call leaves nothing resident; a slot keeps a buffer
            # from the second on, which is when there is a steady state.
            self._asked[slot] = stop
            return np.empty(shape, dtype=dtype)
        # A view taken earlier keeps the outgrown buffer alive and valid.
        # Anonymous private pages where the platform has them: outside the
        # malloc heap, where a long-lived block would pin every freed block
        # below it, and copy-on-write across a fork.
        if hasattr(mmap, "MAP_PRIVATE"):
            flags = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS
            self._slots[slot] = mmap.mmap(-1, stop, flags=flags)
        else:
            self._slots[slot] = bytearray(stop)
        return np.ndarray(shape, dtype, self._slots[slot], offset)


_thread = threading.local()


def codec_scratch() -> CodecScratch:
    """The calling thread's :class:`CodecScratch`."""
    try:
        return _thread.scratch
    except AttributeError:
        scratch = _thread.scratch = CodecScratch()
        return scratch


class ErrorBoundMode(Enum):
    """How the user tolerance constrains the reconstruction error."""

    ABS = "abs"  # max |x - x~| <= tol
    REL = "rel"  # max |x - x~| <= tol * (max x - min x)
    L2_ABS = "l2_abs"  # ||x - x~||_2 <= tol
    L2_REL = "l2_rel"  # ||x - x~||_2 <= tol * ||x||_2

    @property
    def is_pointwise(self) -> bool:
        return self in (ErrorBoundMode.ABS, ErrorBoundMode.REL)

    @property
    def is_l2(self) -> bool:
        return not self.is_pointwise


def absolute_tolerance(
    data: np.ndarray, tolerance: float, mode: ErrorBoundMode
) -> float:
    """Convert a tolerance in any mode into a *pointwise absolute* bound.

    For L2 modes the returned pointwise bound guarantees the L2 target via
    ``||e||_2 <= sqrt(N) * max|e|``; codecs may instead honour the L2
    budget directly and use this only as a starting point.
    """
    if tolerance <= 0:
        raise ToleranceError(f"tolerance must be positive, got {tolerance}")
    data = np.asarray(data)
    if mode is ErrorBoundMode.ABS:
        return float(tolerance)
    if mode is ErrorBoundMode.REL:
        # in float64: a narrower dtype would round (or wrap) the range
        value_range = float(data.max()) - float(data.min()) if data.size else 0.0
        return float(tolerance) * (value_range if value_range > 0 else 1.0)
    if mode is ErrorBoundMode.L2_ABS:
        return float(tolerance) / np.sqrt(max(data.size, 1))
    if mode is ErrorBoundMode.L2_REL:
        norm = l2_norm(data)
        return float(tolerance) * (norm if norm > 0 else 1.0) / np.sqrt(max(data.size, 1))
    raise ToleranceError(f"unknown mode {mode!r}")


def l2_norm(values: np.ndarray, out: "np.ndarray | None" = None) -> float:
    """``||values||_2`` from numpy's pairwise sum of the float64 squares
    (written to ``out``), not BLAS ``ddot``, which rounds by thread count."""
    return math.sqrt(float(np.add.reduce(np.square(values, out=out, dtype=np.float64).ravel())))


def guarded_pointwise_bound(data: np.ndarray, eb: float) -> float:
    """Shrink a pointwise bound so storage-dtype rounding cannot break it.

    Reconstructions are returned in the input's dtype; the final cast can
    add up to half an ulp at the data's magnitude.  Returns a bound that
    leaves room for that, or a non-positive value when the tolerance is
    below the dtype's own precision (callers then fall back to lossless).
    """
    data = np.asarray(data)
    if data.size == 0:
        return eb
    if not np.issubdtype(data.dtype, np.floating):
        return eb * (1.0 - 1e-9)  # the cast back to an integer dtype adds nothing
    # max|x| from the extrema, in the native dtype: widening them is exact.
    largest = max(abs(float(data.min())), abs(float(data.max())))
    return eb * (1.0 - 1e-9) - 0.5 * float(np.finfo(data.dtype).eps) * largest


@dataclass
class CompressedBlob:
    """A self-describing compressed payload.

    Attributes
    ----------
    codec:
        Name of the producing codec (``sz``/``zfp``/``mgard``).
    payload:
        The compressed bytes.
    shape, dtype:
        Array geometry for reconstruction.
    mode, tolerance:
        The error-bound contract the payload honours.
    metadata:
        Codec-specific reconstruction parameters.
    """

    codec: str
    payload: bytes
    shape: tuple[int, ...]
    dtype: str
    mode: ErrorBoundMode
    tolerance: float
    metadata: dict = field(default_factory=dict)

    @property
    def nbytes(self) -> int:
        return len(self.payload)

    @property
    def original_nbytes(self) -> int:
        return int(np.prod(self.shape)) * np.dtype(self.dtype).itemsize

    @property
    def compression_ratio(self) -> float:
        if self.nbytes == 0:
            return float("inf")
        return self.original_nbytes / self.nbytes

    def validate(self) -> "CompressedBlob":
        """Cheap structural sanity checks; raises a typed error on failure.

        Verifies the dtype parses, the shape is non-negative, and — for
        lossless payloads — that the payload length matches the geometry
        exactly.  Returns the blob so it can be used inline.
        """
        try:
            itemsize = np.dtype(self.dtype).itemsize
        except TypeError as exc:
            raise CompressionError(f"blob has invalid dtype {self.dtype!r}") from exc
        if any((not isinstance(v, (int, np.integer))) or v < 0 for v in self.shape):
            raise CompressionError(f"blob has invalid shape {self.shape!r}")
        if self.metadata.get("lossless"):
            expected = int(np.prod(self.shape)) * itemsize
            if len(self.payload) != expected:
                raise IntegrityError(
                    f"lossless payload is {len(self.payload)} bytes but shape "
                    f"{self.shape} × dtype {self.dtype} requires {expected}"
                )
        return self


class Compressor:
    """Abstract error-bounded lossy compressor.

    Subclasses implement :meth:`_compress` / :meth:`_decompress`; the
    public :meth:`compress` / :meth:`decompress` are template methods
    that add a ``codec.compress``/``codec.decompress`` span around the
    implementation.  With tracing disabled the wrappers delegate
    immediately.
    """

    #: codec registry name
    name: str = "abstract"
    #: error-bound modes this codec honours
    supported_modes: frozenset[ErrorBoundMode] = frozenset()

    def _compress(
        self,
        data: np.ndarray,
        tolerance: float,
        mode: ErrorBoundMode,
    ) -> CompressedBlob:
        """Codec-specific compression; see :meth:`compress`."""
        raise NotImplementedError

    def _decompress(self, blob: CompressedBlob) -> np.ndarray:
        """Codec-specific reconstruction; see :meth:`decompress`."""
        raise NotImplementedError

    def compress(
        self,
        data: np.ndarray,
        tolerance: float,
        mode: ErrorBoundMode = ErrorBoundMode.ABS,
    ) -> CompressedBlob:
        """Compress ``data`` so the reconstruction honours the tolerance."""
        tracer = get_tracer()
        if not tracer.enabled:
            return self._compress(data, tolerance, mode)
        with tracer.span(
            "codec.compress",
            codec=self.name,
            mode=mode.value,
            tolerance=float(tolerance),
        ) as span:
            blob = self._compress(data, tolerance, mode)
            span.set(
                ratio=blob.compression_ratio,
                payload_bytes=blob.nbytes,
                lossless=bool(blob.metadata.get("lossless", False)),
                precision=blob.metadata.get("precision", "float64"),
            )
        return blob

    def decompress(self, blob: CompressedBlob) -> np.ndarray:
        """Reconstruct the array from a blob produced by this codec."""
        tracer = get_tracer()
        if not tracer.enabled:
            return self._decompress(blob)
        with tracer.span(
            "codec.decompress",
            codec=self.name,
            payload_bytes=blob.nbytes,
            lossless=bool(blob.metadata.get("lossless", False)),
            precision=blob.metadata.get("precision", "float64"),
        ):
            return self._decompress(blob)

    def stream_precision(self, dtype) -> str:
        """The arithmetic this codec's streams for a ``dtype`` field are
        computed in (a blob's ``metadata["precision"]``, float64 where it
        is absent); part of a chunked run's identity."""
        return "float64"

    # -- shared helpers --------------------------------------------------
    def _check_mode(self, mode: ErrorBoundMode) -> None:
        if mode not in self.supported_modes:
            supported = ", ".join(sorted(m.value for m in self.supported_modes))
            raise ToleranceError(
                f"codec {self.name!r} does not support mode {mode.value!r} "
                f"(supported: {supported})"
            )

    def _check_blob(self, blob: CompressedBlob) -> None:
        if blob.codec != self.name:
            raise CompressionError(
                f"blob was produced by codec {blob.codec!r}, not {self.name!r}"
            )

    def _lossless_blob(
        self, data: np.ndarray, tolerance: float, mode: ErrorBoundMode
    ) -> CompressedBlob:
        """Raw storage fallback for tolerances below dtype precision."""
        return CompressedBlob(
            codec=self.name,
            payload=np.ascontiguousarray(data).tobytes(),
            shape=data.shape,
            dtype=str(data.dtype),
            mode=mode,
            tolerance=float(tolerance),
            metadata={"lossless": True},
        )

    @staticmethod
    def _decompress_lossless(blob: CompressedBlob) -> np.ndarray:
        blob.validate()
        return np.frombuffer(blob.payload, dtype=blob.dtype).reshape(blob.shape).copy()

    def safe_decompress(self, blob: CompressedBlob, screen: bool = True) -> np.ndarray:
        """Decompress with integrity protection around the raw codec.

        Structural blob validation runs first, codec-internal failures
        (truncated payloads surfacing as ``struct``/``ValueError``/
        ``IndexError``) are converted to :class:`CompressionError`, and
        the reconstruction is optionally screened for NaN/Inf.  This is
        the entry point :class:`~repro.io.store.DatasetStore` and the
        pipeline use on every read.
        """
        from ..resilience.guards import screen_finite

        self._check_blob(blob)
        blob.validate()
        try:
            data = self.decompress(blob)
        except CompressionError:
            raise
        except (ValueError, KeyError, IndexError, TypeError, EOFError, struct.error) as exc:
            raise CompressionError(
                f"codec {self.name!r} failed to decode blob "
                f"(shape {blob.shape}, {blob.nbytes} payload bytes): {exc}"
            ) from exc
        if data.shape != tuple(blob.shape):
            raise IntegrityError(
                f"codec {self.name!r} reconstructed shape {data.shape}, "
                f"blob header promised {tuple(blob.shape)}"
            )
        if screen:
            screen_finite(data, stage="decompress")
        return data

    def roundtrip(
        self,
        data: np.ndarray,
        tolerance: float,
        mode: ErrorBoundMode = ErrorBoundMode.ABS,
    ) -> tuple[np.ndarray, CompressedBlob]:
        """Compress then decompress; returns ``(reconstruction, blob)``."""
        blob = self.compress(data, tolerance, mode)
        return self.decompress(blob), blob
