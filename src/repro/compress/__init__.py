"""Error-bounded lossy compression substrate (SZ-, ZFP- and MGARD-like).

All codecs honour the :class:`~repro.compress.base.ErrorBoundMode`
contract: the reconstruction error never exceeds the requested tolerance
in the requested norm.  ZFP supports pointwise modes only, matching the
real codec (and the paper's Fig. 8 note).
"""

from .base import CompressedBlob, Compressor, ErrorBoundMode, absolute_tolerance
from .huffman import huffman_decode, huffman_encode
from .metrics import achieved_error, compression_ratio, psnr, verify_tolerance
from .mgard import MGARDCompressor
from .sz import SZCompressor
from .zfp import ZFPCompressor

__all__ = [
    "CompressedBlob",
    "Compressor",
    "ErrorBoundMode",
    "MGARDCompressor",
    "SZCompressor",
    "ZFPCompressor",
    "absolute_tolerance",
    "achieved_error",
    "compression_ratio",
    "get_compressor",
    "huffman_decode",
    "huffman_encode",
    "psnr",
    "verify_tolerance",
]

_COMPRESSORS = {
    "sz": SZCompressor,
    "zfp": ZFPCompressor,
    "mgard": MGARDCompressor,
}


def get_compressor(name: str, **kwargs) -> Compressor:
    """Instantiate a codec by registry name (``sz``, ``zfp``, ``mgard``)."""
    try:
        return _COMPRESSORS[name.lower()](**kwargs)
    except KeyError:
        known = ", ".join(sorted(_COMPRESSORS))
        raise ValueError(f"unknown compressor {name!r}; known: {known}") from None
