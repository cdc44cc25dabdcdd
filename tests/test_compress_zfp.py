"""ZFP's one-GEMM block transform against the per-block scalar DCT-II."""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import ErrorBoundMode, ZFPCompressor, achieved_error, huffman_decode

from .oracles.zfp_reference import block_coefficients_reference, reconstruct_reference

_HEADER = "<dB"
# the largest extent per rank keeps a case to a few dozen scalar blocks
_MAX_EXTENT = {1: 40, 2: 13, 3: 9, 4: 6}


@st.composite
def _fields(draw):
    ndim = draw(st.integers(1, 4), label="ndim")
    shape = tuple(draw(st.integers(1, _MAX_EXTENT[ndim]), label="shape") for __ in range(ndim))
    if ndim == 4:
        shape = (draw(st.integers(1, 2), label="lead"),) + shape[1:]
    dtype = draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    walk = rng.standard_normal(shape)
    for axis in range(ndim):
        walk = np.cumsum(walk, axis=axis)
    return (walk * draw(st.floats(0.01, 100.0), label="scale")).astype(dtype)


@given(field=_fields(), tolerance=st.sampled_from([1e-1, 1e-2, 1e-3]))
@settings(max_examples=60, deadline=None)
def test_zfp_matches_the_scalar_dct_reference(field, tolerance):
    """Under both pointwise modes, the stored codes are the reference
    coefficients over the step wherever no rounding tie is within reach,
    the reconstruction is the reference inverse of those codes to
    1e-12 max|x| (plus the cast to the field's dtype), and the pointwise
    error stays within the tolerance."""
    codec = ZFPCompressor()
    data = field.astype(np.float64)
    scale = 1e-12 * max(float(np.abs(data).max()), np.finfo(np.float64).tiny)
    block_dims = min(field.ndim, 3)
    reference = block_coefficients_reference(data, block_dims)
    for mode in (ErrorBoundMode.ABS, ErrorBoundMode.REL):
        blob = codec.compress(field, tolerance, mode)
        if blob.metadata.get("lossless"):
            continue  # a flat field in REL mode, or a bound below the dtype's precision
        step, stored_dims = struct.unpack_from(_HEADER, blob.payload, 0)
        assert stored_dims == block_dims
        codes = huffman_decode(blob.payload[struct.calcsize(_HEADER) :])
        codes = codes.reshape(reference.shape)
        ratio = reference / step
        clear = np.abs(np.abs(ratio - np.floor(ratio)) - 0.5) * step > scale
        assert np.array_equal(codes[clear], np.round(ratio[clear]).astype(np.int64)), mode

        restored = codec.decompress(blob)
        assert restored.dtype == field.dtype and restored.shape == field.shape
        expected = reconstruct_reference(codes * step, field.shape, block_dims)
        cast = 0.5 * np.spacing(np.abs(expected).astype(field.dtype)).astype(np.float64)
        assert np.all(np.abs(restored.astype(np.float64) - expected) <= scale + cast), mode
        assert achieved_error(field, restored, mode) <= tolerance, mode
