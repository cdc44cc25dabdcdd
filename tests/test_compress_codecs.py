"""Tests shared across the SZ/ZFP/MGARD codecs: the error-bound contract."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import (
    ErrorBoundMode,
    MGARDCompressor,
    SZCompressor,
    ZFPCompressor,
    achieved_error,
    compression_ratio,
    get_compressor,
)
from repro.exceptions import CompressionError, ToleranceError

from .oracles.entropy_reference import legacy_layout_reference, stream_offset_reference

_ALL_CODECS = [SZCompressor, ZFPCompressor, MGARDCompressor]


def _codec_instances():
    return [cls() for cls in _ALL_CODECS]


def _smooth(shape, seed=0, noise=1e-4):
    rng = np.random.default_rng(seed)
    axes = np.meshgrid(*[np.linspace(0, 3 * np.pi, s) for s in shape], indexing="ij")
    field = sum(np.sin((i + 1) * axis) for i, axis in enumerate(axes))
    return (field + noise * rng.standard_normal(shape)).astype(np.float64)


@pytest.mark.parametrize("codec", _codec_instances(), ids=lambda c: c.name)
@pytest.mark.parametrize("tolerance", [1e-2, 1e-4, 1e-6])
def test_abs_bound_honoured(codec, tolerance, smooth_field_2d):
    reconstruction, blob = codec.roundtrip(smooth_field_2d, tolerance, ErrorBoundMode.ABS)
    assert achieved_error(smooth_field_2d, reconstruction, ErrorBoundMode.ABS) <= tolerance
    assert reconstruction.shape == smooth_field_2d.shape
    assert reconstruction.dtype == smooth_field_2d.dtype


@pytest.mark.parametrize("codec", _codec_instances(), ids=lambda c: c.name)
@pytest.mark.parametrize("tolerance", [1e-2, 1e-4])
def test_rel_bound_honoured(codec, tolerance, smooth_field_2d):
    reconstruction, __ = codec.roundtrip(smooth_field_2d, tolerance, ErrorBoundMode.REL)
    assert achieved_error(smooth_field_2d, reconstruction, ErrorBoundMode.REL) <= tolerance


@pytest.mark.parametrize(
    "codec", [SZCompressor(), MGARDCompressor()], ids=lambda c: c.name
)
@pytest.mark.parametrize("mode", [ErrorBoundMode.L2_ABS, ErrorBoundMode.L2_REL])
def test_l2_bound_honoured(codec, mode, smooth_field_2d):
    tolerance = 1e-3 if mode is ErrorBoundMode.L2_REL else 1.0
    reconstruction, __ = codec.roundtrip(smooth_field_2d, tolerance, mode)
    assert achieved_error(smooth_field_2d, reconstruction, mode) <= tolerance


def test_zfp_rejects_l2_modes(smooth_field_2d):
    # Paper Fig. 8: "ZFP does not support an L2 norm tolerance."
    codec = ZFPCompressor()
    for mode in (ErrorBoundMode.L2_ABS, ErrorBoundMode.L2_REL):
        with pytest.raises(ToleranceError):
            codec.compress(smooth_field_2d, 1e-3, mode)


@pytest.mark.parametrize("codec", _codec_instances(), ids=lambda c: c.name)
def test_ratio_improves_with_looser_tolerance(codec, smooth_field_2d):
    tight = codec.compress(smooth_field_2d, 1e-5, ErrorBoundMode.REL)
    loose = codec.compress(smooth_field_2d, 1e-2, ErrorBoundMode.REL)
    assert loose.compression_ratio > tight.compression_ratio
    assert loose.compression_ratio > 3.0  # smooth data must compress well


@pytest.mark.parametrize("codec", _codec_instances(), ids=lambda c: c.name)
@pytest.mark.parametrize(
    "shape", [(257,), (64, 48), (13, 24, 24), (5, 7)], ids=str
)
def test_odd_shapes_roundtrip(codec, shape):
    field = _smooth(shape)
    reconstruction, __ = codec.roundtrip(field, 1e-3, ErrorBoundMode.ABS)
    assert reconstruction.shape == shape
    assert np.max(np.abs(reconstruction - field)) <= 1e-3


@pytest.mark.parametrize("codec", _codec_instances(), ids=lambda c: c.name)
def test_float32_input_preserves_dtype_and_bound(codec):
    field = _smooth((96, 96)).astype(np.float32)
    reconstruction, __ = codec.roundtrip(field, 1e-4, ErrorBoundMode.ABS)
    assert reconstruction.dtype == np.float32
    assert np.max(np.abs(reconstruction.astype(np.float64) - field)) <= 1e-4


@pytest.mark.parametrize("codec", _codec_instances(), ids=lambda c: c.name)
def test_lossless_fallback_below_dtype_precision(codec):
    field = _smooth((32, 32)).astype(np.float32)
    blob = codec.compress(field, 1e-12, ErrorBoundMode.ABS)
    assert blob.metadata.get("lossless")
    assert np.array_equal(codec.decompress(blob), field)


@pytest.mark.parametrize("codec", _codec_instances(), ids=lambda c: c.name)
def test_rejects_non_positive_tolerance(codec, smooth_field_2d):
    with pytest.raises(ToleranceError):
        codec.compress(smooth_field_2d, 0.0, ErrorBoundMode.ABS)
    with pytest.raises(ToleranceError):
        codec.compress(smooth_field_2d, -1.0, ErrorBoundMode.ABS)


@pytest.mark.parametrize("codec", _codec_instances(), ids=lambda c: c.name)
def test_rejects_foreign_blob(codec, smooth_field_2d):
    other = SZCompressor() if codec.name != "sz" else ZFPCompressor()
    blob = other.compress(smooth_field_2d, 1e-3, ErrorBoundMode.ABS)
    with pytest.raises(CompressionError):
        codec.decompress(blob)


@given(
    seed=st.integers(0, 2**31 - 1),
    log_tol=st.integers(-6, -1),
    codec_name=st.sampled_from(["sz", "zfp", "mgard"]),
)
@settings(max_examples=30, deadline=None)
def test_property_pointwise_bound_random_fields(seed, log_tol, codec_name):
    """The ABS contract must hold on arbitrary (even rough) data."""
    rng = np.random.default_rng(seed)
    field = rng.standard_normal((40, 40)) * rng.uniform(0.1, 10.0)
    tolerance = 10.0**log_tol
    codec = get_compressor(codec_name)
    reconstruction, __ = codec.roundtrip(field, tolerance, ErrorBoundMode.ABS)
    assert np.max(np.abs(reconstruction - field)) <= tolerance


def test_get_compressor_unknown():
    with pytest.raises(ValueError):
        get_compressor("lz77")


# -- metrics ---------------------------------------------------------------------


def test_achieved_error_modes(smooth_field_2d):
    noisy = smooth_field_2d + 0.01
    assert achieved_error(smooth_field_2d, noisy, ErrorBoundMode.ABS) == pytest.approx(0.01, rel=1e-3)
    rel = achieved_error(smooth_field_2d, noisy, ErrorBoundMode.REL)
    value_range = smooth_field_2d.max() - smooth_field_2d.min()
    assert rel == pytest.approx(0.01 / value_range, rel=1e-3)


def test_compression_ratio_metric(smooth_field_2d):
    codec = SZCompressor()
    blob = codec.compress(smooth_field_2d, 1e-3, ErrorBoundMode.ABS)
    assert compression_ratio(smooth_field_2d, blob) == pytest.approx(
        blob.compression_ratio, rel=1e-6
    )


# -- stored bytes are pinned ----------------------------------------------------


def _integer_walk(seed, shape):
    """A seeded integer random walk scaled by a power of two: the field is
    exact in float32 and has far fewer distinct codes than the alphabet
    cap, so the bytes do not depend on the host's libm or sort kernel."""
    steps = np.random.default_rng(seed).integers(-3, 4, size=shape)
    for axis in range(len(shape)):
        steps = np.cumsum(steps, axis=axis)
    return (steps / 64.0).astype(np.float32)


_PINNED_PAYLOADS = {
    # (seed, shape, tolerance): {codec: (HUF2 payload bytes, blake2b-128 of
    #   the HUF2 payload, HUF4 payload bytes, blake2b-128 of the HUF4
    #   payload, blake2b-128 of the decompressed array)}
    # The last column was recorded with the HUF1 coder before the entropy
    # stage changed format: the reconstructions did not move by a bit.
    # SZ's HUF2 and reconstruction columns were re-pinned when float32
    # fields began to be predicted and quantized in float32 (a smaller
    # guarded bound, other roundings); blobs written before still decode to
    # the bit (tests/test_compress_precision.py).  The HUF4 columns were
    # added when the code table became a nibble a symbol and the lane index
    # a byte a lane; the HUF2 columns are that stream re-laid as before.
    (0, (96, 96), 1 / 32): {
        "sz": (4473, "52ca87269991f70dd3b7e3f7e0f15150", 4270, "0792b621942b8d0dd407b0c21c5db087", "a40d5f3d9718430bbe8c76fb4e95bdf0"),
        "zfp": (7405, "dd7fb169f94f8d253351f3d897ebd457", 6688, "1cb7d8f602f5ab4c6a8572762b03c2c6", "de36d8a1b7c2d6319b9900ffe92d1288"),
        "mgard": (8564, "7e98b74bf4984ba202e86a0d88641f0a", 8140, "96634dd45129314093f66cd85b2bf6f4", "e0f5f169ee552ac06f40279d3ee254a7"),
    },
    (1, (5, 40, 40), 1 / 8): {
        "sz": (2692, "49351940b3b3d3e067e50f20d9037c7a", 2397, "318693f1dbea68d7d1b464c4f8ccb6a4", "27982362b814cd7933de18831d03d1ee"),
        "zfp": (6483, "fb5902db6b1adc1bd206a30737efb63c", 5875, "9bffdd5dc1ceaf54c1d39280c2033277", "7f8852702c9ae1f5f4df702068ad1c0b"),
        "mgard": (7110, "808ff68ba03f2c9501ec64b53597b513", 6631, "26a25629637aee94468d3e4d38b5a105", "012929c511001bcdf0426ae89faa4464"),
    },
    (2, (4096,), 1 / 256): {
        "sz": (3088, "071befc5c10d338a88660ed946998d6c", 2866, "a40474ecef267289edca05274ec6fb4e", "6eff6949c949ca75a11560c5b1882ea4"),
        "zfp": (4369, "ac56270b1c119c9c16541f9dfca26ab2", 3785, "eccc9ff777ea48769281b76c7933d78f", "488cb0a514e158c9c2c0831f62c1d787"),
        "mgard": (4274, "e169681ee01cead4368cddc2b7c1994a", 3873, "481590d9193b70ce366e802231ce1d95", "d9f79c499f0246aa4fca1b05bdfe9772"),
    },
}


def _digest(data: bytes) -> str:
    return hashlib.blake2b(data, digest_size=16).hexdigest()


@pytest.mark.parametrize("codec", _codec_instances(), ids=lambda c: c.name)
@pytest.mark.parametrize("case", list(_PINNED_PAYLOADS), ids=lambda c: f"seed{c[0]}")
def test_payload_bytes_are_pinned(codec, case):
    # A change to the entropy stage that moves a stored byte, or a
    # reconstructed one, fails here, not only in the end-to-end benchmark.
    seed, shape, tolerance = case
    field = _integer_walk(seed, shape)
    blob = codec.compress(field, tolerance, ErrorBoundMode.ABS)
    old_len, old_digest, new_len, digest, recon_digest = _PINNED_PAYLOADS[case][codec.name]
    assert len(blob.payload) == new_len and _digest(blob.payload) == digest
    # the HUF2 payload is the same code bits under the earlier sections,
    # and every HUF4 payload is smaller
    at = stream_offset_reference(codec.name, blob.payload)
    before = blob.payload[:at] + legacy_layout_reference(blob.payload[at:])
    assert (len(before), _digest(before)) == (old_len, old_digest)
    assert new_len < old_len
    recon = codec.decompress(blob)
    assert _digest(recon.tobytes()) == recon_digest
    assert achieved_error(field, recon, ErrorBoundMode.ABS) <= tolerance
