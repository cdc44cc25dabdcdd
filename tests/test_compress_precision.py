"""SZ works in the field's precision.

A float32 field is predicted, quantized and reconstructed in float32 and
its blob says ``metadata["precision"] == "float32"``; every other dtype,
and every blob without that key (everything written before the rule),
runs in float64.  These tests hold the two promises that make the change
safe to ship: old blobs and float64 streams do not move by a bit, and the
float32 guard keeps the pointwise bound under float32 rounding.
"""

import base64
import hashlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.compress import ErrorBoundMode, SZCompressor
from repro.compress.base import absolute_tolerance
from repro.compress.sz import _working_precision
from repro.exceptions import CompressionError
from repro.io.serialization import blob_from_bytes, blob_to_bytes

from .oracles.entropy_reference import legacy_layout_reference, stream_offset_reference

_EPS32 = float(np.finfo(np.float32).eps)


def _walk(seed, shape, dtype):
    """A seeded integer random walk over sevenths: every value rounds, and
    the field depends on nothing but integer arithmetic and one division."""
    steps = np.random.default_rng(seed).integers(-3, 4, size=shape)
    for axis in range(len(shape)):
        steps = np.cumsum(steps, axis=axis)
    return (steps / 7.0).astype(dtype)


def _digest(data) -> str:
    return hashlib.blake2b(bytes(data), digest_size=16).hexdigest()


# -- compatibility -----------------------------------------------------------------

#: ``blob_to_bytes(SZCompressor(anchor_stride=4).compress(_walk(25, (4, 6, 9),
#: np.float32), 2e-2))`` as written before streams carried a precision: a
#: float32 field encoded in float64, and the digest of what it decoded to.
_FLOAT64_ERA_BLOB = base64.b64decode(
    "UkJMQgIAoQAAAMtfUTZ7ImNvZGVjIjoic3oiLCJzaGFwZSI6WzQsNiw5XSwiZHR5cGUiOiJmbG9h"
    "dDMyIiwibW9kZSI6ImFicyIsInRvbGVyYW5jZSI6MC4wMiwibWV0YWRhdGEiOnsiYW5jaG9yX3N0"
    "cmlkZSI6NCwiZWIiOjAuMDE5OTk5NTE0NjI3ODY4MTg0LCJpbnRlcnBvbGF0aW9uIjoiZHluYW1p"
    "YyJ9fXzeDLXAepQ/BgAAAAAAAAAGAAAAAAAAAAAAAAAAAMBt2+a/AAAAwG3b9r8AAACgJEnivwAA"
    "AGDbtgXAAAAAIEmSDMBIVUYy0gAAAGgEAAAAAAAAEAAAAgAAAAAAAAYACQAKAA4AFAAAAAAAAAAA"
    "AAAAAAAAAAAA9f/5//z/AAAHAAkA5//y//f//v8CAAQABQALAA4A2f/p/+v/7P/u//D/8f/7/xIA"
    "FwDH/9X/3P/e/+D/4//t//P/9P/6/wYAFgAZAB0Asv/K/9L/2P/d/+L/6v/4//3///8BAAMACgAM"
    "AA0AEAAVABsAIgBZAFYAWQBgAFgAWQBXAGQAUwBIAEoAVABWAFIADAAw09f8AbeFWhYPyxySP2qd"
    "Rsrc2Pjc20aterWLPDvqiyrT2kPdo7HyVZ8jkucaUp+EmXRSvxhy88BuuxSnSXG08XndZtYXPP+/"
    "d+rCtpbNm3yF5Q9QFTec/Y3z4mSGYo4ggLRVxHQCL4wEIi3cgIBh6HS+NPrdGc74SVou58Pm0HS4"
    "JvRUYsJWe4KzCvM="
)
_FLOAT64_ERA_RECON = "ba26bf08d21383b38416f4ea462da331"

#: (interpolation, mode, tolerance) -> (payload bytes, payload digest,
#: reconstruction digest) of ``_walk(64, (9, 40, 40), np.float64)``,
#: recorded before float32 fields changed precision.  The payloads were
#: HUF2 streams: today's are compared with their HUF4 stream re-laid that
#: way (only the code table and lane index moved), and must be smaller.
_FLOAT64_STREAMS = {
    ("linear", ErrorBoundMode.ABS, 1e-3): (15028, "32d6af1eb1979ddce056bb23264a3d8a", "5ed790c8d20c04669f31029aedd24263"),
    ("linear", ErrorBoundMode.L2_REL, 1e-4): (15000, "d249cb13fed66906d22f122137e86a37", "b578fdcb54e9ee7f51f9dfc42fcf399c"),
    ("cubic", ErrorBoundMode.ABS, 1e-3): (23515, "41a08f61321f0e86d11de069368c47a3", "eaffc61735e30f8aeed61b50babbdf08"),
    ("cubic", ErrorBoundMode.L2_REL, 1e-4): (23453, "1de0cdf72be24b2925bc655b029d4a13", "7822d3763da50250bb57adb44b1596d0"),
    ("dynamic", ErrorBoundMode.ABS, 1e-3): (19206, "1863c9700e53b8413dccd6aba93e0b46", "8e18b17dec463934a4c064b5a42cf230"),
    ("dynamic", ErrorBoundMode.L2_REL, 1e-4): (19129, "bbc6e534ae8eb54d7e7dc8d7e52c2be0", "2a457cebe0a44a122c5aef27cf06fdd7"),
}


def test_a_float32_blob_written_before_the_precision_key_decodes_to_the_bit():
    blob = blob_from_bytes(_FLOAT64_ERA_BLOB)
    assert blob.dtype == "float32" and "precision" not in blob.metadata
    restored = SZCompressor().safe_decompress(blob)
    assert restored.dtype == np.float32
    assert _digest(restored.tobytes()) == _FLOAT64_ERA_RECON
    field = _walk(25, (4, 6, 9), np.float32)
    assert np.abs(restored.astype(np.float64) - field).max() <= 2e-2
    # the same field is a float32 stream today, and a different one
    fresh = SZCompressor(anchor_stride=4).compress(field, 2e-2)
    assert fresh.metadata["precision"] == "float32" and fresh.payload != blob.payload


@pytest.mark.parametrize("case", list(_FLOAT64_STREAMS), ids=lambda c: f"{c[0]}-{c[1].value}")
def test_float64_streams_are_the_ones_written_before(case):
    interpolation, mode, tolerance = case
    codec = SZCompressor(interpolation=interpolation)
    blob = codec.compress(_walk(64, (9, 40, 40), np.float64), tolerance, mode)
    assert "precision" not in blob.metadata
    at = stream_offset_reference("sz", blob.payload)
    before = blob.payload[:at] + legacy_layout_reference(blob.payload[at:])
    assert (len(before), _digest(before)) == _FLOAT64_STREAMS[case][:2]
    assert len(blob.payload) < len(before)
    assert _digest(codec.decompress(blob).tobytes()) == _FLOAT64_STREAMS[case][2]


def test_an_unknown_precision_is_refused():
    codec = SZCompressor(anchor_stride=4)
    blob = codec.compress(_walk(3, (6, 10), np.float32), 1e-2)
    expected = codec.decompress(blob)
    for value in ("float16", "bfloat16", "", None, 32, ["float32"]):
        blob.metadata["precision"] = value
        with pytest.raises(CompressionError, match="precision"):
            codec.safe_decompress(blob)
    blob.metadata["precision"] = "float16"
    with pytest.raises(CompressionError, match="precision"):
        codec.safe_decompress(blob_from_bytes(blob_to_bytes(blob)))
    blob.metadata["precision"] = "float32"
    assert np.array_equal(codec.decompress(blob_from_bytes(blob_to_bytes(blob))), expected)


@given(
    seed=st.integers(0, 2**31 - 1),
    where=st.sampled_from(["memory", "wire"]),
    cut=st.booleans(),
    data=st.data(),
)
@settings(max_examples=120, deadline=None)
def test_a_damaged_precision_key_never_decodes_to_another_array(seed, where, cut, data):
    """Single-bit flips and truncations of a float32 blob's ``precision``
    key: in memory every damaged value is refused by name (one bit never
    turns ``float32`` into ``float64``); on the wire the CRC32 refuses the
    blob, whether the key's bytes were flipped or cut out."""
    from repro.exceptions import IntegrityError

    codec = SZCompressor(anchor_stride=4)
    blob = codec.compress(_walk(seed, (6, 10), np.float32), 1e-2)
    if where == "memory":
        value = bytearray(b"float32")
        if cut:
            value = value[: data.draw(st.integers(0, len(value) - 1))]
        else:
            at = data.draw(st.integers(0, len(value) * 8 - 1))
            value[at // 8] ^= 1 << (at % 8)
        blob.metadata["precision"] = value.decode("latin-1")
        with pytest.raises(CompressionError, match="precision"):
            codec.safe_decompress(blob)
        return
    wire = bytearray(blob_to_bytes(blob))
    start = wire.index(b'"precision":"float32"')
    stop = start + len(b'"precision":"float32"')
    if cut:  # drop bytes of the key, keep the rest of the blob
        lo = data.draw(st.integers(start, stop - 1))
        hi = data.draw(st.integers(lo + 1, stop))
        del wire[lo:hi]
    else:
        at = data.draw(st.integers(start * 8, stop * 8 - 1))
        wire[at // 8] ^= 1 << (at % 8)
    with pytest.raises(IntegrityError):
        blob_from_bytes(bytes(wire))


def test_only_a_float32_field_runs_in_float32():
    codec = SZCompressor(anchor_stride=4)
    field = _walk(5, (7, 9), np.float64)
    for dtype in (np.float16, np.float32, np.float64, np.int32):
        data = (field * 7).astype(dtype)
        blob = codec.compress(data, 1.0)
        assert blob.metadata.get("precision", "float64") == codec.stream_precision(dtype)
        assert ("precision" in blob.metadata) == (dtype is np.float32)
        assert np.abs(codec.decompress(blob).astype(np.float64) - data).max() <= 1.0


def test_codec_spans_carry_the_stream_precision():
    codec = SZCompressor(anchor_stride=4)
    with obs.capture() as (tracer, _):
        for dtype in (np.float32, np.float64):
            codec.decompress(codec.compress(_walk(1, (8, 8), dtype), 1e-2))
        spans = tracer.to_dicts()
    seen = [
        (s["name"], s["attributes"]["precision"])
        for s in spans if s["name"] in ("codec.compress", "codec.decompress")
    ]
    assert seen == [
        ("codec.compress", "float32"), ("codec.decompress", "float32"),
        ("codec.compress", "float64"), ("codec.decompress", "float64"),
    ]


# -- soundness of float32 arithmetic -------------------------------------------------


@st.composite
def _float32_fields(draw):
    shape = tuple(draw(st.lists(st.integers(1, 13), min_size=1, max_size=4)))
    assume(int(np.prod(shape)) <= 6000)
    scale = 10.0 ** draw(st.floats(-3.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["smooth", "powers", "offset", "alternating"]))
    if kind == "smooth":
        grids = np.meshgrid(*(np.linspace(0.0, 3.0, n) for n in shape), indexing="ij")
        values = scale * sum(np.sin((k + 1.7) * g + 0.4) for k, g in enumerate(grids))
    elif kind == "powers":  # within a few ulps of a power of two, both sides
        exponents = np.floor(np.log2(scale)) + rng.integers(-2, 1, size=shape)
        nudges = 1.0 + _EPS32 * rng.integers(-3, 4, size=shape)
        values = rng.choice([-1.0, 1.0], size=shape) * 2.0**exponents * nudges
    elif kind == "offset":  # |x| >> eb: small wiggles on a large plateau
        values = scale * (1.0 + 1e-3 * rng.standard_normal(shape))
    else:  # neighbours near +-max|x|: the cubic's worst overshoot
        values = scale * rng.choice([-1.0, 1.0], size=shape) * rng.uniform(0.9, 1.0, size=shape)
    return values.astype(np.float32)


@given(
    data=_float32_fields(),
    ulps=st.floats(0.5, 7.0).map(lambda e: 10.0**e),  # ~3 ulps of max|x| to 1e7
    interpolation=st.sampled_from(["linear", "cubic", "dynamic"]),
    mode=st.sampled_from(list(ErrorBoundMode)),
    anchor_stride=st.sampled_from([2, 4, 8, 64]),
)
@settings(max_examples=250, deadline=None)
def test_float32_arithmetic_keeps_every_contract(data, ulps, interpolation, mode, anchor_stride):
    x = data.astype(np.float64)
    largest = float(np.abs(x).max())
    assume(largest > 0.0)
    pointwise = ulps * _EPS32 * largest  # the tolerance, as a pointwise bound
    value_range = float(x.max() - x.min())
    tolerance = {
        ErrorBoundMode.ABS: pointwise,
        ErrorBoundMode.REL: pointwise / (value_range if value_range > 0 else 1.0),
        ErrorBoundMode.L2_ABS: pointwise * np.sqrt(x.size),
        ErrorBoundMode.L2_REL: pointwise * np.sqrt(x.size) / float(np.linalg.norm(x)),
    }[mode]
    codec = SZCompressor(anchor_stride=anchor_stride, interpolation=interpolation)
    blob = codec.compress(data, tolerance, mode)
    restored = codec.decompress(blob)
    assert restored.dtype == np.float32 and restored.shape == data.shape
    error = restored.astype(np.float64) - x

    guarded = _working_precision(data, absolute_tolerance(data, tolerance, mode))
    if guarded[1] <= 0.0:  # the guard leaves nothing: stored as it is
        assert blob.metadata.get("lossless") and np.array_equal(restored, data)
        return
    assert guarded[0] is np.float32 and blob.metadata["precision"] == "float32"
    if mode.is_pointwise:
        assert np.abs(error).max() <= absolute_tolerance(data, tolerance, mode)
    else:
        budget = tolerance * (float(np.linalg.norm(x)) if mode is ErrorBoundMode.L2_REL else 1.0)
        assert float(np.linalg.norm(error)) <= budget
    # the decoder rebuilt the encoder's float32 reconstruction, bit for bit
    recon = codec._encode_pass(data.copy(), blob.metadata["eb"])[0]
    assert recon.dtype == np.float32 and recon.tobytes() == restored.tobytes()


def test_the_float32_guard_holds_on_sign_flipping_fields():
    """Sign-flipping neighbours near max|x| under a tolerance of 4-40 ulps
    make residuals of up to 2.25 max|x|, where every rounding of the
    quantizer is at its largest.  On these 2000 seeded fields a guard of
    2 eps32 max|x| (about half the derived one) lets 16 reconstructions
    exceed the tolerance, by up to 11 %."""
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(2000):
        n = int(rng.integers(64, 257))
        scale = 2.0 ** rng.uniform(-10, 20)
        data = scale * rng.choice([-1.0, 1.0], n) * rng.uniform(0.9, 1.0, n)
        data = data.astype(np.float32)
        tolerance = rng.uniform(4, 40) * _EPS32 * float(np.abs(data).max())
        codec = SZCompressor(
            anchor_stride=(2, 4, 8)[trial % 3],
            interpolation=("linear", "cubic", "dynamic")[trial // 3 % 3],
        )
        restored = codec.decompress(codec.compress(data, tolerance))
        worst = max(worst, np.abs(restored.astype(np.float64) - data).max() / tolerance)
    assert worst <= 1.0

