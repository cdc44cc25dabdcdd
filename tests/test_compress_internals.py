"""White-box property tests on the codecs' internal transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.mgard import MGARDCompressor, _lift_forward, _lift_inverse, _plan
from repro.compress.sz import SZCompressor, _predict_both, _refinement_plan, _target_slices
from repro.compress.zfp import ZFPCompressor, _block_join, _block_split, _dct_matrix
from repro.compress import ErrorBoundMode
from repro.exceptions import CompressionError

from .oracles.sz_reference import predict_both_reference


# -- MGARD lifting --------------------------------------------------------------


@given(n=st.integers(2, 33), seed=st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_lifting_is_exactly_invertible_1d(n, seed):
    rng = np.random.default_rng(seed)
    signal = rng.standard_normal(n)
    even = signal[0::2].copy()
    odd = signal[1::2].copy()
    _lift_forward(even, odd, axis=0)
    _lift_inverse(even, odd, axis=0)
    assert np.allclose(even, signal[0::2], atol=1e-12)
    assert np.allclose(odd, signal[1::2], atol=1e-12)


@given(
    shape=st.tuples(st.integers(2, 17), st.integers(2, 17)),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_mgard_full_transform_invertible(shape, seed):
    """forward + inverse with *unquantized* details is the identity."""
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    codec = MGARDCompressor(n_levels=4)
    work, steps = codec._forward(data)
    recon = codec._inverse(work.copy(), shape, steps)
    assert np.allclose(recon, data, atol=1e-10)


def test_mgard_plan_strides_terminate():
    steps = _plan((5, 3), n_levels=8)
    # every step halves one axis's population; the plan must be finite
    # and stop refining axes that ran out of points
    assert len(steps) < 16
    axes = [axis for __, axis, __ in steps]
    assert set(axes) <= {0, 1}


# -- ZFP internals -----------------------------------------------------------------


def test_dct_matrix_is_orthonormal():
    matrix = _dct_matrix()
    assert np.allclose(matrix @ matrix.T, np.eye(4), atol=1e-12)


@given(
    shape=st.tuples(st.integers(1, 13), st.integers(1, 13)),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=40, deadline=None)
def test_block_split_join_roundtrip(shape, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(shape)
    blocks, padded_shape = _block_split(data, block_dims=2)
    assert padded_shape == tuple(size + (-size) % 4 for size in shape)
    restored = _block_join(blocks, shape, block_dims=2)
    assert np.array_equal(restored, data)


def test_block_split_pads_with_edge_values():
    data = np.arange(6.0).reshape(1, 6)
    blocks, padded_shape = _block_split(data, block_dims=2)
    assert padded_shape == (4, 8)
    # bottom rows replicate the single source row
    assert np.array_equal(blocks[0][1], blocks[0][0])


# -- SZ internals --------------------------------------------------------------------


def test_refinement_plan_covers_every_point():
    """Anchors + all refinement targets must partition the grid."""
    shape = (13, 9)
    stride = 8
    covered = np.zeros(shape, dtype=bool)
    covered[tuple(slice(0, size, stride) for size in shape)] = True
    for axis, step in _refinement_plan(shape, stride):
        target, __, __ = _target_slices(shape, axis, step)
        region = covered[target]
        assert not region.any(), "a point was refined twice"
        covered[target] = True
    assert covered.all(), "some points were never coded"


def _assert_predictions_match_gathers(shape, anchor_stride, seed):
    """Every step of the plan, both splines, against the ``np.take`` oracle."""
    recon = np.random.default_rng(seed).standard_normal(shape)
    for axis, stride in _refinement_plan(shape, anchor_stride):
        for want_cubic in (False, True):
            target, linear, cubic = _predict_both(recon, axis, stride, want_cubic)
            expected_linear, expected_cubic = predict_both_reference(
                recon, axis, stride, want_cubic
            )
            assert linear.shape == recon[target].shape
            assert not np.shares_memory(linear, recon)
            assert np.array_equal(linear, expected_linear)
            assert (cubic is None) == (expected_cubic is None)
            if cubic is not None:
                assert np.array_equal(cubic, expected_cubic)
                assert not np.shares_memory(cubic, recon)


@given(
    shape=st.lists(st.integers(1, 21), min_size=1, max_size=3).map(tuple),
    anchor_stride=st.sampled_from([2, 4, 8, 16]),
    seed=st.integers(0, 2**31 - 1),
)
@settings(max_examples=120, deadline=None)
def test_slice_predictor_is_bit_identical_to_gathers(shape, anchor_stride, seed):
    _assert_predictions_match_gathers(shape, anchor_stride, seed)


@pytest.mark.parametrize(
    "shape",
    [(8,), (9,), (10,), (12,), (17,), (3, 8), (5, 7), (9, 16, 16), (13, 24, 24), (1, 1), (2,)],
    ids=str,
)
def test_slice_predictor_boundary_shapes(shape):
    # Even sizes leave the last target without a right neighbour (it copies
    # the left one); 2**k + 1 gives every target both; sizes below a stride
    # have no target at all along that axis.
    _assert_predictions_match_gathers(shape, 8, seed=len(shape))


def test_last_target_without_right_neighbour_copies_the_left_one():
    recon = np.arange(8, dtype=np.float64) ** 2
    target, left, right = _target_slices(recon.shape, 0, 1)
    assert recon[target].size == recon[left].size == recon[right].size + 1
    __, linear, cubic = _predict_both(recon, 0, 1, True)
    assert linear[-1] == recon[6] and cubic[-1] == recon[6]
    assert np.array_equal(linear[:-1], 0.5 * (recon[0:6:2] + recon[2:8:2]))


def test_sz_outlier_path(rng):
    """Residuals too large for 32-bit codes go through the outlier store."""
    data = rng.standard_normal((40, 40))
    data[13, 17] = 1e9  # a spike the interpolator cannot predict
    codec = SZCompressor()
    reconstruction, blob = codec.roundtrip(data, 1e-7, ErrorBoundMode.ABS)
    assert np.abs(reconstruction - data).max() <= 1e-7
    assert reconstruction[13, 17] == pytest.approx(1e9)


# -- failure injection -----------------------------------------------------------------


@pytest.mark.parametrize(
    "codec", [SZCompressor(), ZFPCompressor(), MGARDCompressor()], ids=lambda c: c.name
)
def test_truncated_payload_raises_cleanly(codec, smooth_field_2d):
    blob = codec.compress(smooth_field_2d, 1e-3, ErrorBoundMode.ABS)
    blob.payload = blob.payload[: len(blob.payload) // 2]
    with pytest.raises((CompressionError, ValueError)):
        codec.decompress(blob)


def test_sz_detects_misaligned_stream(smooth_field_2d):
    codec = SZCompressor()
    blob = codec.compress(smooth_field_2d, 1e-3, ErrorBoundMode.ABS)
    blob.shape = (smooth_field_2d.shape[0] // 2, smooth_field_2d.shape[1])
    with pytest.raises((CompressionError, ValueError)):
        codec.decompress(blob)
