"""The channel-major conv kernel against the gather-based oracle.

``repro.nn.functional.conv2d`` sums the same products as the oracle in a
different order (``W @ cols`` over a channel-major unfold, not
``cols @ W.T`` over gathered patch rows), so values are compared at a
tolerance fixed by the dtype; ``im2col`` only moves data and must agree
exactly.  The matrix follows the aesara/pytensor conv suites: kernel x
stride x padding x odd/even/sub-kernel extents x dtype x bias.
"""

from __future__ import annotations

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ShapeError, TrainingError
from repro.models import resnet18
from repro.nn import (
    Conv2d,
    CrossEntropyLoss,
    GlobalAvgPool2d,
    Linear,
    Sequential,
    SpectralConv2d,
    SpectralLinear,
    Tanh,
)
from repro.nn import functional
from repro.nn.backend import CompiledForward
from repro.nn.functional import (
    ConvWorkspace,
    col2im,
    conv2d,
    conv_output_size,
    global_avg_pool,
    im2col,
)
from repro.nn.residual import ResidualBlock
from repro.nn.spectral import spectral_norm
from tests.oracles.conv_reference import conv2d_reference, forward_reference, im2col_reference
from tests.test_nn_layers import _numeric_gradient_check, _to_float64

_RTOL = {np.float32: 1e-5, np.float64: 1e-12}

geometry = dict(
    kernel=st.integers(1, 5),
    stride=st.integers(1, 3),
    padding=st.integers(0, 2),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)


def _fits(h, w, kernel, padding):
    return min(h, w) + 2 * padding >= kernel


@given(
    **geometry,
    n=st.integers(1, 3),
    c=st.integers(1, 4),
    o=st.integers(1, 5),
    dtype=st.sampled_from([np.float32, np.float64]),
    bias=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_conv2d_matches_gather_oracle(kernel, stride, padding, h, w, seed, n, c, o, dtype, bias):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w)).astype(dtype)
    weight = rng.standard_normal((o, c, kernel, kernel)).astype(dtype)
    b = rng.standard_normal(o).astype(dtype) if bias else None
    args = (weight.reshape(o, -1), b, (kernel, kernel), stride, padding)
    if not _fits(h, w, kernel, padding):
        with pytest.raises(ShapeError, match="does not fit"):
            conv2d(x, *args)
        return
    expected = conv2d_reference(x, weight, b, stride, padding)
    out, cols = conv2d(x, *args)
    assert out.dtype == expected.dtype and out.shape == expected.shape
    assert cols.shape == (c * kernel * kernel, n * out.shape[2] * out.shape[3])
    rtol = _RTOL[dtype]
    np.testing.assert_allclose(
        out, expected, rtol=rtol, atol=rtol * max(1.0, float(np.abs(expected).max()))
    )
    # the workspace path (the fused kernel's) runs the same matmul on the
    # same operands: equal to the bit, twice over the same buffers
    work = ConvWorkspace()
    for _ in range(2):
        recycled, _ = conv2d(x, *args, work=work, slot=0)
        assert np.array_equal(recycled, out)


@given(**geometry, n=st.integers(1, 3), c=st.integers(1, 3))
@settings(max_examples=100, deadline=None)
def test_im2col_equals_gather_and_col2im_is_its_adjoint(kernel, stride, padding, h, w, seed, n, c):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, c, h, w))
    if not _fits(h, w, kernel, padding):
        with pytest.raises(ShapeError):
            im2col(x, (kernel, kernel), stride, padding)
        return
    cols, out_hw = im2col(x, (kernel, kernel), stride, padding)
    expected, expected_hw = im2col_reference(x, (kernel, kernel), stride, padding)
    assert out_hw == expected_hw == (
        conv_output_size(h, kernel, stride, padding),
        conv_output_size(w, kernel, stride, padding),
    )
    assert np.array_equal(cols, expected)
    # <im2col(x), y> == <x, col2im(y)>
    y = rng.standard_normal(cols.shape)
    folded = col2im(y, x.shape, (kernel, kernel), stride, padding)
    assert folded.shape == x.shape
    assert np.isclose(np.sum(cols * y), np.sum(x * folded), rtol=1e-10, atol=1e-10)


def test_workspace_pad_buffers_are_keyed_by_padding(rng):
    """Same padded shape, different border: 10+2*1 == 8+2*2."""
    work = ConvWorkspace()
    weight = rng.standard_normal((2, 3 * 9)).astype(np.float32)
    wide = rng.standard_normal((1, 3, 10, 10)).astype(np.float32)
    narrow = rng.standard_normal((1, 3, 8, 8)).astype(np.float32)
    for x, padding in ((wide, 1), (narrow, 2), (wide, 1)):
        expected, _ = conv2d(x, weight, None, (3, 3), 1, padding)
        actual, _ = conv2d(x, weight, None, (3, 3), 1, padding, work=work)
        assert np.array_equal(actual, expected)


@pytest.mark.parametrize("layer_cls", [Conv2d, SpectralConv2d])
def test_conv_layers_reject_bad_inputs_from_the_kernel(layer_cls, rng):
    layer = layer_cls(3, 4, 3, rng=rng)
    for shape in ((1, 4, 8, 8), (3, 8, 8), (2, 3, 8, 8, 1), (3,)):
        with pytest.raises(ShapeError, match="conv expects"):
            layer(np.zeros(shape, dtype=np.float32))
    # a kernel larger than the padded input used to reach as_strided with
    # a non-positive extent
    with pytest.raises(ShapeError, match="does not fit"):
        layer_cls(3, 4, 5, padding=1, rng=rng)(np.zeros((1, 3, 2, 6), dtype=np.float32))


def test_global_avg_pool_is_layout_independent(rng):
    x = rng.standard_normal((5, 7, 6, 6)).astype(np.float32)
    channel_major = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).transpose(1, 0, 2, 3)
    assert np.array_equal(x, channel_major) and not channel_major.flags.c_contiguous
    pooled = global_avg_pool(x)
    assert pooled.flags.c_contiguous and pooled.shape == (5, 7)
    assert np.array_equal(pooled, global_avg_pool(channel_major))
    np.testing.assert_allclose(pooled, x.mean(axis=(2, 3)), rtol=1e-5, atol=1e-6)


# -- sigma cache --------------------------------------------------------------


def _reallocate_at(address: int, shape, rng):
    """A fresh random array whose ``id`` is ``address`` (best effort).

    CPython hands a just-freed object's address to the next object of the
    same size; failed candidates are kept alive so it has to try others.
    """
    graveyard = []
    for _ in range(256):
        candidate = np.empty(shape, dtype=np.float32)  # one allocation: no temporary takes the slot
        candidate[...] = rng.standard_normal(shape)
        if id(candidate) == address:
            return candidate
        graveyard.append(candidate)
    return candidate


@pytest.mark.parametrize(
    "make, param",
    [
        (lambda rng: SpectralConv2d(3, 4, 3, rng=rng), "weight"),
        (lambda rng: SpectralLinear(6, 4, rng=rng), "raw_weight"),
    ],
)
def test_eval_sigma_cache_keys_on_version_not_id(make, param, rng):
    """Replace ``.data`` twice: the second array may reuse the id the
    cache was keyed on, and must still be renormalized."""
    layer = make(rng)
    layer.eval()
    parameter = getattr(layer, param)
    shape = parameter.data.shape
    parameter.data = rng.standard_normal(shape).astype(np.float32)
    layer._sigma_and_normalized()
    cached_id = id(parameter.data)
    parameter.data = rng.standard_normal(shape).astype(np.float32)  # frees the cached one
    parameter.data = _reallocate_at(cached_id, shape, rng)
    matrix = parameter.data.reshape(shape[0], -1)
    normalized, sigma = layer._sigma_and_normalized()
    assert np.isclose(sigma, spectral_norm(matrix), rtol=1e-6)
    assert np.allclose(normalized, matrix / sigma)


# -- what a forward retains ---------------------------------------------------


def _small_resnet18(rng):
    return resnet18(in_channels=5, base_width=8, rng=rng)


def test_eval_forward_retains_no_patch_columns(rng):
    """Every eval forward used to pin its im2col matrix on each conv."""
    model = _small_resnet18(rng)
    x = rng.standard_normal((8, 5, 16, 16)).astype(np.float32)
    convs = [m for m in model.modules() if isinstance(m, Conv2d)]
    stem_cols_bytes = 5 * 9 * x.shape[0] * 16 * 16 * x.itemsize

    model.eval()
    model(x)  # sigma caches are allocated once, outside the measurement
    gc.collect()
    tracemalloc.start()
    try:
        out = model(x)
        gc.collect()
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (8, 10)
    assert all(conv._cols is None for conv in convs)
    # what stays is the ReLU masks and the output, well under the
    # smallest conv's columns (the old forward kept all twenty)
    assert retained < stem_cols_bytes, (retained, stem_cols_bytes)

    model.train()
    model(x)
    assert all(conv._cols is not None for conv in convs)


def test_backward_after_eval_forward_is_refused(rng):
    layer = Conv2d(2, 3, 3, padding=1, rng=rng)
    layer.eval()
    out = layer(rng.standard_normal((1, 2, 4, 4)).astype(np.float32))
    with pytest.raises(TrainingError, match="training-mode forward"):
        layer.backward(np.ones_like(out))


def test_training_mode_residual_conv_gradients(rng):
    """Strided, 1x1-projection and residual convs through the shared
    unfold loop and its adjoint, against central differences (Tanh, not
    ReLU: a kink inside the difference stencil is not a gradient error)."""
    block = ResidualBlock(
        Sequential(
            Conv2d(3, 4, 3, stride=2, padding=1, rng=rng), Tanh(), Conv2d(4, 4, 3, padding=1, rng=rng)
        ),
        shortcut=Conv2d(3, 4, 1, stride=2, rng=rng),
        post_activation=Tanh(),
    )
    model = _to_float64(
        Sequential(
            Conv2d(2, 3, 3, padding=1, rng=rng), Tanh(), block, GlobalAvgPool2d(), Linear(4, 3, rng=rng)
        )
    )
    x = rng.standard_normal((4, 2, 7, 7))
    labels = rng.integers(0, 3, size=4)
    _numeric_gradient_check(model, x, CrossEntropyLoss(), labels, rng)


def test_model_forward_matches_gather_oracle(rng):
    """Whole-network round-off: the parent commit's forward vs this one."""
    model = _small_resnet18(rng)
    model.eval()
    x = rng.standard_normal((6, 5, 16, 16)).astype(np.float32)
    expected = forward_reference(model, x)
    actual = model(x)
    assert actual.shape == expected.shape == (6, 10)
    np.testing.assert_allclose(actual, expected, rtol=1e-4, atol=1e-5)


# -- unfold blocks ----------------------------------------------------------------

#: a budget no batch reaches: every unfold is one block
_ONE_BLOCK = 1 << 62
_DEFAULT_BLOCK_BYTES = functional._BLOCK_BYTES


@pytest.mark.parametrize("kernel,stride,padding", [
    (k, s, p) for k in (1, 3) for s in (1, 2) for p in (0, 1)
])
@pytest.mark.parametrize("shape", [(30, 16, 16, 24), (11, 16, 8, 22)])
def test_blocked_conv2d_equals_one_block(kernel, stride, padding, shape, rng, monkeypatch):
    """Blocks of whole images, each multiplied straight into its columns
    of the one output, give the bytes of the batch unfolded at once, with
    and without a workspace: the EuroSAT network's first convs (30 images
    of 16 x 24 x 24, 16 out) and a ragged 22 x 22 one with 8 out, batches
    that cross the default budget under a 3x3 stride-1 kernel.  float32,
    the dtype of every workload model, at budgets of 0.5 to 2 MiB;
    float64 bit for bit at the default budget only, because below it
    OpenBLAS's dgemm rounded the ragged last columns of some blocks by
    other code than in the one product."""
    n, c, o, size = shape
    for dtype, budgets in (
        (np.float32, (1 << 19, 1 << 20, _DEFAULT_BLOCK_BYTES, 1 << 21)),
        (np.float64, (_DEFAULT_BLOCK_BYTES,)),
    ):
        x = rng.standard_normal((n, c, size, size)).astype(dtype)
        weight = rng.standard_normal((o, c * kernel * kernel)).astype(dtype)
        bias = rng.standard_normal(o).astype(dtype)
        args = (weight, bias, (kernel, kernel), stride, padding)
        one_block, all_cols = conv2d(x, *args, whole=True)
        assert all_cols.shape == (c * kernel**2, n * one_block.shape[2] * one_block.shape[3])
        for budget in budgets:
            monkeypatch.setattr(functional, "_BLOCK_BYTES", budget)
            recycled = ConvWorkspace()  # used twice: its buffers are reused
            for work, slot in ((None, None), (recycled, 0), (recycled, 0)):
                out, cols = conv2d(x, *args, work=work, slot=slot)
                assert out.dtype == one_block.dtype and out.tobytes() == one_block.tobytes()
                assert cols is None or cols.tobytes() == all_cols.tobytes()
            if (kernel, stride) == (3, 1):
                assert cols is None  # the batch crossed the budget
        monkeypatch.setattr(functional, "_BLOCK_BYTES", 1 << 19)
        np.testing.assert_allclose(conv2d(x, *args)[0], one_block, rtol=_RTOL[dtype])


def test_fused_and_interpreted_resnet_equal_the_one_block_forward(rng, monkeypatch):
    """The EuroSAT QoI network's shape, whose first convs cross the
    budget: both backends at the default budget and at one image per
    block give the one-block forward's bytes."""
    model = resnet18(in_channels=13, base_width=16, rng=rng, spectral=True, alpha_init=0.8)
    model.eval()
    x = rng.uniform(-1, 1, (12, 13, 24, 24)).astype(np.float32)
    monkeypatch.setattr(functional, "_BLOCK_BYTES", _ONE_BLOCK)
    one_block = model(x)
    for budget in (_DEFAULT_BLOCK_BYTES, 1):
        monkeypatch.setattr(functional, "_BLOCK_BYTES", budget)
        forward = CompiledForward(model)
        assert forward(x).tobytes() == one_block.tobytes()
        assert forward.last_fallback_reason is None
        assert model(x).tobytes() == one_block.tobytes()


@pytest.mark.parametrize("layer_cls", [Conv2d, SpectralConv2d])
def test_training_forward_unfolds_whole_whatever_the_budget(layer_cls, rng, monkeypatch):
    """A training forward keeps every patch column for its backward, so
    its output and the weight, bias and input gradients do not depend on
    the block budget."""
    x = rng.standard_normal((11, 16, 24, 24)).astype(np.float32)
    grad_out = rng.standard_normal((11, 8, 24, 24)).astype(np.float32)
    runs = []
    for budget in (_ONE_BLOCK, 1):
        monkeypatch.setattr(functional, "_BLOCK_BYTES", budget)
        layer = layer_cls(16, 8, 3, padding=1, rng=np.random.default_rng(0))
        layer.train()
        out = layer(x)
        assert layer._cols.shape == (16 * 9, 11 * 24 * 24)
        grad_input = layer.backward(grad_out)
        params = [p.grad for p in layer.parameters()]
        runs.append([a.tobytes() for a in (out, grad_input, *params)])
    assert runs[0] == runs[1]
