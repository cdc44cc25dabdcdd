"""Array helpers shared by layers and losses, and the kernels the
interpreter modules and the fused backend both call: the element-wise
activations and the channel-major convolution."""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ShapeError

__all__ = [
    "relu",
    "leaky_relu",
    "prelu",
    "tanh",
    "sigmoid",
    "gelu",
    "ACTIVATION_KERNELS",
    "softmax",
    "log_softmax",
    "one_hot",
    "conv_output_size",
    "ConvWorkspace",
    "conv2d",
    "conv2d_input_grad",
    "global_avg_pool",
    "im2col",
    "col2im",
]


# -- element-wise activations ------------------------------------------
#
# One kernel per activation, shared by the interpreter modules and the
# generated fused kernel.  ``x`` is a floating array (0-d and NumPy
# scalars included).  Each kernel returns the bytes and dtype of the reference
# expression in its docstring (tests/oracles/activation_reference.py
# holds them verbatim) under whichever scalar promotion regime is
# active: Python-float constants are weak against a float array in
# legacy and NEP 50 casting alike, so those steps run in place; a step
# involving a numpy scalar is computed fresh and its dtype read back.
# ``out`` — which may be ``x`` itself — receives the result when its
# shape and dtype are the result's; otherwise it is never written and a
# fresh array is returned, so callers use the return value.


def _fits(out: "np.ndarray | None", like: np.ndarray, default=None):
    """``out`` if it has the shape and dtype of ``like``, else ``default``."""
    if out is not None and out.dtype == like.dtype and out.shape == like.shape:
        return out
    return default


def _array(result) -> np.ndarray:
    """A ufunc result as something the next step can write into: for 0-d
    input numpy returns a scalar, which ``out=`` refuses."""
    return result if isinstance(result, np.ndarray) else np.asarray(result)


def relu(x: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """``np.where(x > 0, x, 0.0)`` without the select.

    ``fmax`` drops NaN like the failed comparison does, and adding 0.0
    turns a surviving ``-0.0`` into the ``+0.0`` the reference writes.
    """
    out = _array(np.fmax(x, 0.0, out=_fits(out, x)))
    return np.add(out, 0.0, out=out)


def leaky_relu(x: np.ndarray, slope, out: "np.ndarray | None" = None) -> np.ndarray:
    """``np.where(x > 0, x, slope * x)`` without the select.

    With ``t = slope * x``, rounding is monotone, so for ``0 < slope <= 1``
    ``t <= x`` wherever ``x > 0`` and ``t >= x`` elsewhere: the answer is
    ``max(x, t)``, and ``min(x, t)`` for ``1 < slope < inf``.  ``x`` and
    ``t`` only compare equal with identical bits (a positive slope keeps
    the sign of zero) and a NaN ``x`` gives the same NaN ``t``, so it
    does not matter which operand a tie or a NaN returns.  Slopes that
    are zero or negative (``t`` is the other zero at ``x = ±0``, and
    numpy's strided and SIMD loops break that tie differently), NaN or
    infinite (``0 * inf``) keep the masked copy.  One n-sized temporary
    in every case.
    """
    t = _array(np.multiply(slope, x))
    s = float(t.dtype.type(slope))  # the slope as the multiply saw it
    if 0.0 < s <= 1.0:
        return np.maximum(x, t, out=_fits(out, t, t))
    if 1.0 < s < math.inf:
        return np.minimum(x, t, out=_fits(out, t, t))
    np.copyto(t, x, where=np.greater(x, 0))
    out = _fits(out, t, t)
    if out is not t:
        np.copyto(out, t)
    return out


#: PReLU is the same map; its slope is the learned ``np.float32`` scalar
prelu = leaky_relu


def tanh(x: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """``np.tanh(x)``."""
    return np.tanh(x, out=_fits(out, x))


def sigmoid(x: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """``1.0 / (1.0 + np.exp(-x))`` in one array instead of four."""
    out = _array(np.negative(x, out=_fits(out, x)))
    np.exp(out, out=out)
    np.add(out, 1.0, out=out)
    return np.divide(1.0, out, out=out)


#: constant of the GELU tanh approximation; a float64 *numpy* scalar, so
#: its product with a float32 array is float64 under NEP 50
GELU_C = np.sqrt(2.0 / np.pi)


def gelu(x: np.ndarray, out: "np.ndarray | None" = None) -> np.ndarray:
    """``0.5 * x * (1.0 + np.tanh(GELU_C * (x + 0.044715 * x**3)))``
    in two arrays instead of seven."""
    work = _array(np.power(x, 3))
    np.multiply(work, 0.044715, out=work)
    np.add(x, work, out=work)
    gate = _array(GELU_C * work)
    np.tanh(gate, out=gate)
    np.add(gate, 1.0, out=gate)
    np.multiply(x, 0.5, out=work)
    # gate is at least as wide as x, so it has the result dtype
    return np.multiply(work, gate, out=_fits(out, gate, gate))


#: lowered op kind -> kernel; the kinds with a slope take it second
ACTIVATION_KERNELS = {
    "relu": relu,
    "leaky_relu": leaky_relu,
    "prelu": prelu,
    "tanh": tanh,
    "sigmoid": sigmoid,
    "gelu": gelu,
}


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels ``(N,)`` to one-hot floats ``(N, num_classes)``."""
    labels = np.asarray(labels, dtype=np.int64)
    out = np.zeros((labels.shape[0], num_classes), dtype=np.float32)
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution along one axis."""
    return (size + 2 * padding - kernel) // stride + 1


def _output_hw(
    hw: tuple[int, int], kernel: tuple[int, int], stride: int, padding: int
) -> tuple[int, int]:
    out_h = conv_output_size(hw[0], kernel[0], stride, padding)
    out_w = conv_output_size(hw[1], kernel[1], stride, padding)
    if out_h <= 0 or out_w <= 0:
        raise ShapeError(
            f"kernel {kernel} does not fit the {hw} input padded by {padding}"
        )
    return out_h, out_w


def _taps(kernel: tuple[int, int], stride: int, out_hw: tuple[int, int]):
    """The unfold loop: each kernel tap ``(i, j)`` with the strided window
    of the padded input it reads (forward) or accumulates into (adjoint)."""
    for i in range(kernel[0]):
        rows = slice(i, i + (out_hw[0] - 1) * stride + 1, stride)
        for j in range(kernel[1]):
            yield i, j, rows, slice(j, j + (out_hw[1] - 1) * stride + 1, stride)


def _unfold(
    x: np.ndarray,
    kernel: tuple[int, int],
    stride: int,
    padding: int,
    out_hw: tuple[int, int],
    work: "ConvWorkspace",
) -> np.ndarray:
    """Channel-major ``(C, N, H, W)`` to patches ``(C, kh, kw, N, oh, ow)``.

    One slice copy per kernel tap; every destination ``out[:, i, j]`` is
    ``C`` contiguous runs of ``N * oh * ow`` values.  The pad buffer and
    the result belong to ``work``.
    """
    c, n, h, w = x.shape
    if padding:
        xp = work.padded(x, padding)
        xp[:, :, padding : padding + h, padding : padding + w] = x
        x = xp
    out = work.scratch((c, *kernel, n, *out_hw), x.dtype)
    for i, j, rows, cols in _taps(kernel, stride, out_hw):
        out[:, i, j] = x[:, :, rows, cols]
    return out


def _fold(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Adjoint of :func:`_unfold`: ``(C, kh, kw, N, oh, ow)`` summed
    back into a channel-major ``(C, N, H, W)`` image batch."""
    c, n, h, w = x_shape
    xp = np.zeros((c, n, h + 2 * padding, w + 2 * padding), dtype=cols.dtype)
    for i, j, rows, window in _taps(kernel, stride, cols.shape[4:]):
        xp[:, :, rows, window] += cols[:, i, j]
    return xp[:, :, padding : padding + h, padding : padding + w]


class ConvWorkspace:
    """Reusable buffers for :func:`conv2d` calls on one input shape.

    One flat patch scratch grown to the largest conv, zero-bordered pad
    buffers (the border is written once, the interior on every call) and
    one output buffer per slot.  Not thread-safe: one per thread.  A
    fresh instance just allocates, which is what a call without one does.
    """

    def __init__(self) -> None:
        self._scratch: dict = {}
        self._padded: dict = {}
        self._outputs: dict = {}

    def scratch(self, shape: tuple, dtype: np.dtype) -> np.ndarray:
        size = math.prod(shape)
        flat = self._scratch.get(dtype)
        if flat is None or flat.size < size:
            flat = self._scratch[dtype] = np.empty(size, dtype=dtype)
        return flat[:size].reshape(shape)

    def padded(self, x: np.ndarray, padding: int) -> np.ndarray:
        # padding is part of the key: two convs may share a padded shape
        # with different borders
        key = (x.shape, padding, x.dtype)
        out = self._padded.get(key)
        if out is None:
            h, w = x.shape[2:]
            out = self._padded[key] = np.zeros(
                x.shape[:2] + (h + 2 * padding, w + 2 * padding), dtype=x.dtype
            )
        return out

    def output(self, slot, shape: tuple, dtype: np.dtype) -> np.ndarray:
        out = self._outputs.get(slot)
        if out is None or out.shape != shape or out.dtype != dtype:
            out = self._outputs[slot] = np.empty(shape, dtype=dtype)
        return out


def conv2d(
    x: np.ndarray,
    weight: np.ndarray,
    bias: "np.ndarray | None",
    kernel: tuple[int, int],
    stride: int,
    padding: int,
    work: "ConvWorkspace | None" = None,
    slot=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Channel-major convolution shared by the interpreter and the fused kernel.

    ``x`` is ``(N, C, H, W)`` in any memory layout and ``weight`` the
    matricized kernel ``(O, C * kh * kw)``.  The input is unfolded into
    ``cols`` of shape ``(C * kh * kw, N * oh * ow)`` and the product
    ``weight @ cols`` already *is* the ``(O, N, oh, ow)`` activation, so
    the returned ``(N, O, oh, ow)`` array is a transposed view of
    channel-major memory — which the next conv unfolds without a
    transposing copy.  A 1x1 stride-1 conv multiplies the input as it is.

    With ``work`` the pad buffer and patch scratch are recycled, and with
    a ``slot`` the result too (the caller must consume it before the next
    call with that slot); both paths run the identical ``np.matmul`` on
    identical contiguous operands, so they agree to the bit.

    Returns ``(out, cols)``; ``cols`` is what a backward pass needs and is
    only valid until ``work`` is used again.
    """
    if x.ndim != 4 or x.shape[1] * kernel[0] * kernel[1] != weight.shape[1]:
        raise ShapeError(
            f"conv expects (N, {weight.shape[1] // (kernel[0] * kernel[1])}, H, W); "
            f"got {x.shape}"
        )
    n, c, h, w = x.shape
    out_hw = _output_hw((h, w), kernel, stride, padding)
    x = x.transpose(1, 0, 2, 3)
    if kernel == (1, 1) and stride == 1 and padding == 0:
        cols = x
    else:
        cols = _unfold(x, kernel, stride, padding, out_hw, work or ConvWorkspace())
    cols = cols.reshape(weight.shape[1], -1)
    buffer = None
    if slot is not None:
        shape = (weight.shape[0], cols.shape[1])
        buffer = work.output(slot, shape, np.result_type(weight.dtype, cols.dtype))
    out = np.matmul(weight, cols, out=buffer)
    if bias is not None:
        if np.result_type(out.dtype, bias.dtype) == out.dtype:
            np.add(out, bias[:, None], out=out)
        else:
            out = out + bias[:, None]
    return out.reshape(-1, n, *out_hw).transpose(1, 0, 2, 3), cols


def conv2d_input_grad(
    grad_cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Gradient of :func:`conv2d` wrt its ``(N, C, H, W)`` input from the
    gradient wrt ``cols``."""
    n, c, h, w = x_shape
    out_hw = _output_hw((h, w), kernel, stride, padding)
    cols = grad_cols.reshape(c, *kernel, n, *out_hw)
    return _fold(cols, (c, n, h, w), kernel, stride, padding).transpose(1, 0, 2, 3)


def global_avg_pool(x: np.ndarray) -> np.ndarray:
    """Spatial mean ``(N, C, H, W) -> (N, C)``, a fresh array.

    Each mean is one pairwise reduction over ``H * W`` contiguous values
    of channel-major rows, so the result does not depend on whether ``x``
    arrives NCHW-contiguous or as the channel-major view :func:`conv2d`
    returns (``x.mean(axis=(2, 3))`` picks its reduction order from the
    strides).
    """
    n, c, h, w = x.shape
    rows = np.ascontiguousarray(x.transpose(1, 0, 2, 3)).reshape(c * n, h * w)
    return np.ascontiguousarray(rows.mean(axis=1).reshape(c, n).T)


def im2col(
    x: np.ndarray, kernel: tuple[int, int], stride: int, padding: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """Unfold image batches into convolution patch columns.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.
    kernel:
        ``(kh, kw)`` patch size.
    stride, padding:
        Convolution geometry (symmetric zero padding).

    Returns
    -------
    cols, (out_h, out_w):
        ``cols`` has shape ``(N * out_h * out_w, C * kh * kw)``; each row is
        one receptive-field patch.
    """
    n, c, h, w = x.shape
    out_hw = _output_hw((h, w), kernel, stride, padding)
    cols = _unfold(x.transpose(1, 0, 2, 3), kernel, stride, padding, out_hw, ConvWorkspace())
    return cols.transpose(3, 4, 5, 0, 1, 2).reshape(-1, c * kernel[0] * kernel[1]), out_hw


def col2im(
    cols: np.ndarray,
    x_shape: tuple[int, int, int, int],
    kernel: tuple[int, int],
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold patch columns back into an image batch (adjoint of im2col).

    Overlapping patch contributions are summed, which is exactly the
    gradient of :func:`im2col` with respect to its input.
    """
    return conv2d_input_grad(cols.T, x_shape, kernel, stride, padding)
