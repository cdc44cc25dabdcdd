"""Array helpers shared by layers and losses, and the channel-major
convolution kernel shared by the conv layers and the fused backend."""

from __future__ import annotations

import math

import numpy as np

from ..exceptions import ShapeError

__all__ = [
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
