"""The gather-based convolution the channel-major kernel must agree with.

This is ``repro.nn.functional.im2col`` and ``Conv2d.forward`` as they were
while the patches were gathered through a 6-D ``as_strided`` window view
into ``(N * oh * ow, C * kh * kw)`` rows and multiplied ``cols @ W.T``.
The shipped kernel unfolds channel-major and multiplies ``W @ cols``: the
same products summed in a different order, so tests compare at a
tolerance set by the dtype, not bit for bit.  The forward is also the
"before" side of the conv pair in ``benchmarks/bench_forward.py``.
"""

from __future__ import annotations

import numpy as np


def im2col_reference(
    x: np.ndarray, kernel: tuple[int, int], stride: int, padding: int
) -> tuple[np.ndarray, tuple[int, int]]:
    """``(N, C, H, W)`` to patch rows ``(N * oh * ow, C * kh * kw)``."""
    n, c, h, w = x.shape
    kh, kw = kernel
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (w + 2 * padding - kw) // stride + 1
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    strides = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kh, kw),
        strides=(
            strides[0],
            strides[1],
            strides[2] * stride,
            strides[3] * stride,
            strides[2],
            strides[3],
        ),
        writeable=False,
    )
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(n * out_h * out_w, c * kh * kw)
    return np.ascontiguousarray(cols), (out_h, out_w)


def conv2d_reference(
    x: np.ndarray,
    weight: np.ndarray,
    bias: "np.ndarray | None",
    stride: int,
    padding: int,
) -> np.ndarray:
    """``(N, C, H, W)`` convolved with an ``(O, C, kh, kw)`` kernel."""
    out_channels, _, kh, kw = weight.shape
    cols, (out_h, out_w) = im2col_reference(x, (kh, kw), stride, padding)
    out = cols @ weight.reshape(out_channels, -1).T
    if bias is not None:
        out = out + bias
    return out.reshape(x.shape[0], out_h, out_w, out_channels).transpose(0, 3, 1, 2)


def forward_reference(model, x: np.ndarray) -> np.ndarray:
    """``model(x)`` with every conv leaf run by :func:`conv2d_reference`.

    Walks the module tree the way ``Sequential``/``ResidualBlock`` do;
    a conv contributes the kernel its own forward applies (normalized for
    a spectral conv).  Everything that is not a conv runs its own
    ``forward``.
    """
    from repro.nn.conv import Conv2d
    from repro.nn.residual import ResidualBlock
    from repro.nn.sequential import Sequential

    if isinstance(model, Sequential):
        for layer in model.layers:
            x = forward_reference(layer, x)
        return x
    if isinstance(model, ResidualBlock):
        branch = forward_reference(model.body, x)
        skip = x if model.shortcut is None else forward_reference(model.shortcut, x)
        out = branch + skip
        if model.post_activation is not None:
            out = forward_reference(model.post_activation, out)
        return out
    if isinstance(model, Conv2d):
        kernel = model._forward_weight().reshape(model.weight.data.shape)
        bias = None if model.bias is None else model.bias.data
        return conv2d_reference(x, kernel, bias, model.stride, model.padding)
    return model(x)
