"""ResNet builders for 10-class classification.

Two families, both built from :class:`~repro.nn.residual.BasicBlock`:

* :func:`resnet` — CIFAR-style residual networks of depth ``6n + 2``
  (resnet8/14/20/...), the "varying depths" zoo of Figs. 2 and 9.  The
  paper benchmarks torch ResNets at 224x224 on GPUs; on the numpy
  substrate we keep the identical topology at 32x32 inputs, which
  preserves the depth-vs-throughput shape the figures show.
* :func:`resnet18` — the ImageNet-style [2, 2, 2, 2] basic-block network
  the paper trains on EuroSAT, with a 3x3 stem (no max-pool) suited to
  small multispectral tiles and optional parameterized spectral
  normalization.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from ..nn.activations import ReLU
from ..nn.conv import Conv2d, SpectralConv2d
from ..nn.linear import Linear, SpectralLinear
from ..nn.normalization import BatchNorm2d
from ..nn.pooling import GlobalAvgPool2d
from ..nn.residual import BasicBlock
from ..nn.sequential import Sequential

__all__ = ["resnet", "resnet18", "conv_flops", "model_flops"]


def _stage(
    in_channels: int,
    out_channels: int,
    n_blocks: int,
    stride: int,
    rng: np.random.Generator,
    spectral: bool,
    alpha_init: float | None = None,
) -> list[BasicBlock]:
    blocks = [
        BasicBlock(
            in_channels, out_channels, stride=stride, rng=rng, spectral=spectral,
            alpha_init=alpha_init,
        )
    ]
    for __ in range(n_blocks - 1):
        blocks.append(
            BasicBlock(
                out_channels, out_channels, stride=1, rng=rng, spectral=spectral,
                alpha_init=alpha_init,
            )
        )
    return blocks


def resnet(
    depth: int,
    in_channels: int = 3,
    num_classes: int = 10,
    base_width: int = 16,
    rng: np.random.Generator | None = None,
    spectral: bool = False,
) -> Sequential:
    """CIFAR-style ResNet of depth ``6n + 2`` (8, 14, 20, 26, ...).

    Three stages at widths ``base_width * (1, 2, 4)`` with ``n`` basic
    blocks each, global average pooling and a dense classifier.
    """
    if (depth - 2) % 6 != 0 or depth < 8:
        raise ConfigurationError(f"CIFAR ResNet depth must be 6n+2 >= 8, got {depth}")
    n = (depth - 2) // 6
    if rng is None:
        rng = np.random.default_rng(0)
    linear_cls = SpectralLinear if spectral else Linear
    widths = (base_width, base_width * 2, base_width * 4)
    if spectral:
        # PSN replaces batch norm throughout, stem included (as in resnet18)
        layers: list = [
            SpectralConv2d(in_channels, widths[0], 3, stride=1, padding=1, bias=True, rng=rng),
            ReLU(),
        ]
    else:
        layers = [
            Conv2d(in_channels, widths[0], 3, stride=1, padding=1, bias=False, rng=rng),
            BatchNorm2d(widths[0]),
            ReLU(),
        ]
    layers += _stage(widths[0], widths[0], n, 1, rng, spectral)
    layers += _stage(widths[0], widths[1], n, 2, rng, spectral)
    layers += _stage(widths[1], widths[2], n, 2, rng, spectral)
    layers += [GlobalAvgPool2d(), linear_cls(widths[2], num_classes, rng=rng)]
    return Sequential(*layers)


def resnet18(
    in_channels: int = 13,
    num_classes: int = 10,
    base_width: int = 32,
    rng: np.random.Generator | None = None,
    spectral: bool = True,
    alpha_init: float | None = 1.0,
) -> Sequential:
    """ImageNet-topology ResNet18 ([2, 2, 2, 2] basic blocks).

    ``base_width=32`` (instead of torch's 64) keeps numpy training
    tractable; pass 64 for the full-width network.  The paper trains this
    with parameterized spectral normalization on EuroSAT; ``alpha_init``
    starts every PSN conv at a unit Lipschitz budget so the per-block
    gain ``1 + prod sigma`` stays small.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    widths = (base_width, base_width * 2, base_width * 4, base_width * 8)
    if spectral:
        # PSN replaces batch norm throughout (paper Section III-C).
        stem: list = [
            SpectralConv2d(
                in_channels, widths[0], 3, stride=1, padding=1, bias=True, rng=rng,
                alpha_init=alpha_init,
            ),
            ReLU(),
        ]
        head = SpectralLinear(widths[3], num_classes, rng=rng, alpha_init=None)
    else:
        stem = [
            Conv2d(in_channels, widths[0], 3, stride=1, padding=1, bias=False, rng=rng),
            BatchNorm2d(widths[0]),
            ReLU(),
        ]
        head = Linear(widths[3], num_classes, rng=rng)
    layers: list = list(stem)
    layers += _stage(widths[0], widths[0], 2, 1, rng, spectral, alpha_init)
    layers += _stage(widths[0], widths[1], 2, 2, rng, spectral, alpha_init)
    layers += _stage(widths[1], widths[2], 2, 2, rng, spectral, alpha_init)
    layers += _stage(widths[2], widths[3], 2, 2, rng, spectral, alpha_init)
    layers += [GlobalAvgPool2d(), head]
    return Sequential(*layers)


def conv_flops(layer: Conv2d, spatial: tuple[int, int]) -> tuple[int, tuple[int, int]]:
    """Multiply-accumulate FLOPs of one conv and its output spatial size."""
    h, w = spatial
    out_h = (h + 2 * layer.padding - layer.kernel_size) // layer.stride + 1
    out_w = (w + 2 * layer.padding - layer.kernel_size) // layer.stride + 1
    flops = (
        2
        * layer.in_channels
        * layer.kernel_size**2
        * layer.out_channels
        * out_h
        * out_w
    )
    return int(flops), (out_h, out_w)


def model_flops(model, input_shape: tuple[int, ...]) -> int:
    """FLOPs per sample via a shape-tracking traversal.

    Supports the containers and leaves used by the builders in this
    package (convs, linears, pooling, residual blocks).
    """
    from ..nn.pooling import AvgPool2d, Flatten, MaxPool2d
    from ..nn.residual import ResidualBlock

    def walk(module, shape) -> tuple[int, tuple[int, ...]]:
        total = 0
        if isinstance(module, Sequential):
            for child in module:
                flops, shape = walk(child, shape)
                total += flops
            return total, shape
        if isinstance(module, ResidualBlock):
            body_flops, out_shape = walk(module.body, shape)
            total += body_flops
            if module.shortcut is not None:
                skip_flops, __ = walk(module.shortcut, shape)
                total += skip_flops
            return total, out_shape
        if isinstance(module, (Conv2d, SpectralConv2d)):
            flops, spatial = conv_flops(module, shape[1:])
            return flops, (module.out_channels,) + spatial
        if isinstance(module, (Linear, SpectralLinear)):
            return 2 * module.in_features * module.out_features, (module.out_features,)
        if isinstance(module, GlobalAvgPool2d):
            return int(np.prod(shape)), (shape[0],)
        if isinstance(module, (MaxPool2d, AvgPool2d)):
            h, w = shape[1:]
            out_h = (h + 2 * module.padding - module.kernel_size) // module.stride + 1
            out_w = (w + 2 * module.padding - module.kernel_size) // module.stride + 1
            return int(np.prod(shape)), (shape[0], out_h, out_w)
        if isinstance(module, Flatten):
            return 0, (int(np.prod(shape)),)
        # activations / batch norm: one op per element
        return int(np.prod(shape)), shape

    total, __ = walk(model, input_shape)
    return total
