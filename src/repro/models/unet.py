"""U-Net surrogates — the paper's Section VI extension.

"Scientific community is increasingly deploying more complex surrogate
models, such as U-Nets ... Adapting our approach to these architectures
requires deriving the corresponding error-flow equations for their unique
components, such as nested residual connections."

This module implements both halves of that sentence for U-Nets:

* :class:`UNet` — a recursive encoder/decoder with skip *concatenations*
  built entirely from this library's conv substrate;
* error-flow support — each :class:`UNetLevel` exposes an
  ``error_flow_spec`` hook consumed by
  :func:`repro.core.graph.extract_spec`.  A concat skip obeys
  ``||Delta [a; b]|| <= ||Delta a|| + ||Delta b||``, so it maps onto the
  residual-join algebra the bound already knows, with the x2 L2 gain of
  nearest-neighbour upsampling folded into the inner branch.
"""

from __future__ import annotations

import numpy as np

from ..nn.activations import Identity, ReLU
from ..nn.conv import Conv2d, SpectralConv2d
from ..nn.module import Module
from ..nn.pooling import AvgPool2d
from ..nn.sequential import Sequential
from ..nn.upsample import ConcatChannels, Upsample2d

__all__ = ["UNetLevel", "UNet", "unet"]


def _conv(
    c_in: int, c_out: int, spectral: bool, rng, alpha_init: float | None
) -> Module:
    if spectral:
        return SpectralConv2d(
            c_in, c_out, 3, padding=1, bias=True, rng=rng, alpha_init=alpha_init
        )
    return Conv2d(c_in, c_out, 3, padding=1, bias=True, rng=rng)


class UNetLevel(Module):
    """One encoder/decoder level: down-conv, inner recursion, fuse-conv.

    ``forward``: ``d = down(x); u = up(inner(pool(d))); fuse([d; u])``.
    The skip carries ``d`` unchanged — the nested residual connection of
    Section VI.
    """

    def __init__(
        self,
        in_channels: int,
        channels: int,
        inner: Module,
        inner_channels: int,
        rng: np.random.Generator,
        spectral: bool,
        alpha_init: float | None,
    ) -> None:
        super().__init__()
        self.down = Sequential(
            _conv(in_channels, channels, spectral, rng, alpha_init), ReLU()
        )
        self.pool = AvgPool2d(2)
        self.inner = inner
        self.upsample = Upsample2d(2)
        self.fuse = Sequential(
            _conv(channels + inner_channels, channels, spectral, rng, alpha_init),
            ReLU(),
        )
        self.concat = ConcatChannels()
        self.out_channels = channels

    def forward(self, x: np.ndarray) -> np.ndarray:
        skip = self.down(x)
        inner_out = self.inner(self.pool(skip))
        upsampled = self.upsample(inner_out)
        return self.fuse(self.concat(skip, upsampled))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_concat = self.fuse.backward(grad_output)
        grad_skip_direct, grad_up = self.concat.backward(grad_concat)
        grad_inner = self.upsample.backward(grad_up)
        grad_pooled = self.inner.backward(grad_inner)
        grad_skip_pool = self.pool.backward(grad_pooled)
        return self.down.backward(grad_skip_direct + grad_skip_pool)

    # -- error-flow extension hook (consumed by repro.core.graph) ---------
    def error_flow_spec(self, extract_chain, prefix: str):
        """Spec for the bound: down -> concat-join(inner path) -> fuse,
        the order in which :meth:`forward` applies the convs.

        The concat join is additive in L2 (like a residual with identity
        shortcut); the inner branch carries the pool (1-Lipschitz) and
        the x2 upsample gain.
        """
        from ..core.graph import ChainSpec, ResidualSpec

        down = extract_chain(self.down, f"{prefix}.down.")
        if isinstance(self.inner, UNetLevel):
            inner_items = [self.inner.error_flow_spec(extract_chain, f"{prefix}.inner")]
        else:
            inner_items = extract_chain(self.inner, f"{prefix}.inner.").items
        inner_chain = ChainSpec(items=inner_items)
        # fold the upsample's L2 gain into the last linear of the branch
        branch_linears = inner_chain.linear_specs()
        if branch_linears:
            branch_linears[-1].lipschitz_after *= self.upsample.l2_gain
        join = ResidualSpec(body=inner_chain, shortcut=None)
        fuse = extract_chain(self.fuse, f"{prefix}.fuse.")
        return ChainSpec(items=down.items + [join] + fuse.items)


class UNet(Sequential):
    """Recursive U-Net ending in a 1x1 projection head."""


def unet(
    in_channels: int = 1,
    out_channels: int = 1,
    base_width: int = 8,
    depth: int = 2,
    rng: np.random.Generator | None = None,
    spectral: bool = True,
    alpha_init: float | None = 1.0,
) -> UNet:
    """Build a U-Net of the given depth.

    Parameters
    ----------
    in_channels, out_channels:
        Input/output channel counts (e.g. 1 -> 1 for field denoising).
    base_width:
        Channels of the outermost level; each inner level doubles it.
    depth:
        Number of encoder/decoder levels (input spatial size must be
        divisible by ``2**depth``).
    spectral:
        Use PSN convolutions so the error-flow bound stays tight.
    """
    if rng is None:
        rng = np.random.default_rng(0)

    def build_level(level: int, c_in: int) -> tuple[Module, int]:
        channels = base_width * 2**level
        if level == depth:
            bottleneck = Sequential(
                _conv(c_in, channels, spectral, rng, alpha_init), ReLU()
            )
            return bottleneck, channels
        inner, inner_channels = build_level(level + 1, channels)
        block = UNetLevel(
            c_in, channels, inner, inner_channels, rng, spectral, alpha_init
        )
        return block, block.out_channels

    body, body_channels = build_level(0, in_channels)
    if spectral:
        head: Module = SpectralConv2d(
            body_channels, out_channels, 1, bias=True, rng=rng, alpha_init=alpha_init
        )
    else:
        head = Conv2d(body_channels, out_channels, 1, bias=True, rng=rng)
    return UNet(body, head, Identity())
