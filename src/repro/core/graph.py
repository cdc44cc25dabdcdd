"""Extraction of the spectral structure a model exposes to the bound.

The error bound of Inequality (3) consumes, per layer: the spectral norm
``sigma_W``, the layer dimensions ``(n_in, n_out)`` and the quantization
step ``q``.  This module walks a trained model and produces a
:class:`NetworkSpec` tree mirroring its structure:

* dense / conv layers (optionally fused with a following batch norm, whose
  inference scale multiplies the effective operator) become
  :class:`LinearSpec` nodes;
* activations contribute their Lipschitz constants;
* residual blocks become :class:`ResidualSpec` nodes carrying the
  shortcut spectral norm ``sigma_s`` of Eq. (1).

Each operator's per-sample input shape comes from one observed forward
of a zero sample (:meth:`~repro.nn.module.Module.observe`).

Spectral norms come from the layer's own ``alpha`` when it is trained with
parameterized spectral normalization (exact by construction) and from
power iteration otherwise.  Power iterations are memoized on weight
content (:func:`repro.perf.cache.cached_spectral_norm`), so repeated
extractions over unchanged weights — planner sweeps, re-built analyzers —
run exactly one iteration pass per layer per weight version.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ConfigurationError
from ..nn.activations import Activation
from ..nn.conv import Conv2d, SpectralConv2d
from ..nn.linear import Linear, SpectralLinear
from ..nn.module import Module
from ..nn.normalization import _BatchNormBase
from ..nn.pooling import AvgPool2d, Flatten, GlobalAvgPool2d, MaxPool2d
from ..nn.residual import ResidualBlock
from ..nn.sequential import Sequential
from ..perf.cache import cached_spectral_norm

__all__ = ["LinearSpec", "ChainSpec", "ResidualSpec", "NetworkSpec", "extract_spec"]

#: the modules the spec charges as linear operators (one LinearSpec each)
LINEAR_OPERATORS = (Linear, SpectralLinear, Conv2d, SpectralConv2d)


@dataclass
class LinearSpec:
    """One linear operator in the error-flow graph.

    ``weights`` is the effective matrix (BN folded) used for quantization
    step sizes; ``n_in`` / ``n_out`` are the effective dimensions entering
    the ``sqrt(n)`` factors (for convs: ``C * k^2`` and ``C_out * k^2``);
    ``in_shape`` is the per-sample shape of the operator's input.
    """

    name: str
    sigma: float
    n_in: int
    n_out: int
    weights: np.ndarray
    lipschitz_after: float = 1.0
    is_conv: bool = False
    in_shape: tuple[int, ...] = ()

    @property
    def out_features(self) -> int:
        return self.weights.shape[0]


@dataclass
class ChainSpec:
    """A sequential composition of spec nodes."""

    items: list = field(default_factory=list)

    def linear_specs(self) -> list[LinearSpec]:
        found: list[LinearSpec] = []
        for item in self.items:
            if isinstance(item, LinearSpec):
                found.append(item)
            else:
                found.extend(item.linear_specs())
        return found


@dataclass
class ResidualSpec:
    """A residual block: ``y = body(x) + shortcut(x)`` (Eq. 1)."""

    body: ChainSpec
    shortcut: ChainSpec | None  # None = identity skip (sigma_s = 1)
    lipschitz_after: float = 1.0

    def linear_specs(self) -> list[LinearSpec]:
        found = self.body.linear_specs()
        if self.shortcut is not None:
            found.extend(self.shortcut.linear_specs())
        return found


@dataclass
class NetworkSpec:
    """Root of the error-flow graph plus the per-sample input shape."""

    chain: ChainSpec
    input_shape: tuple[int, ...]

    @property
    def n_input(self) -> int:
        """Values per input sample, the ``n_0`` of the L-infinity bound."""
        return math.prod(self.input_shape)

    def linear_specs(self) -> list[LinearSpec]:
        return self.chain.linear_specs()

    @property
    def n_layers(self) -> int:
        return len(self.linear_specs())

    @property
    def is_chain(self) -> bool:
        """True when the graph is a pure linear chain (no residual nodes).

        Chains support per-layer bound trajectories
        (:func:`~repro.core.bounds.propagate_chain_trajectory`) and hence
        layerwise auditing; residual graphs only expose the end-to-end
        bound.
        """
        return all(isinstance(item, LinearSpec) for item in self.chain.items)


def _layer_sigma(layer: Module, effective: np.ndarray) -> float:
    alpha = getattr(layer, "spectral_alpha", None)
    if alpha is not None:
        return float(alpha)
    return cached_spectral_norm(effective)


def _linear_spec(layer: Module, name: str, bn_scale: np.ndarray | None) -> LinearSpec:
    effective = np.asarray(layer.effective_weight(), dtype=np.float64)
    if bn_scale is not None:
        effective = effective * bn_scale[:, None]
        sigma = cached_spectral_norm(effective)
    else:
        sigma = _layer_sigma(layer, effective)
    is_conv = isinstance(layer, Conv2d)
    if is_conv:
        k_sq = layer.kernel_size**2
        n_in, n_out = layer.in_channels * k_sq, layer.out_channels * k_sq
    else:
        n_in, n_out = layer.in_features, layer.out_features
    return LinearSpec(
        name=name, sigma=sigma, n_in=n_in, n_out=n_out, weights=effective, is_conv=is_conv
    )


def _extract_chain(model: Sequential, prefix: str) -> ChainSpec:
    chain = ChainSpec()
    layers = list(model)
    index = 0
    while index < len(layers):
        layer = layers[index]
        name = f"{prefix}{index}"
        if isinstance(layer, LINEAR_OPERATORS):
            bn_scale = None
            if index + 1 < len(layers) and isinstance(layers[index + 1], _BatchNormBase):
                bn = layers[index + 1]
                bn_scale = np.asarray(bn.inference_scale(), dtype=np.float64)
                index += 1  # consume the fused batch norm
            chain.items.append(_linear_spec(layer, name, bn_scale))
        elif isinstance(layer, Activation):
            if chain.items and isinstance(chain.items[-1], (LinearSpec, ResidualSpec)):
                chain.items[-1].lipschitz_after *= layer.lipschitz
            # Leading activations are Lipschitz-1 no-ops for the bound
            # unless they exceed 1; fold them into the next linear via a
            # conservative pre-multiplier is unnecessary for C <= 1.
        elif isinstance(layer, ResidualBlock):
            chain.items.append(_extract_block(layer, name))
        elif hasattr(layer, "error_flow_spec"):
            # Extension hook (e.g. U-Net levels): the module supplies its
            # own spec subtree, recursing through _extract_chain.
            node = layer.error_flow_spec(_extract_chain, name)
            if isinstance(node, ChainSpec):
                chain.items.extend(node.items)
            else:
                chain.items.append(node)
        elif isinstance(layer, Sequential):
            nested = _extract_chain(layer, f"{name}.")
            chain.items.extend(nested.items)
        elif isinstance(layer, (MaxPool2d, AvgPool2d, GlobalAvgPool2d, Flatten, _BatchNormBase)):
            # Pooling and flattening are 1-Lipschitz in L2 (max/avg pools
            # do not increase the L2 norm of a perturbation); a standalone
            # batch norm contributes its scale.
            if isinstance(layer, _BatchNormBase):
                scale = float(np.max(np.abs(layer.inference_scale())))
                if chain.items and isinstance(chain.items[-1], (LinearSpec, ResidualSpec)):
                    chain.items[-1].lipschitz_after *= scale
        else:
            raise ConfigurationError(
                f"error-flow extraction does not understand layer {type(layer).__name__}"
            )
        index += 1
    return chain


def _extract_block(block: ResidualBlock, prefix: str) -> ResidualSpec:
    if not isinstance(block.body, Sequential):
        raise ConfigurationError("residual body must be Sequential for extraction")
    body = _extract_chain(block.body, f"{prefix}.body.")
    shortcut = None
    if block.shortcut is not None:
        if not isinstance(block.shortcut, Sequential):
            raise ConfigurationError("residual shortcut must be Sequential for extraction")
        shortcut = _extract_chain(block.shortcut, f"{prefix}.shortcut.")
    lipschitz = 1.0
    if block.post_activation is not None and isinstance(block.post_activation, Activation):
        lipschitz = block.post_activation.lipschitz
    return ResidualSpec(body=body, shortcut=shortcut, lipschitz_after=lipschitz)


def extract_spec(model: Module, input_shape: tuple[int, ...] | None = None) -> NetworkSpec:
    """Build the error-flow graph of a trained model.

    Parameters
    ----------
    model:
        A :class:`Sequential` model built from the layers of
        :mod:`repro.nn` (possibly containing residual blocks).
    input_shape:
        Per-sample input shape, e.g. ``(13, 24, 24)`` for an image.  One
        forward of a zero sample of this shape records every operator's
        ``in_shape``.  Defaults to ``(in_features,)`` when the first
        operator is dense; a conv-first model must pass it
        (:class:`ConfigurationError`), and a shape the model cannot take
        raises :class:`~repro.exceptions.ShapeError`.
    """
    if not isinstance(model, Sequential):
        raise ConfigurationError("extract_spec expects a Sequential model")
    operators = [module for module in model.modules() if isinstance(module, LINEAR_OPERATORS)]
    if not operators:
        raise ConfigurationError("model contains no linear layers")
    if input_shape is None:
        if isinstance(operators[0], Conv2d):
            raise ConfigurationError(
                "extract_spec needs the per-sample input_shape of a conv-first model"
            )
        input_shape = (operators[0].in_features,)
    input_shape = tuple(int(size) for size in input_shape)
    in_shapes: list[tuple[int, ...]] = []
    model.observe(
        np.zeros((1,) + input_shape, dtype=np.float32),
        lambda module, x, output: in_shapes.append(x.shape[1:]),
        operators,
    )
    chain = _extract_chain(model, "")
    specs = chain.linear_specs()
    if len(in_shapes) != len(specs):
        raise ConfigurationError(
            f"the forward applied {len(in_shapes)} linear operators, the spec has {len(specs)}"
        )
    # forward order is the spec's order (residual bodies before shortcuts)
    for spec, shape in zip(specs, in_shapes):
        spec.in_shape = shape
    return NetworkSpec(chain=chain, input_shape=input_shape)
