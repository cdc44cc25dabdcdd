"""Post-training weight quantization of whole models.

The pipeline of Fig. 1 takes a trained network and, for a chosen numeric
format, stores every weight tensor in that format.  Spectrally-normalized
layers are first *materialized* — their effective weight
``alpha * W / sigma(W)`` becomes a plain dense/conv kernel — so that the
quantized model is an ordinary inference network.

Per-layer mixed precision (a Section IV-D extension) is supported by
passing a format per quantizable layer.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..exceptions import QuantizationError
from ..obs import get_tracer
from ..nn.conv import Conv2d, SpectralConv2d
from ..nn.linear import Linear, SpectralLinear
from ..nn.module import Module
from ..nn.residual import ResidualBlock
from ..nn.sequential import Sequential
from .formats import NumericFormat
from .stepsize import average_step_size

__all__ = ["QuantizedModel", "materialize", "quantizable_layers", "quantize_model"]


def _materialize_leaf(module: Module) -> Module:
    """Clone a module, lowering spectral layers to plain ones.

    Non-spectral containers are deep-copied and their children lowered
    recursively, so custom composites (e.g. U-Net levels) materialize
    correctly too.
    """
    if isinstance(module, SpectralLinear):
        plain = Linear(module.in_features, module.out_features, bias=module.bias is not None)
        plain.weight.data = module.effective_weight().astype(np.float32)
        if module.bias is not None:
            plain.bias.data = module.bias.data.copy()
        return plain
    if isinstance(module, SpectralConv2d):
        plain = Conv2d(
            module.in_channels,
            module.out_channels,
            module.kernel_size,
            stride=module.stride,
            padding=module.padding,
            bias=module.bias is not None,
        )
        plain.set_matricized_weight(module.effective_weight().astype(np.float32))
        if module.bias is not None:
            plain.bias.data = module.bias.data.copy()
        return plain
    clone = copy.deepcopy(module)
    for name in list(clone._modules):
        clone.register_module(name, materialize(clone._modules[name]))
    return clone


def materialize(model: Module) -> Module:
    """Deep copy of ``model`` with every spectral layer lowered to plain.

    The copy shares no state with the original, so quantizing it never
    perturbs the trained network.
    """
    if isinstance(model, Sequential):
        return Sequential(*(materialize(layer) for layer in model))
    if isinstance(model, ResidualBlock):
        clone = ResidualBlock(
            materialize(model.body),
            shortcut=None if model.shortcut is None else materialize(model.shortcut),
            post_activation=(
                None if model.post_activation is None else materialize(model.post_activation)
            ),
        )
        for attr in ("in_channels", "out_channels", "stride"):
            if hasattr(model, attr):
                object.__setattr__(clone, attr, getattr(model, attr))
        return clone
    return _materialize_leaf(model)


def quantizable_layers(model: Module) -> list[tuple[str, Module]]:
    """Weight-bearing leaves in forward order, with qualified names."""
    found: list[tuple[str, Module]] = []

    def visit(module: Module, prefix: str) -> None:
        if isinstance(module, (Linear, SpectralLinear, Conv2d, SpectralConv2d)):
            found.append((prefix.rstrip("."), module))
            return
        for name, child in module._modules.items():
            visit(child, f"{prefix}{name}.")

    visit(model, "")
    return found


@dataclass
class QuantizedModel:
    """A quantized inference network plus its quantization metadata.

    Attributes
    ----------
    model:
        Materialized model with weights stored in the target format(s).
    formats:
        Format applied to each quantizable layer, in forward order.
    step_sizes:
        Table-I average step ``q_l`` per quantizable layer.
    original_bytes / quantized_bytes:
        Weight storage footprint before/after quantization.
    """

    model: Module
    formats: list[NumericFormat]
    step_sizes: list[float]
    layer_names: list[str]
    original_bytes: int
    quantized_bytes: int
    extra: dict = field(default_factory=dict)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.model(x)

    @property
    def compression_of_weights(self) -> float:
        """Weight memory reduction factor (>= 1)."""
        if self.quantized_bytes == 0:
            return float("inf")
        return self.original_bytes / self.quantized_bytes

    def describe(self) -> str:
        lines = ["layer                          format  step q"]
        for name, fmt, q in zip(self.layer_names, self.formats, self.step_sizes):
            lines.append(f"{name:<30} {fmt.name:>6}  {q:.3e}")
        return "\n".join(lines)


def quantize_model(
    model: Module,
    fmt: NumericFormat | Sequence[NumericFormat],
) -> QuantizedModel:
    """Weight-only post-training quantization.

    Parameters
    ----------
    model:
        Trained network (may contain spectral layers; they are
        materialized first).  Left untouched.
    fmt:
        A single format for every layer, or one format per quantizable
        layer in forward order (mixed precision); an ``FP32`` entry
        keeps that layer (a 1x1 projection shortcut, say) unquantized.

    Returns
    -------
    QuantizedModel
        Independent inference model plus step-size metadata for the bound.
    """
    with get_tracer().span("quant.quantize_model") as span:
        quantized = _quantize_model_impl(model, fmt)
        span.set(
            layers=len(quantized.layer_names),
            formats=",".join(sorted({f.name for f in quantized.formats})),
            original_bytes=quantized.original_bytes,
            quantized_bytes=quantized.quantized_bytes,
            step_sizes=[float(step) for step in quantized.step_sizes],
        )
    return quantized


def _quantize_model_impl(
    model: Module,
    fmt: NumericFormat | Sequence[NumericFormat],
) -> QuantizedModel:
    frozen = materialize(model)
    frozen.eval()
    layers = quantizable_layers(frozen)
    if not layers:
        raise QuantizationError("model has no quantizable layers")
    if isinstance(fmt, NumericFormat):
        per_layer = [fmt] * len(layers)
    else:
        per_layer = list(fmt)
        if len(per_layer) != len(layers):
            raise QuantizationError(
                f"got {len(per_layer)} formats for {len(layers)} quantizable layers"
            )

    names: list[str] = []
    formats: list[NumericFormat] = []
    steps: list[float] = []
    original_bytes = 0
    quantized_bytes = 0
    for (name, layer), layer_fmt in zip(layers, per_layer):
        weights = layer.weight.data
        original_bytes += weights.size * 4
        quantized_bytes += int(weights.size * layer_fmt.storage_bits / 8)
        if not layer_fmt.is_identity:
            layer.weight.data = layer_fmt.quantize(weights).astype(np.float32)
        names.append(name)
        formats.append(layer_fmt)
        steps.append(average_step_size(weights, layer_fmt) if not layer_fmt.is_identity else 0.0)

    return QuantizedModel(
        model=frozen,
        formats=formats,
        step_sizes=steps,
        layer_names=names,
        original_bytes=original_bytes,
        quantized_bytes=quantized_bytes,
    )
