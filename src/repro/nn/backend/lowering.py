"""Trace-and-lower linker: flatten a module tree into a linear program.

The interpreted forward pass walks the module tree on every call —
``Sequential.forward`` loops, ``Module.__call__`` checks hooks, every
``Linear.forward`` re-validates shapes and caches its input for a
backward pass inference never runs.  Lowering performs that walk *once*,
producing a :class:`LoweredProgram`: a flat list of primitive ops plus
the constant arrays they apply (weights bound exactly as the reference
layers use them, e.g. the transposed view ``weight.data.T`` of a linear
— never a contiguous copy, which could route BLAS through a different
gemm kernel and change the rounding — or the matricized ``(O, C*kh*kw)``
kernel of a conv).

The fused backend closes its generated kernel over
:func:`constant_bindings` — the deterministic name → array map
(``W3_t``, ``b3``, ``s5`` ...) whose names depend only on traversal
order, as the generated source's do.

The module set the paper's workloads exercise is lowered — the MLPs
and the batch-norm-free (PSN) ResNets: ``Sequential``, ``Linear``,
``SpectralLinear`` (eval mode), ``Conv2d``, ``SpectralConv2d`` (eval
mode), ``GlobalAvgPool2d``, the element-wise activations, ``Flatten``,
``Identity`` and ``ResidualBlock``/``BasicBlock``.  Anything else
(windowed pooling, upsampling, the U-Net levels) raises
:class:`LoweringError` naming the module and the caller falls back to
the interpreted reference path.  Batch norm is deliberately
unsupported: its running statistics mutate without bumping parameter
version counters, so a compiled kernel could silently go stale.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from ...exceptions import LoweringError
from ..activations import (
    GELU,
    Identity,
    LeakyReLU,
    PReLU,
    ReLU,
    Sigmoid,
    Tanh,
)
from ..conv import Conv2d, SpectralConv2d
from ..functional import ACTIVATION_KERNELS, conv2d, global_avg_pool
from ..linear import Linear, SpectralLinear
from ..module import Module
from ..pooling import Flatten, GlobalAvgPool2d
from ..residual import ResidualBlock
from ..sequential import Sequential

__all__ = ["LoweredOp", "LoweredProgram", "lower", "constant_bindings"]

#: runtime support every generated kernel closes over — the kernels the
#: interpreter modules run, not model constants (``_relu``, ``_prelu``, ...)
SUPPORT_BINDINGS = {
    "np": np,
    "_conv": conv2d,
    "_global_avg_pool": global_avg_pool,
    **{f"_{kind}": kernel for kind, kernel in ACTIVATION_KERNELS.items()},
}


@dataclass
class LoweredOp:
    """One primitive of the lowered program.

    ``index`` is the op's position in pre-order traversal; generated
    constant names (``W{index}_t``, ``b{index}``, ``s{index}``) derive
    from it, so source text and constant bindings stay aligned across
    processes.  ``slot`` is the preallocated-buffer slot of a linear op
    (one per linear, in traversal order).  A conv op carries its
    matricized kernel in ``weight``, its channel counts in
    ``width_in``/``width_out`` and ``(kernel_size, stride, padding)`` in
    ``geometry``; its output buffer is keyed by ``index``.
    """

    kind: str
    index: int
    weight_t: "np.ndarray | None" = None
    weight: "np.ndarray | None" = None
    geometry: "tuple[int, int, int] | None" = None
    bias: "np.ndarray | None" = None
    width_in: "int | None" = None
    width_out: "int | None" = None
    slope: object = None
    slot: "int | None" = None
    inplace_bias_ok: bool = False
    body: "list[LoweredOp] | None" = None
    shortcut: "list[LoweredOp] | None" = None
    post: "list[LoweredOp] | None" = None


@dataclass
class LoweredProgram:
    """A flattened model: ops, constants and buffer plan."""

    ops: "list[LoweredOp]"
    slot_widths: "list[int]" = field(default_factory=list)
    weights_dtype: np.dtype = np.dtype(np.float32)
    #: ("2d", width) / ("flat", width) / ("4d", channels) / ("any", None):
    #: cheap per-call input guard replacing the reference layers'
    #: ShapeError checks
    input_spec: tuple = ("any", None)
    #: whether any op runs the conv kernel (the buffer set then carries a
    #: :class:`~repro.nn.functional.ConvWorkspace`)
    has_conv: bool = False

    @property
    def n_linear(self) -> int:
        return len(self.slot_widths)


_ELEMENTWISE = {
    ReLU: "relu",
    Tanh: "tanh",
    Sigmoid: "sigmoid",
    GELU: "gelu",
    Identity: "identity",
}


def _lower_module(module: Module, counter, slots: "list[int]") -> "list[LoweredOp]":
    """Pre-order lowering of one module into primitive ops."""
    if isinstance(module, Sequential):
        ops: "list[LoweredOp]" = []
        for layer in module.layers:
            ops.extend(_lower_module(layer, counter, slots))
        return ops
    index = next(counter)
    kind = _ELEMENTWISE.get(type(module))
    if kind is not None:
        return [LoweredOp(kind=kind, index=index)]
    if isinstance(module, LeakyReLU):
        return [LoweredOp(kind="leaky_relu", index=index, slope=float(module.negative_slope))]
    if isinstance(module, PReLU):
        # bind the np.float32 scalar exactly as the reference reads it
        # (the kernel picks max or min from its value at call time); the
        # slope Parameter is version-tracked, so a learned change
        # invalidates the kernel
        return [LoweredOp(kind="prelu", index=index, slope=module.slope.data[0])]
    if isinstance(module, Flatten):
        return [LoweredOp(kind="flatten", index=index)]
    if isinstance(module, GlobalAvgPool2d):
        return [LoweredOp(kind="global_avg_pool", index=index)]
    if isinstance(module, Conv2d):
        if isinstance(module, SpectralConv2d):
            _require_eval(module)
        return [
            LoweredOp(
                kind="conv",
                index=index,
                # the matrix the reference forward applies (a spectral conv
                # rebuilds it per call), materialized once
                weight=module._forward_weight(),
                bias=None if module.bias is None else module.bias.data,
                width_in=module.in_channels,
                width_out=module.out_channels,
                geometry=(module.kernel_size, module.stride, module.padding),
            )
        ]
    if isinstance(module, Linear):
        weight_t = module.weight.data.T  # transposed VIEW, as the reference multiplies
        bias = None if module.bias is None else module.bias.data
        return [_linear_op(index, weight_t, bias, module.in_features, module.out_features, slots)]
    if isinstance(module, SpectralLinear):
        _require_eval(module)
        normalized, _sigma = module._sigma_and_normalized()
        # exactly the rhs the reference builds per call:
        # x @ (normalized.T * alpha) — materialized once at compile time
        weight_t = normalized.T * module.alpha.data[0]
        bias = None if module.bias is None else module.bias.data
        return [_linear_op(index, weight_t, bias, module.in_features, module.out_features, slots)]
    if isinstance(module, ResidualBlock):
        body = _lower_module(module.body, counter, slots)
        shortcut = (
            None if module.shortcut is None else _lower_module(module.shortcut, counter, slots)
        )
        post = (
            None
            if module.post_activation is None
            else _lower_module(module.post_activation, counter, slots)
        )
        return [LoweredOp(kind="residual", index=index, body=body, shortcut=shortcut, post=post)]
    raise LoweringError(
        f"module {type(module).__name__} has no lowering rule; compiled "
        "backends fall back to the interpreted reference path"
    )


def _require_eval(module: Module) -> None:
    if module.training:
        raise LoweringError(
            f"{type(module).__name__} in training mode uses a power-iteration "
            "sigma estimate that mutates per call; compiled backends "
            "require eval()"
        )


def _linear_op(index, weight_t, bias, width_in, width_out, slots) -> LoweredOp:
    slot = len(slots)
    slots.append(int(width_out))
    inplace_ok = bias is not None and np.result_type(weight_t.dtype, bias.dtype) == weight_t.dtype
    return LoweredOp(
        kind="linear",
        index=index,
        weight_t=weight_t,
        bias=bias,
        width_in=int(width_in),
        width_out=int(width_out),
        slot=slot,
        inplace_bias_ok=inplace_ok,
    )


def _input_spec(ops: "list[LoweredOp]") -> tuple:
    """The cheapest check guaranteeing the kernel sees what it expects."""
    seen_flatten = False
    for op in ops:
        if op.kind == "linear":
            return ("flat" if seen_flatten else "2d", op.width_in)
        if op.kind == "conv":
            return ("4d", op.width_in)
        if op.kind == "global_avg_pool":
            return ("4d", None)
        if op.kind == "flatten":
            seen_flatten = True
            continue
        if op.kind == "residual":
            inner = _input_spec(op.body)
            if inner[0] == "any":
                inner = ("2d", None)
            if seen_flatten and inner[0] == "2d":
                inner = ("flat", inner[1])
            return inner
        # element-wise ops preserve shape: keep scanning
    if seen_flatten:
        return ("flat", None)
    return ("any", None)


def lower(model: Module) -> LoweredProgram:
    """Lower ``model`` into a :class:`LoweredProgram`.

    Raises :class:`~repro.exceptions.LoweringError` on any module without
    a lowering rule (the caller falls back to the reference path).
    """
    counter = itertools.count()
    slots: "list[int]" = []
    ops = _lower_module(model, counter, slots)
    weights = [
        w for op in _iter_ops(ops) for w in (op.weight_t, op.weight) if w is not None
    ]
    weights_dtype = (
        np.result_type(*(w.dtype for w in weights)) if weights else np.dtype(np.float32)
    )
    return LoweredProgram(
        ops=ops,
        slot_widths=slots,
        weights_dtype=np.dtype(weights_dtype),
        input_spec=_input_spec(ops),
        has_conv=any(op.kind == "conv" for op in _iter_ops(ops)),
    )


def _iter_ops(ops: "list[LoweredOp]"):
    for op in ops:
        yield op
        for sub in (op.body, op.shortcut, op.post):
            if sub:
                yield from _iter_ops(sub)


def constant_bindings(program: LoweredProgram) -> dict:
    """Deterministic name → constant map a generated kernel closes over."""
    bindings: dict = dict(SUPPORT_BINDINGS)
    for op in _iter_ops(program.ops):
        if op.kind == "conv":
            bindings[f"W{op.index}"] = op.weight
            if op.bias is not None:
                bindings[f"b{op.index}"] = op.bias
        elif op.kind == "linear":
            bindings[f"W{op.index}_t"] = op.weight_t
            if op.bias is not None:
                bindings[f"b{op.index}"] = op.bias
        elif op.kind == "prelu":
            bindings[f"s{op.index}"] = op.slope
    return bindings
