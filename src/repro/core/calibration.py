"""Data-driven signal calibration for tighter quantization bounds.

The paper's quantization term bounds the hidden-signal norm with the
worst case ``||h~^(l-1)|| <= prod sigma~ * sqrt(n_0)`` (normalized-input
assumption).  In practice activations saturate and sparsify, so the true
norms sit far below that product — especially in deep residual networks.
Calibration measures the actual per-layer signal norms on representative
data and caps the recurrence with them (plus a safety margin), the
standard practice for data-driven quantization error models.

The norms are read from one observed forward (:meth:`Module.observe`),
whose operator order is the spec's order (residual bodies before
shortcuts), so the recorded caps align one-to-one with the spec's linear
layers.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from ..obs import get_tracer
from ..nn.module import Module
from ..nn.sequential import Sequential
from .graph import LINEAR_OPERATORS

__all__ = ["collect_signal_norms"]


def _max_sample_norm(tensor: np.ndarray) -> float:
    flat = tensor.reshape(len(tensor), -1)
    return float(np.linalg.norm(flat, axis=1).max())


def collect_signal_norms(
    model: Module, inputs: np.ndarray, margin: float = 1.25
) -> list[float]:
    """Measured max per-sample L2 norm feeding each linear layer.

    Parameters
    ----------
    model:
        Sequential network (the same object the analyzer was built from).
    inputs:
        Calibration batch shaped like training inputs.
    margin:
        Multiplier applied to each measured norm; covers inputs somewhat
        outside the calibration distribution.

    Returns
    -------
    list[float]
        One value per linear layer in extraction order.
    """
    if not isinstance(model, Sequential):
        raise ConfigurationError("calibration expects a Sequential model")
    if margin < 1.0:
        raise ConfigurationError(f"margin must be >= 1, got {margin}")
    norms: list[float] = []
    with get_tracer().span(
        "quant.calibrate", samples=int(len(inputs)), margin=float(margin)
    ) as span:
        # record the signal *entering* each linear operator — the h^(l-1)
        # of the quantization term
        model.observe(
            np.asarray(inputs, dtype=np.float32),
            lambda module, x, output: norms.append(_max_sample_norm(x)),
            [module for module in model.modules() if isinstance(module, LINEAR_OPERATORS)],
        )
        span.set(layers=len(norms))
    return [norm * margin for norm in norms]
