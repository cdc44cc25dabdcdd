"""Human-readable model and audit reports.

:func:`describe_model` renders the layer table a practitioner checks
before reduction: per-layer type, shape, parameter count, spectral norm
and the Table-I step sizes; :func:`describe_audit_diff` renders the
tightness comparison of two registered audit runs.
"""

from __future__ import annotations

import numpy as np

from .nn.module import Module
from .quant.formats import STANDARD_FORMATS
from .quant.quantizer import quantizable_layers
from .quant.stepsize import average_step_size

__all__ = [
    "describe_audit_diff",
    "describe_model",
]


def describe_model(model: Module) -> str:
    """Layer-by-layer report of a trained network.

    Includes every weight-bearing layer's qualified name, class, weight
    shape, parameter count, the exact spectral norm of its deployed matrix
    and FP16/INT8 step sizes, plus model totals.
    """
    from .nn.spectral import spectral_norm_exact

    lines = [
        f"{'layer':<28} {'type':<16} {'weight shape':<16} "
        f"{'params':>8} {'sigma':>8} {'q fp16':>10} {'q int8':>10}"
    ]
    total_params = 0
    for name, layer in quantizable_layers(model):
        weights = np.asarray(layer.effective_weight(), dtype=np.float64)
        sigma = spectral_norm_exact(weights)
        weight_param = getattr(layer, "weight", None) or layer.raw_weight
        params = weight_param.size + (layer.bias.size if layer.bias is not None else 0)
        total_params += params
        lines.append(
            f"{name:<28} {type(layer).__name__:<16} {str(weight_param.shape):<16} "
            f"{params:>8d} {sigma:>8.3f} "
            f"{average_step_size(weights, STANDARD_FORMATS['fp16']):>10.2e} "
            f"{average_step_size(weights, STANDARD_FORMATS['int8']):>10.2e}"
        )
    other = model.num_parameters() - total_params
    lines.append(f"weight parameters: {total_params}   other (bias/norm/psn): {other}")
    return "\n".join(lines)


def describe_audit_diff(diff: dict) -> str:
    """Render a registry diff (:func:`~repro.obs.registry.diff_runs`).

    Flags every layer whose tightness regressed more than the diff's
    threshold and every newly violated bound; the weights line (short
    parameter digests) distinguishes "the model changed" from "the bound
    quality changed".
    """
    changed = "changed" if diff.get("weights_changed") else "unchanged"
    lines = [
        f"audit diff {diff.get('run_a', '?')} -> {diff.get('run_b', '?')}"
        f"  (weights {changed}:"
        f" {(diff.get('weights_a') or '?')[:8]} -> {(diff.get('weights_b') or '?')[:8]})"
    ]
    if diff.get("layers"):
        lines.append(
            f"{'layer':<12} {'tight A':>10} {'tight B':>10} {'delta':>10} {'':>12}"
        )
        for row in diff["layers"]:
            flag = ""
            if row.get("regressed"):
                flag = f"REGRESSED +{row['relative'] * 100.0:.0f}%"
            lines.append(
                f"{row['name']:<12} {row['tightness_a']:>10.3f} "
                f"{row['tightness_b']:>10.3f} {row['delta']:>+10.3f} {flag:>12}"
            )
    qoi = diff.get("qoi", {})
    lines.append(
        f"QoI tightness: {qoi.get('tightness_a', 0.0):.3f} -> "
        f"{qoi.get('tightness_b', 0.0):.3f} ({qoi.get('delta', 0.0):+.3f})"
    )
    threshold = diff.get("threshold", 0.0)
    if diff.get("regressions"):
        lines.append(
            f"tightness regressed >{threshold * 100.0:.0f}% at: "
            + ", ".join(diff["regressions"])
        )
    if diff.get("new_violations"):
        lines.append("NEW VIOLATIONS at: " + ", ".join(diff["new_violations"]))
    if diff.get("structure_changed"):
        lines.append(
            "layers present in only one run: " + ", ".join(diff["structure_changed"])
        )
    if not (diff.get("regressions") or diff.get("new_violations")):
        lines.append(f"no drift beyond {threshold * 100.0:.0f}% threshold")
    return "\n".join(lines)
