"""The literal Inequality (3), term by term, for an L-layer dense chain.

``repro.core.bounds.propagate`` evaluates the same bound as a recurrence
over the network graph; the tests hold the two equal on random chains.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core import sigma_tilde
from repro.exceptions import ConfigurationError

def mlp_combined_bound(
    sigmas: Sequence[float],
    steps: Sequence[float],
    dims: Sequence[int],
    input_error_l2: float,
    sigma_shortcut: float = 0.0,
) -> float:
    """Literal Inequality (3) for an L-layer dense chain.

    Parameters
    ----------
    sigmas:
        Spectral norms ``sigma_W^(l)`` for ``l = 1..L``.
    steps:
        Quantization steps ``q_l`` (0 for unquantized layers).
    dims:
        Layer widths ``n_0, n_1, ..., n_L`` (length ``L + 1``).
    input_error_l2:
        ``||Delta x||_2``.
    sigma_shortcut:
        ``sigma_s`` of the block's projection shortcut (0 for an MLP).
    """
    n_layers = len(sigmas)
    if len(steps) != n_layers or len(dims) != n_layers + 1:
        raise ConfigurationError(
            f"inconsistent bound inputs: {n_layers} sigmas, {len(steps)} steps, "
            f"{len(dims)} dims"
        )
    gain = sigma_shortcut + float(np.prod(sigmas))
    total = gain * input_error_l2
    n0 = dims[0]
    for l in range(1, n_layers + 1):
        before = 1.0
        for i in range(1, l):
            before *= sigma_tilde(sigmas[i - 1], steps[i - 1], dims[i - 1], dims[i])
        after = 1.0
        for j in range(l + 1, n_layers + 1):
            after *= sigmas[j - 1]
        total += before * after * steps[l - 1] * np.sqrt(n0 * dims[l]) / (2.0 * np.sqrt(3.0))
    return float(total)
