"""MLP builders: task surrogates and the throughput zoo.

* :func:`h2_reaction_net` — the paper's compact 2-hidden-layer, 50-neuron
  Tanh network computing 9-species reaction rates (Section I, IV-A.1).
* :func:`borghesi_net` — the 8-hidden-layer MLP producing the three
  filtered dissipation rates (Section IV-A.2).
* :func:`mlp_small` / :func:`mlp_medium` / :func:`mlp_large` — the
  mlp_s / mlp_m / mlp_l models of Figs. 2 and 9 at 0.5M / 4.2M / 33.7M
  FLOPs per sample.
"""

from __future__ import annotations

import numpy as np

from ..nn.activations import Identity, make_activation
from ..nn.linear import Linear, SpectralLinear
from ..nn.sequential import Sequential

__all__ = [
    "build_mlp",
    "h2_reaction_net",
    "borghesi_net",
    "mlp_small",
    "mlp_medium",
    "mlp_large",
]


def build_mlp(
    in_features: int,
    hidden: list[int],
    out_features: int,
    activation: str = "relu",
    spectral: bool = True,
    rng: np.random.Generator | None = None,
    weight_init: str | None = None,
    alpha_init: float | None = None,
) -> Sequential:
    """Fully connected network with one activation between linear layers.

    Parameters
    ----------
    in_features, hidden, out_features:
        Layer widths; ``hidden`` may be empty for a single linear map.
    activation:
        Registry name (``relu``, ``tanh``, ``prelu``, ...).
    spectral:
        Use :class:`SpectralLinear` (parameterized spectral normalization,
        the paper's training recipe) instead of plain :class:`Linear`.
    weight_init:
        Initializer override; defaults to Xavier for tanh/sigmoid and
        Kaiming otherwise.
    alpha_init:
        Starting spectral norm per PSN layer.  Values slightly above 1
        start the network with a small Lipschitz budget, letting the
        spectral penalty keep the Eq. (3) gain tight while training grows
        only the norms the task actually needs.  ``None`` starts at the
        raw initialization's own spectral norm.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if weight_init is None:
        weight_init = (
            "xavier_uniform" if activation in ("tanh", "sigmoid") else "kaiming_uniform"
        )
    widths = [in_features] + list(hidden) + [out_features]
    layers = []
    for index in range(len(widths) - 1):
        if spectral:
            layer = SpectralLinear(
                widths[index],
                widths[index + 1],
                rng=rng,
                weight_init=weight_init,
                alpha_init=alpha_init,
            )
        else:
            layer = Linear(widths[index], widths[index + 1], rng=rng, weight_init=weight_init)
        layers.append(layer)
        if index < len(widths) - 2:
            layers.append(make_activation(activation))
        else:
            layers.append(Identity())
    return Sequential(*layers)


def h2_reaction_net(
    rng: np.random.Generator | None = None, spectral: bool = True
) -> Sequential:
    """9 mass fractions -> 9 reaction rates; 2 hidden layers of 50, Tanh."""
    return build_mlp(
        9, [50, 50], 9, activation="tanh", spectral=spectral, rng=rng, alpha_init=1.2
    )


def borghesi_net(
    rng: np.random.Generator | None = None,
    spectral: bool = True,
    width: int = 64,
    activation: str = "prelu",
) -> Sequential:
    """13 thermochemical inputs -> 3 dissipation rates; 8 hidden layers."""
    return build_mlp(
        13,
        [width] * 8,
        3,
        activation=activation,
        spectral=spectral,
        rng=rng,
        alpha_init=1.3,
    )


def mlp_small(rng: np.random.Generator | None = None, spectral: bool = False) -> Sequential:
    """mlp_s of Figs. 2/9: ~0.5M FLOPs per sample."""
    return build_mlp(256, [512, 256], 10, activation="relu", spectral=spectral, rng=rng)


def mlp_medium(rng: np.random.Generator | None = None, spectral: bool = False) -> Sequential:
    """mlp_m of Figs. 2/9: ~4.2M FLOPs per sample."""
    return build_mlp(
        512, [1024, 1024, 512], 10, activation="relu", spectral=spectral, rng=rng
    )


def mlp_large(rng: np.random.Generator | None = None, spectral: bool = False) -> Sequential:
    """mlp_l of Figs. 2/9: ~33.7M FLOPs per sample."""
    return build_mlp(
        1024,
        [2048, 2048, 2048, 2048, 1024],
        10,
        activation="relu",
        spectral=spectral,
        rng=rng,
    )
