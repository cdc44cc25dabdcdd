"""The paper's error bounds (Eq. 3 and Eq. 5) and their evaluation.

:func:`propagate` is a recurrence over the :class:`NetworkSpec` tree
that reduces to Eq. (3) on chains (``tests/oracles/bound_reference.py``
holds the literal inequality the tests compare it with) and extends it
compositionally to residual networks (each block contributes
``sigma_s + prod sigma`` to the gain, exactly Eq. (1)'s structure).

The recurrence tracks two scalars through the graph:

``delta``
    an upper bound on the L2 norm of the accumulated output perturbation;
``signal``
    an upper bound on the L2 norm of the (noisy) hidden activation
    ``||h~||_2``, seeded with ``sqrt(n_0)`` because inputs are normalized
    into ``[-1, 1]`` (paper Section III-B).

Per layer ``l`` with spectral norm ``sigma_l`` and step ``q_l``:

    delta <- C * (sigma_l * delta + q_l * sqrt(n_l) / (2 sqrt 3) * signal)
    signal <- C * sigma~_l * signal,   sigma~_l = sigma_l + q_l sqrt(min(n_{l-1}, n_l)) / sqrt(3)

Unrolling this on a chain yields Inequality (3) term by term.

An L-infinity QoI needs less of the final operator: each output is one
row, ``|w_i . dh| <= ||w_i||_2 ||dh||_2``, so :func:`linf_head` charges
it the largest row norm ``||W_L||_{2->inf}`` in place of ``sigma_L`` and
keeps the full matrix's quantization coefficient (a single row is the
narrowest layer there is, where the CLT estimate is weakest).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..quant.formats import NumericFormat
from ..quant.stepsize import average_step_size
from .graph import ChainSpec, LinearSpec, NetworkSpec, ResidualSpec

__all__ = [
    "ErrorState",
    "Head",
    "linf_head",
    "sigma_tilde",
    "compression_gain",
    "propagate",
    "propagate_chain_trajectory",
    "step_sizes_for",
]

_SQRT3 = float(np.sqrt(3.0))


def sigma_tilde(sigma: float, q: float, n_in: int, n_out: int) -> float:
    """Post-quantization spectral norm bound (paper Section III-B)."""
    return sigma + q * np.sqrt(min(n_in, n_out)) / _SQRT3


@dataclass
class ErrorState:
    """The ``(delta, signal)`` pair tracked through the graph."""

    delta: float
    signal: float

    def copy(self) -> "ErrorState":
        return ErrorState(self.delta, self.signal)


@dataclass(frozen=True)
class Head:
    """What the network's final operator is charged instead of its own
    ``(sigma, n_out)``; its step comes from the ``steps`` mapping."""

    sigma: float
    n_out: int


def linf_head(spec: NetworkSpec) -> Head | None:
    """The L-infinity charge of ``spec``'s final operator, ``||W_L||_{2->inf}``
    (never above ``sigma_L``); None when the network ends in a block."""
    last = spec.head
    return None if last is None else Head(min(last.row_norm, last.sigma), last.n_out)


def step_sizes_for(
    spec: NetworkSpec, fmt: NumericFormat | Sequence[NumericFormat] | None
) -> dict[int, float]:
    """Table-I step per linear spec (keyed by ``id`` of the spec node).

    One rounding pass per layer and format; the analyzer memoizes the
    result per format and weight version.
    """
    linears = spec.linear_specs()
    if fmt is None:
        return {id(linear): 0.0 for linear in linears}
    if isinstance(fmt, NumericFormat):
        formats: list[NumericFormat] = [fmt] * len(linears)
    else:
        formats = list(fmt)
        if len(formats) != len(linears):
            raise ConfigurationError(
                f"got {len(formats)} formats for {len(linears)} linear layers"
            )
    steps = {}
    for linear, layer_fmt in zip(linears, formats):
        if layer_fmt is None or layer_fmt.is_identity:
            steps[id(linear)] = 0.0
        else:
            steps[id(linear)] = average_step_size(linear.weights, layer_fmt)
    return steps


def _propagate_linear(
    node: LinearSpec,
    state: ErrorState,
    q: float,
    cap: float | None = None,
    head: Head | None = None,
) -> ErrorState:
    sigma, n_out = (node.sigma, node.n_out) if head is None else (head.sigma, head.n_out)
    lipschitz = node.lipschitz_after
    signal_in = state.signal if cap is None else min(state.signal, cap)
    quant_noise = q * np.sqrt(n_out) / (2.0 * _SQRT3) * signal_in
    delta = lipschitz * (sigma * state.delta + quant_noise)
    signal = lipschitz * sigma_tilde(sigma, q, node.n_in, n_out) * signal_in
    return ErrorState(delta=delta, signal=signal)


def _propagate_chain(
    node: ChainSpec,
    state: ErrorState,
    steps: dict[int, float],
    caps: dict[int, float] | None,
) -> ErrorState:
    for item in node.items:
        if isinstance(item, LinearSpec):
            cap = None if caps is None else caps.get(id(item))
            state = _propagate_linear(item, state, steps[id(item)], cap)
        elif isinstance(item, ResidualSpec):
            state = _propagate_residual(item, state, steps, caps)
        elif isinstance(item, ChainSpec):
            # nested chains come from extension hooks (e.g. U-Net levels)
            state = _propagate_chain(item, state, steps, caps)
        else:  # pragma: no cover - graph construction guarantees node types
            raise ConfigurationError(f"unknown spec node {type(item).__name__}")
    return state


def _propagate_residual(
    node: ResidualSpec,
    state: ErrorState,
    steps: dict[int, float],
    caps: dict[int, float] | None,
) -> ErrorState:
    body = _propagate_chain(node.body, state.copy(), steps, caps)
    if node.shortcut is None:
        skip = state.copy()  # identity: sigma_s = 1, no quantization noise
    else:
        skip = _propagate_chain(node.shortcut, state.copy(), steps, caps)
    lipschitz = node.lipschitz_after
    return ErrorState(
        delta=lipschitz * (body.delta + skip.delta),
        signal=lipschitz * (body.signal + skip.signal),
    )


def propagate(
    spec: NetworkSpec,
    input_error_l2: float,
    steps: dict[int, float],
    input_signal_l2: float | None = None,
    signal_caps: dict[int, float] | None = None,
    head: Head | None = None,
) -> ErrorState:
    """Run the error recurrence over the whole graph.

    Parameters
    ----------
    spec:
        Network spec from :func:`~repro.core.graph.extract_spec`.
    input_error_l2:
        ``||Delta x||_2`` entering the network.
    steps:
        Per-spec quantization steps from :func:`step_sizes_for`.
    input_signal_l2:
        Bound on ``||x||_2``; defaults to ``sqrt(n_0)`` per the paper's
        normalized-input assumption.
    signal_caps:
        Optional per-linear upper bounds on the hidden-signal norm
        entering that layer (data-driven calibration, keyed by spec id).
        Without caps the recurrence uses the paper's worst-case
        ``prod sigma~ * sqrt(n_0)`` signal growth.
    head:
        What the final operator is charged in place of its own
        ``(sigma, n_out)`` (:func:`linf_head`, or one output row for a
        per-feature bound); requires ``spec.head``.

    Returns
    -------
    ErrorState
        ``delta`` is the Eq. (3) bound on ``||Delta y||_2``, or with a
        head on the largest error of the outputs that head covers.
    """
    if input_signal_l2 is None:
        input_signal_l2 = float(np.sqrt(spec.n_input))
    state = ErrorState(delta=float(input_error_l2), signal=float(input_signal_l2))
    if head is None:
        return _propagate_chain(spec.chain, state, steps, signal_caps)
    last = spec.head
    if last is None:
        raise ConfigurationError("a head charge needs a network that ends in an operator")
    state = _propagate_chain(ChainSpec(spec.chain.items[:-1]), state, steps, signal_caps)
    cap = None if signal_caps is None else signal_caps.get(id(last))
    return _propagate_linear(last, state, steps[id(last)], cap, head)


def propagate_chain_trajectory(
    spec: NetworkSpec,
    input_error_l2: float,
    steps: dict[int, float],
    input_signal_l2: float | None = None,
    signal_caps: dict[int, float] | None = None,
) -> list[ErrorState]:
    """Intermediate recurrence states after each linear layer of a chain.

    The audit layer compares *observed* per-layer errors against the
    bound's predicted envelope, so it needs the recurrence's trajectory,
    not just its endpoint.  Element ``l`` bounds the perturbation of the
    activation leaving layer ``l`` (after that layer's activation
    function) — exactly the point where a lockstep dual-path forward can
    measure the real error.

    Only defined for pure chains (MLP-style specs): a residual graph has
    no single "after layer l" cut, so layerwise auditing falls back to
    the end-to-end bound there.  The final state's ``delta`` equals
    :func:`propagate`'s result exactly.
    """
    items = spec.chain.items
    if not all(isinstance(item, LinearSpec) for item in items):
        raise ConfigurationError(
            "layerwise bound trajectories require a pure chain of linear "
            "layers; residual graphs only support the end-to-end bound"
        )
    if input_signal_l2 is None:
        input_signal_l2 = float(np.sqrt(spec.n_input))
    state = ErrorState(delta=float(input_error_l2), signal=float(input_signal_l2))
    trajectory: list[ErrorState] = []
    for item in items:
        cap = None if signal_caps is None else signal_caps.get(id(item))
        state = _propagate_linear(item, state, steps[id(item)], cap)
        trajectory.append(state.copy())
    return trajectory


def compression_gain(spec: NetworkSpec, head: Head | None = None) -> float:
    """Eq. (5) amplification factor: ``sigma_s + prod_l sigma_W^(l)``.

    Computed compositionally: a chain multiplies gains, a residual block
    adds its shortcut gain (1 for identity skips).  ``head`` as in
    :func:`propagate`.
    """
    zero_steps = {id(linear): 0.0 for linear in spec.linear_specs()}
    state = propagate(
        spec, input_error_l2=1.0, steps=zero_steps, input_signal_l2=0.0, head=head
    )
    return state.delta
