"""High-level error-flow analysis API (the heart of the paper's Fig. 1).

:class:`ErrorFlowAnalyzer` wraps a trained model and answers, *before any
quantization or compression happens*:

* how much does an input perturbation of a given size move the QoI
  (Eq. 5 compression bound);
* how much error does storing the weights in a given numeric format add
  (quantization bound);
* the combined Inequality (3) bound, in L2 or L-infinity, globally or per
  output feature;
* the inverse question the planner needs: given a QoI tolerance and a
  chosen format, how large may the input (compression) error be?
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from ..exceptions import ToleranceError
from ..nn.module import Module
from ..perf.cache import get_memo
from ..quant.formats import NumericFormat
from .bounds import (
    compression_gain,
    propagate,
    propagate_chain_trajectory,
    step_sizes_for,
)
from .graph import LinearSpec, NetworkSpec, extract_spec

__all__ = ["ErrorFlowAnalyzer"]

#: distinguishes analyzers in the shared bound-evaluation memo; a plain
#: monotone counter, never reused (unlike ``id()``)
_ANALYZER_TOKENS = itertools.count()


def _format_memo_key(fmt) -> object:
    """Hashable identity of a format argument (formats are frozen)."""
    if fmt is None or isinstance(fmt, NumericFormat):
        return fmt
    return tuple(fmt)


class ErrorFlowAnalyzer:
    """Pre-inference error estimation for a trained network.

    Parameters
    ----------
    model:
        Trained :class:`~repro.nn.sequential.Sequential` network.
    input_shape:
        Per-sample input shape (see :func:`~repro.core.graph.extract_spec`);
        defaults to ``(in_features,)`` of a dense first layer and is
        required for a conv-first model.
    quant_safety:
        Multiplier on the per-layer quantization steps ``q_l``.  The
        paper's quantization term is a Central-Limit-Theorem
        *concentration estimate* ("the norm concentrates around its
        mean", Section III-B): it covers the observed error in all of the
        paper's experiments, but for very narrow layers (a few tens of
        neurons) the fluctuation around the mean can exceed it.  The
        default 1.0 is paper-exact; raise it (e.g. 1.5) when a hard
        worst-case margin is required for small networks.

    Notes
    -----
    All bound methods return *absolute* error bounds on the QoI in the
    requested norm; divide by a reference output norm for the relative
    errors plotted in the paper's figures.  The compression term (Eq. 5)
    is a deterministic operator-norm bound, never exceeded through dense
    layers.  A conv is charged the sigma of its matricized kernel, which
    can read the conv operator's norm up to ``ceil(k / s)`` times low, and
    each pool is charged 1, so on conv models the term is the paper's
    estimate rather than a guarantee (DESIGN.md section 7).
    """

    def __init__(
        self,
        model: Module,
        input_shape: tuple[int, ...] | None = None,
        quant_safety: float = 1.0,
    ) -> None:
        if quant_safety <= 0:
            raise ToleranceError(f"quant_safety must be positive, got {quant_safety}")
        self.spec: NetworkSpec = extract_spec(model, input_shape)
        self.quant_safety = float(quant_safety)
        self._model = model
        self._signal_caps: dict[int, float] | None = None
        self._token = next(_ANALYZER_TOKENS)
        self._weight_version = model.weight_version()
        self._cache_epoch = 0

    def _refresh_spec(self) -> None:
        """Re-extract the spec when the model's weights have changed.

        Staleness is detected through :meth:`Module.weight_version` (each
        ``Parameter.data`` assignment bumps a counter — e.g. an optimizer
        step).  A refresh drops calibration caps (they were measured
        against the old weights) and advances the memo epoch so stale
        bound evaluations can never be served.
        """
        current = self._model.weight_version()
        if current != self._weight_version:
            self.spec = extract_spec(self._model, self.spec.input_shape)
            self._signal_caps = None
            self._weight_version = current
            self._cache_epoch += 1

    def _steps(self, fmt) -> dict[int, float]:
        steps = step_sizes_for(self.spec, fmt)
        if self.quant_safety != 1.0:
            steps = {key: value * self.quant_safety for key, value in steps.items()}
        return steps

    # -- calibration (data-driven tightening) --------------------------------
    def calibrate(self, inputs: np.ndarray, margin: float = 1.25) -> "ErrorFlowAnalyzer":
        """Tighten the quantization term with measured signal norms.

        Runs ``inputs`` through the model, records the max per-sample L2
        norm feeding each linear layer, and caps the recurrence's signal
        bound with ``measured * margin``.  The compression term (Eq. 5)
        is unaffected.  Returns ``self`` for chaining.
        """
        from .calibration import collect_signal_norms

        self._refresh_spec()
        norms = collect_signal_norms(self._model, inputs, margin=margin)
        linears = self.spec.linear_specs()
        if len(norms) != len(linears):  # pragma: no cover - traversal parity
            raise ToleranceError(
                f"calibration walked {len(norms)} linears, spec has {len(linears)}"
            )
        self._signal_caps = {id(spec): norm for spec, norm in zip(linears, norms)}
        self._cache_epoch += 1  # cached bounds were computed without caps
        return self

    def decalibrate(self) -> None:
        """Drop calibration and return to the paper's worst-case signals."""
        self._signal_caps = None
        self._cache_epoch += 1

    @property
    def is_calibrated(self) -> bool:
        return self._signal_caps is not None

    # -- basic properties ---------------------------------------------------
    @property
    def n_input(self) -> int:
        return self.spec.n_input

    def layer_sigmas(self) -> list[float]:
        """Per-layer spectral norms (after BN folding)."""
        self._refresh_spec()
        return [linear.sigma for linear in self.spec.linear_specs()]

    def gain(self) -> float:
        """Eq. (5) amplification ``sigma_s + prod sigma`` of the network.

        Memoized per (analyzer, weight version): planner sweeps call this
        for every candidate configuration but only pay the graph walk
        once per weight state.
        """
        self._refresh_spec()
        key = (self._token, "gain", self._weight_version, self._cache_epoch)
        return get_memo("bound_eval").get(key, lambda: compression_gain(self.spec))

    def step_sizes(self, fmt: NumericFormat | Sequence[NumericFormat]) -> list[float]:
        """Table-I steps ``q_l`` per layer for a format choice."""
        self._refresh_spec()
        steps = self._steps(fmt)
        return [steps[id(linear)] for linear in self.spec.linear_specs()]

    # -- L2 bounds ------------------------------------------------------------
    def compression_bound(self, input_error_l2: float) -> float:
        """Eq. (5): QoI L2 error from input error alone."""
        return self.gain() * float(input_error_l2)

    def quantization_bound(self, fmt: NumericFormat | Sequence[NumericFormat]) -> float:
        """Eq. (3) with ``||Delta x|| = 0``: weight-quantization error alone.

        Memoized per (analyzer, format, weight version, calibration
        epoch, safety factor) — the planner evaluates the same formats
        against many error-budget splits.
        """
        self._refresh_spec()
        key = (
            self._token,
            "quant",
            _format_memo_key(fmt),
            self._weight_version,
            self._cache_epoch,
            self.quant_safety,
        )

        def compute() -> float:
            steps = self._steps(fmt)
            return propagate(
                self.spec,
                input_error_l2=0.0,
                steps=steps,
                signal_caps=self._signal_caps,
            ).delta

        return get_memo("bound_eval").get(key, compute)

    def combined_bound(
        self,
        input_error_l2: float,
        fmt: NumericFormat | Sequence[NumericFormat] | None,
    ) -> float:
        """Full Inequality (3): compression and quantization together."""
        self._refresh_spec()
        steps = self._steps(fmt)
        return propagate(
            self.spec,
            input_error_l2=float(input_error_l2),
            steps=steps,
            signal_caps=self._signal_caps,
        ).delta

    def layer_bounds(
        self,
        input_error_l2: float,
        fmt: NumericFormat | Sequence[NumericFormat] | None,
    ) -> list[float]:
        """Cumulative Eq. (3) envelope after each linear layer.

        Element ``l`` bounds the L2 perturbation of the activation leaving
        layer ``l`` under the given input error and weight format; the
        last element equals :meth:`combined_bound`.  Chain (MLP-style)
        specs only — the audit layer uses this as the per-layer predicted
        envelope against which observed lockstep errors are compared.
        Raises :class:`~repro.exceptions.ConfigurationError` on residual
        graphs.
        """
        self._refresh_spec()
        steps = self._steps(fmt)
        trajectory = propagate_chain_trajectory(
            self.spec,
            input_error_l2=float(input_error_l2),
            steps=steps,
            signal_caps=self._signal_caps,
        )
        return [state.delta for state in trajectory]

    # -- L-infinity bounds ----------------------------------------------------
    def combined_bound_linf(
        self,
        input_error_linf: float,
        fmt: NumericFormat | Sequence[NumericFormat] | None,
    ) -> float:
        """Inequality (3) with an L-infinity input error and output norm.

        Uses ``||Delta x||_2 <= sqrt(n_0) * ||Delta x||_inf`` on the way in
        and ``||Delta y||_inf <= ||Delta y||_2`` on the way out.
        """
        input_l2 = float(input_error_linf) * np.sqrt(self.n_input)
        return self.combined_bound(input_l2, fmt)

    def compression_bound_linf(self, input_error_linf: float) -> float:
        """Eq. (5) with L-infinity input error."""
        return self.compression_bound(float(input_error_linf) * np.sqrt(self.n_input))

    # -- per-feature bounds -----------------------------------------------------
    def per_feature_bounds(
        self,
        input_error_l2: float,
        fmt: NumericFormat | Sequence[NumericFormat] | None,
    ) -> np.ndarray:
        """Eq. (3) restricted to each output feature.

        The final layer's spectral norm is replaced by the L2 norm of the
        corresponding weight row (the exact operator norm of a single-row
        map), and its ``n_L`` becomes 1.
        """
        self._refresh_spec()
        linears = self.spec.linear_specs()
        last = linears[-1]
        if not isinstance(last, LinearSpec) or last.is_conv:
            raise ToleranceError(
                "per-feature bounds require a dense final layer"
            )
        steps = self._steps(fmt)
        bounds = np.empty(last.out_features, dtype=np.float64)
        original = (last.sigma, last.n_out, last.weights)
        try:
            for feature in range(last.out_features):
                row = original[2][feature : feature + 1, :]
                last.sigma = float(np.linalg.norm(row))
                last.n_out = 1
                last.weights = row
                row_steps = dict(steps)
                if steps[id(last)] > 0.0:
                    # Step size of the row under the same format family.
                    from ..quant.stepsize import average_step_size

                    fmt_last = fmt[-1] if isinstance(fmt, (list, tuple)) else fmt
                    row_steps[id(last)] = (
                        average_step_size(row, fmt_last) * self.quant_safety
                    )
                bounds[feature] = propagate(
                    self.spec,
                    input_error_l2=float(input_error_l2),
                    steps=row_steps,
                    signal_caps=self._signal_caps,
                ).delta
        finally:
            last.sigma, last.n_out, last.weights = original
        return bounds

    def per_feature_bounds_linf(
        self,
        input_error_linf: float,
        fmt: NumericFormat | Sequence[NumericFormat] | None,
    ) -> np.ndarray:
        """Per-feature bounds with an L-infinity input error."""
        input_l2 = float(input_error_linf) * np.sqrt(self.n_input)
        return self.per_feature_bounds(input_l2, fmt)

    # -- activation quantization (paper Section III-B remark) -----------------
    def activation_quantization_bound(
        self,
        fmt: NumericFormat,
        activation_linf: float = 1.0,
    ) -> float:
        """QoI error bound for storing hidden activations in ``fmt``.

        Per the paper: the rounding error injected after layer ``l`` is
        treated "similarly to compression error by applying Equation (5),
        while excluding all layers preceding the affected activation" —
        i.e. amplified by the product of the remaining spectral norms.

        Parameters
        ----------
        fmt:
            Activation storage format.
        activation_linf:
            Upper bound on individual activation magnitudes (1.0 after a
            Tanh; pass a measured value for unbounded activations).

        Notes
        -----
        Supported for chain (MLP-style) specs; residual graphs would need
        per-edge injection accounting.
        """
        from ..quant.activations import activation_rounding_bound

        self._refresh_spec()
        items = self.spec.chain.items
        if not all(isinstance(item, LinearSpec) for item in items):
            raise ToleranceError(
                "activation quantization bounds require a pure chain of linear layers"
            )
        suffix = 1.0
        total = 0.0
        # walk backwards: suffix accumulates sigma * C of the layers after
        # the injection point; the last layer's output is the QoI itself.
        for index in range(len(items) - 1, 0, -1):
            layer = items[index]
            suffix *= layer.sigma * layer.lipschitz_after
            injected = activation_rounding_bound(
                fmt, activation_linf, items[index - 1].out_features
            )
            total += suffix * injected
        return total

    # -- inversion (used by the planner) -------------------------------------
    def invert_compression_tolerance(
        self,
        qoi_tolerance_l2: float,
        fmt: NumericFormat | Sequence[NumericFormat] | None,
    ) -> float:
        """Largest ``||Delta x||_2`` keeping the Eq. (3) bound within budget.

        The bound is affine in the input error, so the inversion is exact:
        ``(tolerance - quantization_term) / gain``.  Raises
        :class:`ToleranceError` when the format alone exceeds the budget.
        """
        quant_term = self.quantization_bound(fmt) if fmt is not None else 0.0
        headroom = float(qoi_tolerance_l2) - quant_term
        if headroom <= 0.0:
            raise ToleranceError(
                f"quantization bound {quant_term:.3e} exceeds the QoI tolerance "
                f"{qoi_tolerance_l2:.3e}; no compression budget remains"
            )
        return headroom / self.gain()
