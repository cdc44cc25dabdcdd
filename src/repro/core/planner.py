"""Tolerance allocation between quantization and compression (Fig. 1, 10).

Given a total QoI tolerance, the planner:

1. allocates ``quant_fraction`` of it to quantization (the paper's
   "configurable factor to control the proportion of total tolerance
   allocated to quantization", Section IV-D);
2. picks the *fastest* numeric format whose predicted Eq. (3) bound fits
   in that allocation (quantization tolerances are discrete — there are
   only a few formats);
3. hands every unutilized bit of tolerance to data reduction, inverting
   the compression term of the bound into an input tolerance for the
   codec.

:meth:`TolerancePlanner.auto_plan` additionally searches the allocation
fraction to maximize predicted pipeline throughput — the optimization the
paper's Section IV-D flags as future work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import PlanningError, ToleranceError
from ..quant.formats import FP32, STANDARD_FORMATS, NumericFormat
from .errorflow import ErrorFlowAnalyzer

__all__ = ["InferencePlan", "TolerancePlanner", "DEFAULT_FORMAT_RANKING"]

#: Formats ordered by descending execution speedup (paper Fig. 9: FP16 and
#: INT8 deliver the large speedups; TF32/BF16 are marginal; FP32 is 1x).
DEFAULT_FORMAT_RANKING: tuple[str, ...] = ("int8", "fp16", "bf16", "tf32", "fp32")


@dataclass
class InferencePlan:
    """A concrete configuration for the inference pipeline.

    Attributes
    ----------
    qoi_tolerance:
        The user's total QoI budget, in ``norm`` units.
    norm:
        ``"linf"`` or ``"l2"`` — the norm the tolerance is expressed in.
    fmt:
        Chosen weight format.
    quant_bound:
        Predicted Eq. (3) quantization-only bound for ``fmt`` (QoI units).
    input_tolerance:
        The input error the certificate allows, in the same norm applied
        to the *input*: pointwise for ``linf``, per-sample L2 for ``l2``.
    codec_tolerance:
        The pointwise (ABS) budget handed to the codec: ``input_tolerance``
        for ``linf``; ``input_tolerance / sqrt(n_0)`` for ``l2``, since
        ``||Delta x_i||_2 <= sqrt(n_0) ||Delta x_i||_inf`` for every sample.
    compression_budget:
        QoI-level budget left for compression after quantization.
    """

    qoi_tolerance: float
    norm: str
    fmt: NumericFormat
    quant_bound: float
    input_tolerance: float
    codec_tolerance: float
    compression_budget: float
    quant_fraction: float
    metadata: dict = field(default_factory=dict)

    def describe(self) -> str:
        text = (
            f"tol={self.qoi_tolerance:.2e} ({self.norm}) -> format={self.fmt.name} "
            f"(bound {self.quant_bound:.2e}), input tol {self.input_tolerance:.2e}"
        )
        if self.norm == "l2":
            text += f" (codec pointwise {self.codec_tolerance:.2e})"
        return text


class TolerancePlanner:
    """Allocates a QoI tolerance across quantization and compression.

    Parameters
    ----------
    analyzer:
        Error-flow analyzer of the trained model.
    format_ranking:
        Candidate format names, fastest first.  The planner picks the
        first whose predicted bound fits the quantization allocation.
    """

    def __init__(
        self,
        analyzer: ErrorFlowAnalyzer,
        format_ranking: tuple[str, ...] = DEFAULT_FORMAT_RANKING,
    ) -> None:
        self.analyzer = analyzer
        self.formats: list[NumericFormat] = [
            STANDARD_FORMATS[name] for name in format_ranking
        ]

    def plan(
        self,
        qoi_tolerance: float,
        norm: str = "linf",
        quant_fraction: float = 0.5,
    ) -> InferencePlan:
        """Produce a plan for one total tolerance and allocation fraction.

        Raises
        ------
        PlanningError
            If the tolerance is non-positive or the fraction invalid.
        """
        if qoi_tolerance <= 0:
            raise PlanningError(f"QoI tolerance must be positive, got {qoi_tolerance}")
        if not 0.0 <= quant_fraction <= 1.0:
            raise PlanningError(f"quant_fraction must be in [0, 1], got {quant_fraction}")
        if norm not in ("linf", "l2"):
            raise PlanningError(f"norm must be 'linf' or 'l2', got {norm!r}")

        quant_allocation = qoi_tolerance * quant_fraction
        chosen = FP32
        chosen_bound = 0.0
        for fmt in self.formats:
            bound = 0.0 if fmt.is_identity else self.analyzer.quantization_bound(fmt, norm)
            if bound <= quant_allocation:
                chosen, chosen_bound = fmt, bound
                break
        # FP32 always fits (zero quantization error).

        compression_budget = qoi_tolerance - chosen_bound
        try:
            # The inversion subtracts the chosen format's own bound from
            # the *total* tolerance, so everything quantization left over
            # flows to compression (paper Section IV-D: "all unutilized
            # tolerance are allocated for data reduction").
            input_l2 = self.analyzer.invert_compression_tolerance(
                qoi_tolerance, chosen if not chosen.is_identity else None, norm
            )
        except ToleranceError as exc:  # pragma: no cover - fits by construction
            raise PlanningError(str(exc)) from exc
        # ||dx||_2 <= sqrt(n0) * ||dx||_inf, per sample
        pointwise = input_l2 / np.sqrt(self.analyzer.n_input)
        return InferencePlan(
            qoi_tolerance=float(qoi_tolerance),
            norm=norm,
            fmt=chosen,
            quant_bound=chosen_bound,
            input_tolerance=float(pointwise if norm == "linf" else input_l2),
            codec_tolerance=float(pointwise),
            compression_budget=float(compression_budget),
            quant_fraction=float(quant_fraction),
        )

    def auto_plan(
        self,
        qoi_tolerance: float,
        throughput_model,
        norm: str = "linf",
        fractions: np.ndarray | None = None,
    ) -> InferencePlan:
        """Search the allocation fraction for maximum predicted throughput.

        Parameters
        ----------
        throughput_model:
            Callable ``(plan) -> float`` returning predicted end-to-end
            throughput; typically built from
            :mod:`repro.perf` (I/O and execution models).
        fractions:
            Candidate quantization fractions (default 0.05..0.95).

        Returns
        -------
        InferencePlan
            The plan with the highest predicted throughput; its metadata
            records the full search trace.
        """
        if fractions is None:
            fractions = np.linspace(0.05, 0.95, 19)
        best_plan: InferencePlan | None = None
        best_throughput = -np.inf
        trace = []
        for fraction in fractions:
            plan = self.plan(qoi_tolerance, norm=norm, quant_fraction=float(fraction))
            throughput = float(throughput_model(plan))
            trace.append((float(fraction), plan.fmt.name, throughput))
            if throughput > best_throughput:
                best_plan, best_throughput = plan, throughput
        assert best_plan is not None
        best_plan.metadata["search_trace"] = trace
        best_plan.metadata["predicted_throughput"] = best_throughput
        return best_plan
