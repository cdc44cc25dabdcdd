"""Tests for the tolerance planner (Fig. 1 / Fig. 10 logic)."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import ErrorFlowAnalyzer, TolerancePlanner
from repro.exceptions import PlanningError
from repro.quant import FP32


@pytest.fixture
def planner(trained_spectral_mlp):
    return TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp))


def test_plan_selects_faster_format_with_larger_budget(planner):
    analyzer = planner.analyzer
    fp16_bound = analyzer.quantization_bound(planner.formats[1])
    loose = planner.plan(qoi_tolerance=fp16_bound * 100, quant_fraction=0.5)
    tight = planner.plan(qoi_tolerance=fp16_bound * 0.1, quant_fraction=0.5)
    # loose budget admits an aggressive format; tight forces FP32
    assert loose.fmt.name in ("int8", "fp16")
    assert tight.fmt.name == "fp32"
    assert tight.quant_bound == 0.0


def test_plan_respects_quant_fraction(planner):
    tolerance = 1e-1
    small = planner.plan(tolerance, quant_fraction=0.05)
    large = planner.plan(tolerance, quant_fraction=0.95)
    # a larger fraction can only admit an equally fast or faster format
    ranking = [fmt.name for fmt in planner.formats]
    assert ranking.index(large.fmt.name) <= ranking.index(small.fmt.name)


@pytest.fixture(scope="module")
def ranked_planner(trained_spectral_mlp):
    return TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp))


@settings(max_examples=200, deadline=None)
@given(
    exponents=st.tuples(st.floats(-4.0, 0.5), st.floats(-4.0, 0.5)).filter(
        lambda pair: pair[0] != pair[1]
    ),
    quant_fraction=st.floats(0.0, 1.0),
    norm=st.sampled_from(["linf", "l2"]),
)
# at half the budget, each pair straddles one format's bound (fp16's, int8's)
@example(exponents=(-2.31, -2.30), quant_fraction=0.5, norm="linf")
@example(exponents=(-0.95, -0.94), quant_fraction=0.5, norm="l2")
def test_tighter_tolerance_never_chooses_looser_format(
    ranked_planner, exponents, quant_fraction, norm
):
    """Property: for ``t1 < t2`` at the same fraction and norm, the plan
    for ``t1`` spends no more on quantization than the plan for ``t2``,
    and its format ranks no faster.  It holds by first fit over a fixed
    ranking: every format that fits ``t1``'s allocation fits ``t2``'s."""
    t1, t2 = sorted(10.0 ** e for e in exponents)
    tight = ranked_planner.plan(t1, norm=norm, quant_fraction=quant_fraction)
    loose = ranked_planner.plan(t2, norm=norm, quant_fraction=quant_fraction)
    assert tight.quant_bound <= loose.quant_bound
    ranking = [fmt.name for fmt in ranked_planner.formats]
    assert ranking.index(tight.fmt.name) >= ranking.index(loose.fmt.name)


def test_plan_total_budget_is_conserved(planner):
    """The bound in the plan's own norm at the planned input tolerance is
    the tolerance: ``combined_bound_linf`` (head charged its largest row
    norm) for L-infinity plans, ``combined_bound`` for L2 plans."""
    analyzer = planner.analyzer
    for norm, bound in (
        ("linf", analyzer.combined_bound_linf), ("l2", analyzer.combined_bound)
    ):
        plan = planner.plan(qoi_tolerance=1e-1, norm=norm, quant_fraction=0.5)
        assert plan.quant_bound + plan.compression_budget == pytest.approx(1e-1)
        fmt = None if plan.fmt.is_identity else plan.fmt
        assert bound(plan.input_tolerance, fmt) == pytest.approx(plan.qoi_tolerance, rel=1e-9)


def test_plan_l2_norm_units(planner):
    linf_plan = planner.plan(1e-2, norm="linf")
    l2_plan = planner.plan(1e-2, norm="l2")
    # the codec's pointwise budget is the per-sample L2 one shrunk by sqrt(n0)
    assert l2_plan.codec_tolerance == pytest.approx(
        l2_plan.input_tolerance / np.sqrt(planner.analyzer.n_input)
    )
    assert linf_plan.codec_tolerance == linf_plan.input_tolerance
    # an L-infinity QoI charges the head no more than sigma_L
    assert linf_plan.fmt == l2_plan.fmt
    assert linf_plan.input_tolerance >= l2_plan.codec_tolerance


def test_plan_validation(planner):
    with pytest.raises(PlanningError):
        planner.plan(0.0)
    with pytest.raises(PlanningError):
        planner.plan(1e-3, quant_fraction=1.5)
    with pytest.raises(PlanningError):
        planner.plan(1e-3, norm="l7")


def test_plan_describe(planner):
    text = planner.plan(1e-2).describe()
    assert "tol=" in text and "format=" in text


def test_fp32_fallback_always_feasible(planner):
    """Even a tolerance below every format's bound must yield a plan."""
    plan = planner.plan(qoi_tolerance=1e-9, quant_fraction=0.9)
    assert plan.fmt is FP32
    assert plan.input_tolerance > 0.0


def test_auto_plan_maximizes_throughput(planner):
    """auto_plan must beat or match every fixed-fraction plan."""

    def throughput_model(plan):
        # toy model: faster formats help, larger input tolerance helps
        speedups = {"fp32": 1.0, "tf32": 1.2, "bf16": 1.3, "fp16": 4.5, "int8": 4.2}
        return min(speedups[plan.fmt.name], 1e6 * plan.input_tolerance)

    best = planner.auto_plan(1e-1, throughput_model)
    for fraction in (0.1, 0.5, 0.9):
        fixed = planner.plan(1e-1, quant_fraction=fraction)
        assert throughput_model(best) >= throughput_model(fixed) - 1e-12
    assert "search_trace" in best.metadata
