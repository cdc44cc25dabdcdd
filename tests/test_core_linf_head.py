"""The L-infinity head: an L-infinity QoI charges the final operator its
largest row norm ``||W_L||_{2->inf}`` instead of ``sigma_L``.

Each output is one row, ``|w_i . dh| <= ||w_i||_2 ||dh||_2``, so the
charge is sound; the quantization coefficient stays the full matrix's
CLT estimate (DESIGN.md section 7).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import TolerancePlanner, load_workload
from repro.core import ErrorFlowAnalyzer
from repro.core.bounds import linf_head, propagate, step_sizes_for
from repro.nn import Conv2d, Flatten, Identity, Linear, PReLU, ReLU, Sequential, Tanh
from repro.nn.residual import ResidualBlock
from repro.quant import BF16, FP16, FP32, INT8, STANDARD_FORMATS, TF32, materialize, quantize_model

_FORMATS = (FP32, TF32, FP16, BF16, INT8)


def _random_chain(rng, n_layers, n_out, activation, slope):
    dims = [int(rng.integers(2, 12))] + [int(rng.integers(2, 16)) for _ in range(n_layers - 1)]
    dims.append(n_out)
    layers = []
    for i in range(n_layers):
        layers.append(Linear(dims[i], dims[i + 1], rng=rng))
        if i + 1 < n_layers:
            layers.append({"relu": ReLU, "tanh": Tanh}.get(activation, lambda: PReLU(slope))())
    layers.append(Identity())
    model = Sequential(*layers)
    model.eval()
    return model, dims[0]


def _jacobian_rows(model, x):
    """Rows of the local Jacobian ``dy/dx`` at one sample, by backprop."""
    model.train()
    outputs = model(x[None].astype(np.float64))
    rows = []
    for i in range(outputs.shape[1]):
        model(x[None].astype(np.float64))
        seed = np.zeros_like(outputs)
        seed[0, i] = 1.0
        rows.append(model.backward(seed)[0])
    model.eval()
    return np.asarray(rows)


@given(
    seed=st.integers(0, 2**31 - 1),
    n_layers=st.integers(1, 4),
    n_out=st.integers(1, 8),
    activation=st.sampled_from(["relu", "tanh", "prelu"]),
    slope=st.floats(-0.5, 1.5),
    fmt_index=st.integers(0, len(_FORMATS) - 1),
    log_eps=st.floats(-4.0, -1.0),
)
@settings(max_examples=80, deadline=None)
def test_linf_bound_covers_each_output_along_its_worst_sign(
    seed, n_layers, n_out, activation, slope, fmt_index, log_eps
):
    """Property: for every output ``i``, the perturbation
    ``eps * sign(J_i)`` (row ``i`` of the local Jacobian, the direction
    that moves that output most) leaves ``|Delta y_i|`` under
    ``combined_bound_linf(eps, fmt)``.  The L-infinity bound never
    exceeds the L2-derived one and equals it for a one-row head.  As in
    the L2 property, the quantization term is a CLT estimate that narrow
    random layers can exceed, so the analyzer takes a ``quant_safety``
    margin; FP32 checks the deterministic compression term alone."""
    rng = np.random.default_rng(seed)
    model, n_in = _random_chain(rng, n_layers, n_out, activation, slope)
    fmt = _FORMATS[fmt_index]
    fmt_arg = None if fmt.is_identity else fmt
    analyzer = ErrorFlowAnalyzer(model, quant_safety=2.0)
    eps = 10.0**log_eps
    bound = analyzer.combined_bound_linf(eps, fmt_arg)
    l2_derived = analyzer.combined_bound(eps * np.sqrt(n_in), fmt_arg)
    assert bound <= l2_derived
    if n_out == 1:
        assert bound == pytest.approx(l2_derived, rel=1e-12)

    reference = materialize(model)
    perturbed = quantize_model(model, fmt) if fmt_arg is not None else reference
    x = rng.uniform(-1, 1, n_in)
    clean = reference(x[None].astype(np.float32))[0].astype(np.float64)
    for i, row in enumerate(_jacobian_rows(model, x)):
        moved = perturbed((x + eps * np.sign(row))[None].astype(np.float32))[0]
        assert abs(float(moved[i]) - clean[i]) <= bound * (1 + 1e-6)


def test_head_is_the_largest_row_norm_of_the_deployed_matrix(trained_spectral_mlp):
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    last = analyzer.spec.head
    deployed = np.asarray(trained_spectral_mlp[4].effective_weight(), dtype=np.float64)
    assert last.row_norm == pytest.approx(np.linalg.norm(deployed, axis=1).max(), rel=1e-12)
    assert last.row_norm < last.sigma
    head = linf_head(analyzer.spec)
    assert (head.sigma, head.n_out) == (last.row_norm, last.n_out)
    # the linf gain is the L2 gain with sigma_L swapped for the row norm
    assert analyzer.gain("linf") == pytest.approx(
        analyzer.gain() * last.row_norm / last.sigma, rel=1e-12
    )


def test_head_keeps_the_full_matrix_quantization_coefficient(trained_spectral_mlp):
    """The head's own quantization noise is charged ``q sqrt(n_L)`` as in
    the L2 bound: with every other layer's noise switched off, the two
    bounds agree."""
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    spec = analyzer.spec
    steps = {node: 0.0 for node in step_sizes_for(spec, FP16)}
    steps[id(spec.head)] = step_sizes_for(spec, FP16)[id(spec.head)]
    l2 = propagate(spec, 0.0, steps)
    linf = propagate(spec, 0.0, steps, head=linf_head(spec))
    assert linf.delta == pytest.approx(l2.delta, rel=1e-12)


def test_per_feature_bounds_leave_the_spec_untouched(trained_spectral_mlp):
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    last = analyzer.spec.head
    before = (last.sigma, last.n_out, last.weights.copy())
    per_feature = analyzer.per_feature_bounds(1e-3, FP16)
    assert (last.sigma, last.n_out) == before[:2]
    assert np.array_equal(last.weights, before[2])
    # each feature's bound is at most the linf one over the same L2 input
    linf = analyzer.combined_bound_linf(1e-3 / np.sqrt(analyzer.n_input), FP16)
    assert per_feature.max() <= linf * (1 + 1e-12)


def test_a_network_ending_in_a_block_keeps_sigma(rng):
    model = Sequential(
        Linear(4, 6, rng=rng),
        Tanh(),
        ResidualBlock(Sequential(Linear(6, 6, rng=rng), Tanh())),
    )
    model.eval()
    analyzer = ErrorFlowAnalyzer(model)
    assert analyzer.spec.head is None and linf_head(analyzer.spec) is None
    assert analyzer.combined_bound_linf(1e-3, FP16) == analyzer.combined_bound(
        1e-3 * np.sqrt(4), FP16
    )
    assert analyzer.gain("linf") == analyzer.gain()


def test_a_conv_head_is_charged_its_largest_kernel_norm(rng):
    model = Sequential(Conv2d(2, 3, 3, padding=1, rng=rng), Identity(), Flatten())
    model.eval()
    analyzer = ErrorFlowAnalyzer(model, (2, 6, 6))
    kernels = model[0].weight.data.reshape(3, -1).astype(np.float64)
    assert analyzer.spec.head.row_norm == pytest.approx(
        np.linalg.norm(kernels, axis=1).max(), rel=1e-12
    )
    # an interior output attains it: perturb its receptive field along the kernel
    channel = int(np.argmax(np.linalg.norm(kernels, axis=1)))
    direction = np.zeros((2, 6, 6))
    direction[:, 1:4, 1:4] = model[0].weight.data[channel]
    direction /= np.linalg.norm(direction)
    eps = 1e-3
    moved = model((eps * direction)[None].astype(np.float32)) - model(
        np.zeros((1, 2, 6, 6), dtype=np.float32)
    )
    observed = np.abs(moved).max()
    assert observed == pytest.approx(analyzer.gain("linf") * eps, rel=1e-5)


@pytest.mark.integration
@pytest.mark.parametrize("name", ["h2combustion", "borghesi", "eurosat"])
def test_workload_linf_plans_keep_their_format_and_spend_the_tolerance(name):
    """At 1e-3, 1e-2 and 1e-1 every L-infinity plan picks the format the
    L2 quantization bound picked (the head frees compression budget, it
    does not flip formats) and ``combined_bound_linf`` at the planned
    input tolerance is the tolerance."""
    analyzer = load_workload(name).qoi_analyzer()
    planner = TolerancePlanner(analyzer)
    for tolerance in (1e-3, 1e-2, 1e-1):
        plan = planner.plan(tolerance, norm="linf")
        by_l2 = next(
            (
                fmt
                for fmt in planner.formats
                if fmt.is_identity or analyzer.quantization_bound(fmt) <= 0.5 * tolerance
            ),
            STANDARD_FORMATS["fp32"],
        )
        assert plan.fmt == by_l2
        fmt = None if plan.fmt.is_identity else plan.fmt
        assert analyzer.combined_bound_linf(plan.input_tolerance, fmt) == pytest.approx(
            tolerance, rel=1e-9
        )
