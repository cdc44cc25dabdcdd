"""Tests for the bound machinery: graph extraction, Eq. (3), soundness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ErrorFlowAnalyzer,
    compression_gain,
    extract_spec,
    propagate,
    sigma_tilde,
    step_sizes_for,
)
from repro.core.graph import LinearSpec, ResidualSpec
from repro.exceptions import ConfigurationError, ShapeError
from repro.models import resnet18, unet
from repro.nn import (
    BasicBlock,
    BatchNorm2d,
    Conv2d,
    GlobalAvgPool2d,
    Identity,
    Linear,
    ReLU,
    Sequential,
    SpectralConv2d,
    SpectralLinear,
    Tanh,
)
from repro.quant import BF16, FP16, FP32, INT8, TF32

from .oracles.bound_reference import mlp_combined_bound


# -- graph extraction ------------------------------------------------------------


def test_extract_spec_mlp(tiny_mlp):
    spec = extract_spec(tiny_mlp)
    assert spec.n_input == 6
    assert spec.n_layers == 3
    dims = [(s.n_in, s.n_out) for s in spec.linear_specs()]
    assert dims == [(6, 12), (12, 12), (12, 4)]


def test_extract_spec_uses_alpha_for_psn(rng):
    """A PSN layer's sigma is the exact norm of its deployed matrix, which
    is alpha where the power iteration converged."""
    model = Sequential(SpectralLinear(4, 4, rng=rng, alpha_init=1.5), Tanh())
    spec = extract_spec(model)
    assert spec.linear_specs()[0].sigma == pytest.approx(1.5)


def test_extract_spec_folds_batchnorm(rng):
    conv = Conv2d(3, 4, 3, rng=rng)
    bn = BatchNorm2d(4)
    bn.running_var[:] = 0.25  # scale 1/sqrt(0.25) = 2
    model = Sequential(conv, bn, ReLU(), GlobalAvgPool2d(), Linear(4, 2, rng=rng))
    spec = extract_spec(model, (3, 8, 8))
    folded_sigma = spec.linear_specs()[0].sigma
    from repro.nn import spectral_norm

    unfolded = spectral_norm(conv.matricized_weight())
    assert folded_sigma == pytest.approx(2.0 * unfolded, rel=1e-3)


def test_extract_spec_residual_block(rng):
    model = Sequential(BasicBlock(4, 8, stride=2, rng=rng), GlobalAvgPool2d(), Linear(8, 2, rng=rng))
    spec = extract_spec(model, (4, 8, 8))
    kinds = [type(item).__name__ for item in spec.chain.items]
    assert kinds == ["ResidualSpec", "LinearSpec"]
    block = spec.chain.items[0]
    assert block.shortcut is not None  # projection skip


def test_extract_spec_records_activation_lipschitz(rng):
    from repro.nn import LeakyReLU

    model = Sequential(Linear(3, 3, rng=rng), LeakyReLU(2.0), Linear(3, 3, rng=rng), Identity())
    spec = extract_spec(model)
    assert spec.linear_specs()[0].lipschitz_after == 2.0
    assert spec.linear_specs()[1].lipschitz_after == 1.0


def test_nested_sequential_extends_the_enclosing_chain(rng):
    """An activation at the head of a nested Sequential multiplies the
    operator before it, exactly as in the flat model."""
    from repro.nn import LeakyReLU

    a, b = Linear(3, 5, rng=rng), Linear(5, 2, rng=rng)
    nested = extract_spec(Sequential(a, Sequential(LeakyReLU(3.0), b)))
    flat = extract_spec(Sequential(a, LeakyReLU(3.0), b))
    assert [spec.name for spec in nested.linear_specs()] == ["0", "1.1"]
    assert nested.linear_specs()[0].lipschitz_after == 3.0
    assert compression_gain(nested) == pytest.approx(compression_gain(flat), rel=1e-15)


@pytest.mark.parametrize(
    "head",
    [
        lambda nn: nn.LeakyReLU(3.0),
        lambda nn: nn.PReLU(-2.0),
        lambda nn: nn.GELU(),
    ],
    ids=["leaky_relu", "prelu", "gelu"],
)
@pytest.mark.parametrize("where", ["model", "residual_body"])
def test_leading_activation_above_one_is_refused(head, where, rng):
    """Nothing precedes a leading activation to charge its Lipschitz
    constant to, so one above 1 is refused instead of dropped."""
    import repro.nn as nn

    if where == "model":
        model = Sequential(head(nn), Linear(4, 4, rng=rng))
    else:
        body = Sequential(head(nn), Linear(4, 4, rng=rng))
        model = Sequential(Linear(4, 4, rng=rng), nn.ResidualBlock(body))
    with pytest.raises(ConfigurationError, match="precedes every operator"):
        extract_spec(model)
    # a 1-Lipschitz head cannot raise the gain, so it still extracts
    extract_spec(Sequential(Tanh(), Linear(4, 4, rng=rng)))


def test_extract_spec_rejects_non_sequential(rng):
    with pytest.raises(ConfigurationError):
        extract_spec(Linear(3, 3, rng=rng))


def test_extract_spec_rejects_model_without_linears():
    with pytest.raises(ConfigurationError):
        extract_spec(Sequential(ReLU()))


def test_extract_spec_needs_the_shape_of_a_conv_first_model(rng):
    model = Sequential(Conv2d(3, 4, 3, rng=rng), GlobalAvgPool2d(), Linear(4, 2, rng=rng))
    with pytest.raises(ConfigurationError, match="input_shape"):
        extract_spec(model)
    for wrong in ((4, 8, 8), (3, 2, 2), (8, 8)):
        with pytest.raises(ShapeError):
            extract_spec(model, wrong)
    with pytest.raises(ShapeError):
        extract_spec(Sequential(Linear(3, 2, rng=rng)), (4,))
    spec = extract_spec(model, (3, 8, 8))
    assert spec.input_shape == (3, 8, 8) and spec.n_input == 3 * 8 * 8


@pytest.mark.parametrize("case", ["resnet18", "unet"])
def test_every_operator_knows_the_input_shape_a_hook_sees(case, rng):
    """The spec's per-operator ``in_shape`` against a hook on each operator
    of a real forward, matched by qualified name (spec order aside):
    strided stages, 1x1 shortcuts, U-Net levels and the dense head."""
    if case == "resnet18":
        model, shape = resnet18(in_channels=5, base_width=4, rng=rng), (5, 12, 12)
    else:
        model, shape = unet(in_channels=2, out_channels=1, base_width=4, depth=2, rng=rng), (2, 8, 8)
    model.eval()
    seen = {}
    handles = [
        module.register_forward_hook(lambda m, x, out, name=name: seen.setdefault(name, x.shape[1:]))
        for name, module in model.named_modules()
        if isinstance(module, (Conv2d, Linear, SpectralLinear))
    ]
    model(rng.standard_normal((2,) + shape).astype(np.float32))
    for handle in handles:
        handle.remove()
    spec = extract_spec(model, shape)
    assert {linear.name: linear.in_shape for linear in spec.linear_specs()} == seen
    assert spec.n_input == int(np.prod(shape))


def _observable_state(model) -> dict:
    """Everything a forward could move: parameters and their versions, BN
    running statistics, PSN power-iteration vectors, training flags and hooks."""
    state = {name: (p.version, p.data.tobytes()) for name, p in model.named_parameters()}
    for name, module in model.named_modules():
        state[f"{name}/flags"] = (module.training, len(module._forward_hooks))
        if hasattr(module, "running_var"):
            state[f"{name}/stats"] = module.running_mean.tobytes() + module.running_var.tobytes()
        if hasattr(module, "_power"):
            state[f"{name}/power"] = module._power.u.tobytes() + module._power.v.tobytes()
    return state


@pytest.mark.parametrize("training", [True, False], ids=["train", "eval"])
def test_extraction_and_calibration_leave_the_model_untouched(training, rng):
    model = Sequential(
        SpectralConv2d(3, 4, 3, padding=1, rng=rng),
        BatchNorm2d(4),
        ReLU(),
        BasicBlock(4, 6, stride=2, rng=rng),
        GlobalAvgPool2d(),
        SpectralLinear(6, 2, rng=rng),
    )
    model.train()
    model(rng.standard_normal((4, 3, 8, 8)).astype(np.float32))  # BN stats move once
    if not training:
        model.eval()
    before = _observable_state(model)
    analyzer = ErrorFlowAnalyzer(model, (3, 8, 8))
    assert _observable_state(model) == before
    analyzer.calibrate(rng.standard_normal((4, 3, 8, 8)).astype(np.float32))
    assert analyzer.is_calibrated and _observable_state(model) == before


# -- Eq. (3) literal vs recurrence --------------------------------------------------


@given(
    seed=st.integers(0, 2**31 - 1),
    n_layers=st.integers(1, 5),
    dx=st.floats(0.0, 1.0),
)
@settings(max_examples=60, deadline=None)
def test_recurrence_equals_literal_eq3(seed, n_layers, dx):
    """The graph recurrence must reproduce Inequality (3) exactly on chains."""
    rng = np.random.default_rng(seed)
    dims = rng.integers(2, 30, size=n_layers + 1).tolist()
    layers = []
    for i in range(n_layers):
        layers.append(Linear(dims[i], dims[i + 1], rng=rng))
        layers.append(Tanh())
    model = Sequential(*layers)
    analyzer = ErrorFlowAnalyzer(model)
    sigmas = analyzer.layer_sigmas()
    steps = analyzer.step_sizes(FP16)
    literal = mlp_combined_bound(sigmas, steps, dims, dx)
    recurrence = analyzer.combined_bound(dx, FP16)
    assert np.isclose(literal, recurrence, rtol=1e-9)


def test_sigma_tilde_formula():
    assert sigma_tilde(2.0, 0.0, 10, 20) == 2.0
    expected = 2.0 + 0.1 * np.sqrt(10) / np.sqrt(3)
    assert sigma_tilde(2.0, 0.1, 10, 20) == pytest.approx(expected)


def test_mlp_combined_bound_validates_inputs():
    with pytest.raises(ConfigurationError):
        mlp_combined_bound([1.0], [0.1, 0.2], [2, 3], 0.0)


def test_bound_monotone_in_input_error(trained_spectral_mlp):
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    bounds = [analyzer.combined_bound(dx, FP16) for dx in (0.0, 1e-4, 1e-2, 1.0)]
    assert all(a < b for a, b in zip(bounds, bounds[1:]))


def test_bound_ordering_across_formats(trained_spectral_mlp):
    """Fig. 5/6 ordering: TF32 ~= FP16 < BF16 < INT8."""
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    tf32 = analyzer.quantization_bound(TF32)
    fp16 = analyzer.quantization_bound(FP16)
    bf16 = analyzer.quantization_bound(BF16)
    int8 = analyzer.quantization_bound(INT8)
    assert tf32 == pytest.approx(fp16, rel=1e-6)
    assert bf16 > 5 * fp16
    assert int8 > bf16


def test_fp32_quantization_bound_is_zero(trained_spectral_mlp):
    analyzer = ErrorFlowAnalyzer(trained_spectral_mlp)
    assert analyzer.quantization_bound(FP32) == 0.0


def test_compression_gain_composes_residual(rng):
    """Identity-skip block: gain = 1 + prod(sigma); chain multiplies."""
    body = Sequential(Linear(4, 4, rng=rng), ReLU(), Linear(4, 4, rng=rng))
    from repro.nn import ResidualBlock

    model = Sequential(ResidualBlock(body), Linear(4, 2, rng=rng), Identity())
    spec = extract_spec(model)
    sigmas = [s.sigma for s in spec.linear_specs()]
    expected = (1.0 + sigmas[0] * sigmas[1]) * sigmas[2]
    assert compression_gain(spec) == pytest.approx(expected, rel=1e-9)


def test_propagate_signal_seeded_with_sqrt_n0(tiny_mlp):
    spec = extract_spec(tiny_mlp)
    steps = step_sizes_for(spec, None)
    state = propagate(spec, input_error_l2=0.0, steps=steps)
    assert state.delta == 0.0
    assert state.signal > 0.0


def test_step_sizes_for_mixed_formats(tiny_mlp):
    spec = extract_spec(tiny_mlp)
    steps = step_sizes_for(spec, [FP16, None, INT8])
    values = [steps[id(s)] for s in spec.linear_specs()]
    assert values[0] > 0 and values[1] == 0.0 and values[2] > 0


def test_step_sizes_for_wrong_count(tiny_mlp):
    spec = extract_spec(tiny_mlp)
    with pytest.raises(ConfigurationError):
        step_sizes_for(spec, [FP16])
