"""Tests for the compiled multi-backend execution engine.

The contract under test is *bit-exactness*: for every supported model the
fused backend must return ``np.array_equal`` outputs to the interpreted
reference path — across activations, spectral
parameterization, residual skips, and every Table-I numeric format — and
must fall back to the interpreter, with the reason recorded, whenever
running the kernel could change observable behavior.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import ErrorFlowAnalyzer, InferencePipeline, TolerancePlanner
from repro.compress import SZCompressor
from repro.exceptions import ConfigurationError, LoweringError, ShapeError
from repro.models import borghesi_net, build_mlp, resnet, resnet18, unet
from repro.nn import (
    Conv2d,
    Identity,
    Linear,
    Module,
    PReLU,
    ReLU,
    Sequential,
    SpectralConv2d,
    Tanh,
)
from repro.nn.backend import (
    BACKEND_NAMES,
    CompiledForward,
    generate_fused_source,
    lower,
    resolve_backend_name,
)
from repro.nn.residual import ResidualBlock
from repro.quant import STANDARD_FORMATS, quantize_model
from tests.oracles.activation_reference import reference_forward


def _compiled(model, backend="fused"):
    model.eval()
    return CompiledForward(model, backend)


# -- bit-exactness: fused vs reference ---------------------------------------


ACTIVATION_NAMES = ["relu", "leaky_relu", "prelu", "tanh", "sigmoid", "gelu"]


@given(
    widths=st.lists(st.integers(1, 9), min_size=0, max_size=3),
    activation=st.sampled_from(ACTIVATION_NAMES),
    spectral=st.booleans(),
    fmt=st.sampled_from(sorted(STANDARD_FORMATS)),
    batch=st.integers(1, 5),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_fused_bit_exact_random_chain(widths, activation, spectral, fmt, batch, seed):
    """Random chain models x Table-I formats: fused == reference, bitwise."""
    rng = np.random.default_rng(seed)
    model = build_mlp(4, widths, 3, activation=activation, spectral=spectral, rng=rng)
    quantized = quantize_model(model, STANDARD_FORMATS[fmt]).model
    x = rng.standard_normal((batch, 4)).astype(np.float32)

    forward = _compiled(quantized)
    expected = quantized(x)
    actual = forward(x)
    assert forward.last_fallback_reason is None
    assert actual.dtype == expected.dtype
    assert np.array_equal(actual, expected)


def _residual_model(rng):
    body = Sequential(Linear(6, 6, rng=rng), Tanh(), Linear(6, 6, rng=rng))
    return Sequential(
        Linear(4, 6, rng=rng),
        ReLU(),
        ResidualBlock(body, post_activation=Tanh()),
        ResidualBlock(Sequential(Linear(6, 6, rng=rng)), shortcut=Linear(6, 6, rng=rng)),
        Linear(6, 2, rng=rng),
        Identity(),
    )


@given(batch=st.integers(1, 6), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_fused_bit_exact_residual(batch, seed):
    rng = np.random.default_rng(seed)
    model = _residual_model(rng)
    x = rng.standard_normal((batch, 4)).astype(np.float32)
    forward = _compiled(model)
    assert np.array_equal(forward(x), model(x))
    assert forward.last_fallback_reason is None


def test_fused_bit_exact_nonfinite_inputs(rng):
    """NaN/inf survive the compiled path unchanged (equal_nan semantics)."""
    model = build_mlp(4, [8], 3, activation="tanh", spectral=False, rng=rng)
    model.eval()
    x = rng.standard_normal((8, 4)).astype(np.float32)
    x[0, 0] = np.nan
    x[1, 1] = np.inf
    x[2, 2] = -np.inf
    forward = CompiledForward(model, "fused")
    assert np.array_equal(forward(x), model(x), equal_nan=True)


# -- conv programs: PSN ResNets run compiled ----------------------------------


def _psn_resnet18(rng):
    return resnet18(in_channels=5, base_width=4, rng=rng)


def _psn_resnet8(rng):
    return resnet(8, in_channels=3, base_width=4, rng=rng, spectral=True)


_CONV_MODELS = {"resnet18": (_psn_resnet18, 5), "resnet8": (_psn_resnet8, 3)}


@pytest.mark.parametrize("name", sorted(_CONV_MODELS))
@pytest.mark.parametrize("quantized", [False, True], ids=["psn", "conv2d-folded"])
def test_fused_bit_exact_psn_resnets(name, quantized, rng):
    """Both paths run ``functional.conv2d`` on the same operands: batch
    sizes 1/7/30 and two image sizes through ONE kernel, each shape twice
    so the second pass runs on recycled buffers."""
    build, channels = _CONV_MODELS[name]
    model = build(rng)
    model.eval()
    if quantized:
        model = quantize_model(model, STANDARD_FORMATS["fp16"]).model
    forward = _compiled(model)
    shapes = [(1, 8), (7, 8), (30, 8), (7, 12), (1, 8), (7, 12), (30, 8)]
    for batch, size in shapes:
        x = rng.standard_normal((batch, channels, size, size)).astype(np.float32)
        expected = model(x)
        actual = forward(x)
        assert forward.last_fallback_reason is None
        assert actual.dtype == expected.dtype and actual.shape == (batch, 10)
        assert np.array_equal(actual, expected)
    assert forward.stats["lowerings"] == 1 and forward.stats["compiles"] == 1
    assert forward.stats["fallbacks"] == 0


def test_fused_conv_feature_map_is_fresh_and_contiguous(rng):
    """The QoI model ends at the pool: the returned (N, C) array must not
    alias a buffer the next call overwrites."""
    model = Sequential(*list(_psn_resnet18(rng))[:-1])
    forward = _compiled(model)
    x = rng.standard_normal((3, 5, 8, 8)).astype(np.float32)
    first = forward(x)
    kept = first.copy()
    second = forward(x + 1.0)
    assert first.flags.c_contiguous and first.shape == (3, 32)
    assert np.array_equal(first, kept) and not np.array_equal(first, second)
    assert np.array_equal(first, model(x))


def test_fused_tail_conv_returns_a_fresh_array(rng):
    model = Sequential(Conv2d(2, 3, 3, padding=1, rng=rng), ReLU(), Conv2d(3, 2, 1, rng=rng))
    forward = _compiled(model)
    x = rng.standard_normal((2, 2, 5, 5)).astype(np.float32)
    first = forward(x)
    kept = first.copy()
    forward(x * 2.0)
    assert forward.last_fallback_reason is None
    assert np.array_equal(first, kept) and np.array_equal(first, model(x))


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_fused_conv_bit_exact_nonfinite_inputs(rng):
    """NaN, both infinities and -0.0 through bias, in-place ReLU, residual
    add and pool.  ReLU zeroes a NaN and inf - inf makes new ones, so the
    prefixes of the network are compared as well as the whole."""
    layers = list(_psn_resnet18(rng))
    x = rng.standard_normal((4, 5, 8, 8)).astype(np.float32)
    x[0, 0, 0, 0] = np.nan
    x[1, 1, 2, 3] = np.inf
    x[2, 2, 4, 4] = -np.inf
    x[3, :, 1, 1] = -0.0
    seen_nan = seen_inf = False
    for depth in (1, 2, 3, len(layers)):
        model = Sequential(*layers[:depth])
        forward = _compiled(model)
        expected = model(x)
        seen_nan |= bool(np.isnan(expected).any())
        seen_inf |= bool(np.isinf(expected).any())
        assert np.array_equal(forward(x), expected, equal_nan=True)
        assert forward.last_fallback_reason is None
    assert seen_nan and seen_inf


@pytest.mark.parametrize("dtype", [np.float16, np.float32, np.float64])
def test_inplace_relu_has_np_where_bytes(dtype):
    """The in-place ReLU the codegen emits vs the reference expression,
    byte for byte on every special value (sign of zero included)."""
    tiny = np.finfo(dtype).tiny
    v = np.array(
        [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 1.5, -1.5, tiny / 2, -tiny / 2,
         np.finfo(dtype).max, -np.finfo(dtype).max],
        dtype=dtype,
    )
    expected = np.where(v > 0, v, 0.0)
    # multiplying by one on both sides keeps every byte; the second
    # linear makes the ReLU a non-tail op, where in-place is legal
    model = Sequential(Linear(1, 1, bias=False), ReLU(), Linear(1, 1, bias=False))
    for layer in (model.layers[0], model.layers[2]):
        layer.weight.data = np.ones((1, 1), dtype=dtype)
    actual = _compiled(model)(v[:, None])
    assert "_relu(v0, out=v0)" in generate_fused_source(lower(model))
    assert actual.dtype == expected.dtype
    assert actual[:, 0].tobytes() == expected.tobytes()


@pytest.mark.parametrize("quantized", [False, True], ids=["fp32", "fp16-twin"])
def test_borghesi_net_fused_interpreter_and_oracle_agree(quantized, rng):
    """The 8-hidden-layer PReLU MLP of the Borghesi workload: fused ==
    interpreter == the ``np.where`` walk, bit for bit, at batch 1, 7 and
    16384 off one lowering and one compile."""
    model = borghesi_net(rng=rng)
    if quantized:
        model = quantize_model(model, STANDARD_FORMATS["fp16"]).model
    forward = CompiledForward(model.eval(), "fused", instrument=True)
    for batch in (1, 7, 16384, 7):
        x = rng.standard_normal((batch, 13)).astype(np.float32)
        expected = model(x)
        actual = forward(x)
        assert forward.last_fallback_reason is None
        assert actual.dtype == expected.dtype
        assert np.array_equal(actual, expected)
        assert np.array_equal(reference_forward(model, x), expected)
        # the caller keeps its result: the next call (same buffer set)
        # must not write into it
        kept = actual.copy()
        forward(rng.standard_normal((batch, 13)).astype(np.float32))
        assert np.array_equal(actual, kept)
    assert forward.stats["lowerings"] == 1 and forward.stats["compiles"] == 1
    assert forward.stats["fallbacks"] == 0
    assert forward.op_labels.count("prelu") == 8
    assert forward.op_labels.count("linear") == 9
    assert len(forward.op_labels) == 17


def test_prelu_is_in_place_only_where_legal(rng):
    """A PReLU that is the tail op, or whose operand is a pending residual
    skip, takes the ``out=None`` form; elsewhere it writes its operand."""
    tail = Sequential(Linear(4, 4, rng=rng), PReLU(), Identity())
    assert "v1 = _prelu(v0, s1)\n" in generate_fused_source(lower(tail.eval()))

    body = Sequential(PReLU(0.3), Linear(4, 4, rng=rng), PReLU(1.5))
    model = Sequential(
        Linear(4, 4, rng=rng), ResidualBlock(body), PReLU(0.1), Linear(4, 2, rng=rng)
    )
    source = generate_fused_source(lower(model.eval()))
    assert "v1 = _prelu(v0, s2)\n" in source  # v0 is the skip operand
    assert "v2 = _prelu(v2, s4, out=v2)\n" in source
    assert "v3 = _prelu(v3, s5, out=v3)\n" in source  # the fresh residual sum
    assert "np.where" not in source
    for net in (tail, model):
        x = rng.standard_normal((5, 4)).astype(np.float32)
        assert np.array_equal(_compiled(net)(x), net(x))


def test_conv_input_guard_falls_back_with_input_shape(rng):
    model = _psn_resnet18(rng)
    forward = _compiled(model)
    forward(rng.standard_normal((1, 5, 8, 8)).astype(np.float32))
    assert lower(model).input_spec == ("4d", 5)
    for shape in ((1, 4, 8, 8), (5, 8, 8), (2, 5)):
        with pytest.raises(ShapeError):
            forward(np.zeros(shape, dtype=np.float32))
        assert forward.last_fallback_reason == "input-shape"
    # right rank and channels, but no room for the kernel: the compiled
    # kernel raises what the interpreter raises
    tiny = Sequential(Conv2d(2, 2, 3, rng=rng))
    with pytest.raises(ShapeError, match="does not fit"):
        _compiled(tiny)(np.zeros((1, 2, 2, 2), dtype=np.float32))


def test_instrumented_conv_labels(rng):
    model = _psn_resnet18(rng)
    model.eval()
    timed = CompiledForward(model, "fused", instrument=True)
    x = rng.standard_normal((2, 5, 8, 8)).astype(np.float32)
    assert np.array_equal(timed(x), model(x))
    labels = timed.op_labels
    assert labels.count("conv") == 20 and labels.count("global_avg_pool") == 1
    assert {"relu", "residual_add", "linear"} <= set(labels)
    assert len(timed.last_op_seconds) == len(labels)


@pytest.mark.parametrize(
    "build, module_name",
    [
        (lambda rng: resnet18(in_channels=3, base_width=4, rng=rng, spectral=False), "BatchNorm2d"),
        (lambda rng: resnet(8, base_width=4, rng=rng), "BatchNorm2d"),
        (lambda rng: unet(base_width=4, depth=1, rng=rng), "UNetLevel"),
    ],
    ids=["bn-resnet18", "bn-resnet8", "unet"],
)
def test_unlowered_conv_models_name_the_first_unsupported_module(build, module_name, rng):
    model = build(rng)
    forward = _compiled(model)
    channels = 1 if module_name == "UNetLevel" else 3
    x = rng.standard_normal((2, channels, 8, 8)).astype(np.float32)
    assert np.array_equal(forward(x), model(x))
    assert forward.last_fallback_reason.startswith(f"module {module_name} has no lowering rule")


def test_spectral_conv_in_training_mode_is_not_lowered(rng):
    model = Sequential(SpectralConv2d(2, 2, 3, rng=rng))
    model.train()
    with pytest.raises(LoweringError, match="SpectralConv2d in training mode"):
        lower(model)


# -- fallback matrix ---------------------------------------------------------


def test_forward_hook_forces_fallback_then_resumes(tiny_mlp, rng):
    """Hook registration (audit lockstep) must route through the interpreter."""
    tiny_mlp.eval()
    forward = CompiledForward(tiny_mlp, "fused")
    x = rng.standard_normal((4, 6)).astype(np.float32)
    assert forward.last_fallback_reason is None

    forward(x)  # compiled path first, proves the hook check is per-call
    seen = []
    handle = tiny_mlp.register_forward_hook(lambda m, i, o: seen.append(m))
    hooked = forward(x)
    assert forward.last_fallback_reason == "forward-hooks"
    assert seen, "fallback must actually run the hooked interpreter"
    assert np.array_equal(hooked, tiny_mlp(x))

    handle.remove()
    seen.clear()
    forward(x)
    assert forward.last_fallback_reason is None
    assert not seen


def test_training_mode_forces_fallback(tiny_mlp, rng):
    tiny_mlp.train()
    forward = CompiledForward(tiny_mlp, "fused")
    x = rng.standard_normal((2, 6)).astype(np.float32)
    assert np.array_equal(forward(x), tiny_mlp(x))
    assert forward.last_fallback_reason == "training-mode"
    tiny_mlp.eval()
    forward(x)
    assert forward.last_fallback_reason is None


class _Opaque(Module):
    """A module the lowering pass has no rule for."""

    def forward(self, x):
        return x * 2.0


def test_unsupported_module_falls_back_and_memoizes(rng, monkeypatch):
    model = Sequential(Linear(4, 4, rng=rng), _Opaque())
    model.eval()
    import repro.nn.backend.base as base_mod

    attempts = []
    real_lower = base_mod.lower
    monkeypatch.setattr(
        base_mod, "lower", lambda m: attempts.append(m) or real_lower(m)
    )
    forward = CompiledForward(model, "fused")
    x = rng.standard_normal((2, 4)).astype(np.float32)
    assert np.array_equal(forward(x), model(x))
    assert "_Opaque" in forward.last_fallback_reason
    forward(x)
    # lowering is attempted once per weight version, not once per call
    assert len(attempts) == 1
    assert forward.stats["fallbacks"] == 2


def test_input_shape_and_dtype_guards(tiny_mlp, rng):
    tiny_mlp.eval()
    forward = CompiledForward(tiny_mlp, "fused")
    # Linear broadcasts over leading dims; the 2-d kernel envelope does not
    batched_3d = rng.standard_normal((2, 3, 6)).astype(np.float32)
    assert np.array_equal(forward(batched_3d), tiny_mlp(batched_3d))
    assert forward.last_fallback_reason == "input-shape"
    ints = np.ones((2, 6), dtype=np.int32)
    assert np.array_equal(forward(ints), tiny_mlp(ints))
    assert forward.last_fallback_reason == "input-dtype"


def test_lowering_rejects_training_spectral(rng):
    model = build_mlp(4, [5], 2, activation="tanh", spectral=True, rng=rng)
    model.train()
    with pytest.raises(LoweringError):
        lower(model)


# -- staleness / recompile discipline ----------------------------------------


def test_exactly_one_lowering_across_calls_and_batch_sizes(tiny_mlp, rng):
    """Warm cache: one lowering and one compile per (structure, weight_version)."""
    tiny_mlp.eval()
    forward = CompiledForward(tiny_mlp, "fused")
    for batch in (1, 3, 7, 3, 1, 64):
        x = rng.standard_normal((batch, 6)).astype(np.float32)
        assert np.array_equal(forward(x), tiny_mlp(x))
    assert forward.stats["lowerings"] == 1
    assert forward.stats["compiles"] == 1
    assert forward.stats["fallbacks"] == 0


def test_weight_update_invalidates_kernel(tiny_mlp, rng):
    """Regression: a stale kernel must never serve old weights."""
    tiny_mlp.eval()
    forward = CompiledForward(tiny_mlp, "fused")
    x = rng.standard_normal((3, 6)).astype(np.float32)
    before = forward(x)
    assert np.array_equal(before, tiny_mlp(x))

    lin = next(m for m in tiny_mlp.modules() if isinstance(m, Linear))
    lin.weight.data = lin.weight.data * 1.5  # setter bumps the version counter

    after = forward(x)
    assert forward.stats["lowerings"] == 2, "version bump must force a recompile"
    assert np.array_equal(after, tiny_mlp(x))
    assert not np.array_equal(after, before)


# -- backend selection (CLI / env contract) ----------------------------------


def test_resolve_backend_names(monkeypatch):
    monkeypatch.delenv("REPRO_BACKEND", raising=False)
    assert resolve_backend_name(None) == "fused"  # auto default
    assert resolve_backend_name("auto") == "fused"
    assert resolve_backend_name("reference") == "reference"
    assert resolve_backend_name(" Fused ") == "fused"
    assert set(BACKEND_NAMES) == {"auto", "reference", "fused"}


def test_resolve_backend_env(monkeypatch):
    monkeypatch.setenv("REPRO_BACKEND", "reference")
    assert resolve_backend_name(None) == "reference"
    monkeypatch.setenv("REPRO_BACKEND", "bogus")
    with pytest.raises(ConfigurationError):
        resolve_backend_name(None)


def test_resolve_backend_rejects_unknown():
    for name in ("cuda", "numba"):  # the optional numba backend was deleted
        with pytest.raises(ConfigurationError) as excinfo:
            resolve_backend_name(name)
        assert "auto|reference|fused, got" in str(excinfo.value)


# -- end-to-end: pipeline, planner and audit parity --------------------------


def _run_pipeline(model, fields, backend):
    planner = TolerancePlanner(ErrorFlowAnalyzer(model))
    plan = planner.plan(5e-2, norm="linf", quant_fraction=0.5)
    pipeline = InferencePipeline(model, SZCompressor(), plan, backend=backend)
    return plan, pipeline.execute(fields)


def test_pipeline_identical_across_backends(trained_spectral_mlp):
    x = np.linspace(0, 2 * np.pi, 32)
    xx, yy = np.meshgrid(x, x)
    fields = np.stack(
        [np.sin((i + 1) * xx) * np.cos(yy) * 0.8 for i in range(5)]
    ).astype(np.float32)

    plan_ref, ref = _run_pipeline(trained_spectral_mlp, fields, "reference")
    plan_fused, fused = _run_pipeline(trained_spectral_mlp, fields, "fused")

    # planner decisions are backend-independent
    assert plan_ref.fmt == plan_fused.fmt
    assert plan_ref.input_tolerance == plan_fused.input_tolerance
    # and so is every observable output bit
    assert np.array_equal(ref.outputs, fused.outputs)
    assert np.array_equal(ref.reference_outputs, fused.reference_outputs)
    assert ref.qoi_error("linf", relative=False) == fused.qoi_error(
        "linf", relative=False
    )
    assert fused.extra["backend"]["name"] == "fused"
    assert "fallback_quant" not in fused.extra["backend"]
    assert ref.extra["backend"]["name"] == "reference"


def test_audit_verdicts_identical_across_backends(trained_spectral_mlp, rng, monkeypatch):
    from repro.obs.audit import LayerwiseErrorRecorder

    clean = rng.uniform(-1, 1, (64, 5)).astype(np.float32)
    perturbed = clean + rng.uniform(-1e-3, 1e-3, clean.shape).astype(np.float32)
    quantized = quantize_model(trained_spectral_mlp, STANDARD_FORMATS["fp16"])

    records = {}
    for backend in ("reference", "fused"):
        monkeypatch.setenv("REPRO_BACKEND", backend)
        recorder = LayerwiseErrorRecorder(trained_spectral_mlp, quantized)
        records[backend] = recorder.audit(clean, perturbed)

    ref, fused = records["reference"], records["fused"]
    assert ref.verdict == fused.verdict
    assert ref.qoi_observed == fused.qoi_observed
    assert ref.qoi_predicted == fused.qoi_predicted
    assert [layer.verdict for layer in ref.layers] == [
        layer.verdict for layer in fused.layers
    ]


# -- instrumented per-op timing variant --------------------------------------


def test_instrumented_kernel_bit_exact_and_timed(tiny_mlp, rng):
    """Timing brackets wrap the same expressions: identical arrays out,
    one wall-time slot per lowered op in."""
    x = rng.standard_normal((4, 6)).astype(np.float32)
    fast = _compiled(tiny_mlp)
    timed = CompiledForward(tiny_mlp, "fused", instrument=True)
    assert np.array_equal(timed(x), fast(x))
    assert np.array_equal(timed(x), tiny_mlp(x))
    labels = timed.op_labels
    seconds = timed.last_op_seconds
    assert labels and len(seconds) == len(labels)
    assert all(value >= 0.0 for value in seconds)
    # the fast path never grows timing state
    assert fast.last_op_seconds is None and fast.op_labels is None


def test_instrumented_labels_match_codegen(tiny_mlp):
    from repro.nn.backend import instrumented_op_labels

    tiny_mlp.eval()
    program = lower(tiny_mlp)
    labels = instrumented_op_labels(program)
    timed = CompiledForward(tiny_mlp, "fused", instrument=True)
    timed(np.zeros((1, 6), dtype=np.float32))
    assert timed.op_labels == labels
    # deterministic re-derivation: same program, same label order
    assert instrumented_op_labels(program) == labels


def test_two_instrumented_wrappers_hold_distinct_kernels(tiny_mlp, rng):
    """No kernel is shared between wrappers of one model: each has its
    own scratch buffers and its own ``last_op_seconds``."""
    x = rng.standard_normal((4, 6)).astype(np.float32)
    expected = _compiled(tiny_mlp, "reference")(x)
    first = CompiledForward(tiny_mlp, "fused", instrument=True)
    second = CompiledForward(tiny_mlp, "fused", instrument=True)
    assert np.array_equal(first(x), expected)
    assert second.last_op_seconds is None  # first's call is not second's
    first_seconds = first.last_op_seconds
    assert np.array_equal(second(x), expected)
    assert first._kernel is not second._kernel
    assert first.last_op_seconds is first_seconds
    assert second.last_op_seconds is not first_seconds
    assert len(second.last_op_seconds) == len(first_seconds) == len(first.op_labels)


def test_instrument_ignored_off_fused(tiny_mlp):
    assert not CompiledForward(tiny_mlp, "reference", instrument=True).instrument


def test_instrumented_call_feeds_op_seconds_histogram(tiny_mlp, rng):
    from repro import obs

    tiny_mlp.eval()
    x = rng.standard_normal((2, 6)).astype(np.float32)
    timed = CompiledForward(tiny_mlp, "fused", instrument=True)
    with obs.capture() as (_, metrics):
        timed(x)
        timed(x)
        for index, label in enumerate(timed.op_labels):
            histogram = metrics.histogram("backend_op_seconds", op=label, index=index)
            assert histogram.count == 2


def test_pipeline_instrument_ops_lands_in_result_extra(trained_spectral_mlp, rng):
    x = np.linspace(0, 2 * np.pi, 24)
    xx, yy = np.meshgrid(x, x)
    fields = np.stack(
        [np.sin((i + 1) * xx) * np.cos(yy) * 0.8 for i in range(5)]
    ).astype(np.float32)
    plan = TolerancePlanner(ErrorFlowAnalyzer(trained_spectral_mlp)).plan(
        1e-2, norm="linf", quant_fraction=0.5
    )
    pipeline = InferencePipeline(
        trained_spectral_mlp, SZCompressor(), plan, backend="fused",
        instrument_ops=True,
    )
    result = pipeline.execute(fields)
    backend_info = result.extra["backend"]
    assert backend_info["op_labels"]
    assert len(backend_info["op_seconds"]) == len(backend_info["op_labels"])
    plain = InferencePipeline(
        trained_spectral_mlp, SZCompressor(), plan, backend="fused"
    )
    assert "op_seconds" not in plain.execute(fields).extra["backend"]


# -- ops-plane gauges --------------------------------------------------------


def test_compiled_active_gauge_tracks_kernel_vs_fallback(tiny_mlp, rng):
    from repro import obs

    x = rng.standard_normal((2, 6)).astype(np.float32)
    with obs.capture() as (_, metrics):
        compiled = _compiled(tiny_mlp)
        compiled(x)
        active = metrics.gauge("backend_compiled_active", backend="fused")
        assert active.value == 1.0
        compiled(x.astype(np.int64))  # dtype guard: interpreter fallback
        assert active.value == 0.0
        assert (
            metrics.gauge(
                "backend_last_fallback_info", backend="fused", reason="input-dtype"
            ).value
            == 1.0
        )
        compiled(x)
        assert active.value == 1.0


def test_last_fallback_info_gauge_switches_reason_labels(tiny_mlp, rng):
    from repro import obs

    x = rng.standard_normal((2, 6)).astype(np.float32)
    with obs.capture() as (_, metrics):
        compiled = _compiled(tiny_mlp)
        compiled(x.astype(np.int64))
        tiny_mlp.train()
        compiled(x)
        tiny_mlp.eval()
        info = lambda reason: metrics.gauge(
            "backend_last_fallback_info", backend="fused", reason=reason
        ).value
        # exactly one reason label holds 1.0: the latest cause
        assert info("input-dtype") == 0.0
        assert info("training-mode") == 1.0


# -- a run leaves nothing behind ---------------------------------------------


@pytest.mark.integration
def test_pipeline_run_writes_nothing_under_home(tmp_path):
    """Compiled kernels live in the process: no per-user kernel directory."""
    home = tmp_path / "home"
    home.mkdir()
    env = dict(os.environ, HOME=str(home))
    env["PYTHONPATH"] = os.path.join(os.path.dirname(__file__), "..", "src")
    run = subprocess.run(
        [sys.executable, "-m", "repro", "pipeline", "h2combustion", "--tolerance", "1e-3"],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    assert "tolerance honoured" in run.stdout + run.stderr
    assert list(home.iterdir()) == []
