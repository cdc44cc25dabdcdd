"""Tests for activation layers: values, derivatives, Lipschitz constants,
and the branch-free kernels against their ``np.where`` oracles."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import TrainingError
from repro.nn import functional as F
from repro.nn import (
    ACTIVATIONS,
    GELU,
    Identity,
    LeakyReLU,
    PReLU,
    ReLU,
    Sigmoid,
    Tanh,
    make_activation,
)
from tests.oracles.activation_reference import ACTIVATION_REFERENCES


def _numeric_derivative(activation, x, eps=1e-6):
    return (activation.forward(x + eps) - activation.forward(x - eps)) / (2 * eps)


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_registry_instantiates(name):
    activation = make_activation(name)
    out = activation(np.linspace(-2, 2, 11))
    assert out.shape == (11,)


def test_make_activation_unknown():
    with pytest.raises(ValueError, match="unknown activation"):
        make_activation("swishish")


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_backward_matches_numeric_derivative(name, rng):
    activation = make_activation(name)
    x = rng.standard_normal(64)
    activation.forward(x)
    analytic = activation.backward(np.ones_like(x))
    numeric = _numeric_derivative(make_activation(name), x)
    # Kinks (ReLU at 0) can disagree pointwise; our samples avoid exact 0.
    assert np.allclose(analytic, numeric, atol=1e-4)


@pytest.mark.parametrize("name", sorted(ACTIVATIONS))
def test_lipschitz_bounds_numeric_derivative(name, rng):
    activation = make_activation(name)
    x = rng.standard_normal(2000) * 3.0
    numeric = _numeric_derivative(activation, x)
    assert np.max(np.abs(numeric)) <= activation.lipschitz + 1e-3


def test_relu_values():
    out = ReLU()(np.array([-1.0, 0.0, 2.0]))
    assert np.array_equal(out, [0.0, 0.0, 2.0])


def test_leaky_relu_slope():
    layer = LeakyReLU(0.1)
    out = layer(np.array([-10.0, 10.0]))
    assert np.allclose(out, [-1.0, 10.0])
    assert layer.lipschitz == 1.0


def test_leaky_relu_lipschitz_above_one():
    assert LeakyReLU(2.0).lipschitz == 2.0


def test_prelu_learns_slope(rng):
    layer = PReLU(init_slope=0.2)
    x = np.array([[-2.0, 3.0]])
    layer(x)
    layer.backward(np.ones_like(x))
    # gradient wrt slope is sum over negative inputs of grad * x = -2
    assert np.isclose(layer.slope.grad[0], -2.0)


def test_prelu_lipschitz_tracks_slope():
    layer = PReLU(init_slope=1.5)
    assert layer.lipschitz == 1.5
    layer.slope.data[0] = 0.3
    assert layer.lipschitz == 1.0


def test_tanh_bounded():
    out = Tanh()(np.array([-100.0, 100.0]))
    assert np.allclose(out, [-1.0, 1.0])


def test_sigmoid_lipschitz_quarter():
    assert Sigmoid().lipschitz == 0.25


def test_gelu_matches_reference():
    special = pytest.importorskip("scipy.special")

    x = np.linspace(-4, 4, 101)
    exact = 0.5 * x * (1.0 + special.erf(x / np.sqrt(2.0)))
    approx = GELU()(x)
    assert np.allclose(approx, exact, atol=2e-3)


def test_identity_passthrough(rng):
    x = rng.standard_normal(10)
    layer = Identity()
    assert np.array_equal(layer(x), x)
    assert np.array_equal(layer.backward(x), x)


def test_eval_forward_keeps_no_backward_state(rng):
    """An eval forward pins nothing; backward after it is refused."""
    x = rng.standard_normal((4, 3)).astype(np.float32)
    for name in sorted(set(ACTIVATIONS) - {"identity"}):
        layer = make_activation(name)
        layer.eval()
        expected = make_activation(name)(x)
        assert np.array_equal(layer(x), expected)
        state = [v for k, v in vars(layer).items() if k in ("_mask", "_x", "_y")]
        assert state == [None], name
        with pytest.raises(TrainingError, match="training-mode forward"):
            layer.backward(np.ones_like(x))
        layer.train()
        layer(x)
        assert layer.backward(np.ones_like(x)).shape == x.shape


# -- kernels vs oracle expressions ---------------------------------------------

_DTYPES = (np.float16, np.float32, np.float64)
_SLOPES = (0.0, 0.25, -0.25, 0.2137, 1.0, 1.5, 3.0, float("nan"), float("inf"))
_SLOPED = ("leaky_relu", "prelu")


def _pool(dtype) -> np.ndarray:
    info = np.finfo(dtype)
    specials = [0.0, np.inf, np.nan, info.smallest_subnormal, info.tiny, info.max]
    ordinary = [1.0, 0.3, 1e-3, 5.0]
    values = np.array(specials + ordinary, dtype=dtype)
    return np.concatenate([values, -values])


#: how a test array is cut out of a flat buffer of 2 * n values
_VIEWS = {
    "contiguous": lambda base, n: base[:n],
    "strided": lambda base, n: base[::2],
    "transposed": lambda base, n: base.reshape(2, n).T,
    "2d": lambda base, n: base[: n - n % 2].reshape(-1, 2),
}


@st.composite
def _cases(draw):
    dtype = draw(st.sampled_from(_DTYPES))
    n = draw(st.sampled_from([0, 1, 3, 8, 17, 33, 100]))
    picks = draw(
        st.lists(st.integers(0, len(_pool(dtype)) - 1), min_size=2 * n, max_size=2 * n)
    )
    base = _pool(dtype)[np.asarray(picks, dtype=np.intp)]
    view = _VIEWS[draw(st.sampled_from(sorted(_VIEWS)))]
    kind = draw(st.sampled_from(sorted(ACTIVATION_REFERENCES)))
    args = ()
    if kind in _SLOPED:
        slope = draw(st.sampled_from(_SLOPES))
        args = (draw(st.sampled_from([np.float32, float]))(slope),)
    return kind, args, base, lambda buffer: view(buffer, n)


def _same(actual: np.ndarray, expected: np.ndarray, nan_sign: bool = True) -> bool:
    if actual.dtype != expected.dtype or actual.shape != expected.shape:
        return False
    if not nan_sign:
        actual = np.where(np.isnan(actual), np.nan, actual)
        expected = np.where(np.isnan(expected), np.nan, expected)
    return actual.tobytes() == expected.tobytes()


@given(_cases())
@settings(max_examples=400, deadline=None)
def test_kernel_bytes_and_dtype_equal_oracle(case):
    """Every kernel == its reference expression: bytes (sign of zero, NaN
    sign and payload included) and dtype, fresh and written in place."""
    kind, args, base, cut = case
    kernel, reference = F.ACTIVATION_KERNELS[kind], ACTIVATION_REFERENCES[kind]
    with np.errstate(all="ignore"):
        x = cut(base)
        pristine = x.copy()
        expected = reference(x, *args)
        actual = kernel(x, *args)
        assert _same(actual, expected), (kind, args, x.dtype, x.strides)
        assert not np.shares_memory(actual, x)
        assert x.tobytes() == pristine.tobytes()  # out=None never writes x

        # out=x (aliasing) on an identically laid out copy.  A GELU of NaN
        # multiplies two different NaNs, and which one numpy's strided and
        # contiguous loops keep differs (the oracle itself returns another
        # NaN sign for a strided and a contiguous copy of the same values)
        alias = cut(base.copy())
        written = kernel(alias, *args, out=alias)
        assert _same(written, expected, nan_sign=kind != "gelu")
        if expected.dtype == alias.dtype:
            assert written is alias
        else:  # e.g. float16 activations * float32 slope: never written
            assert alias.tobytes() == pristine.tobytes()


@pytest.mark.parametrize("kind", sorted(ACTIVATION_REFERENCES))
@pytest.mark.parametrize("dtype", _DTYPES)
def test_zero_dimensional_input_equals_oracle(kind, dtype):
    """0-d arrays and NumPy scalars, where a ufunc hands back a scalar
    that a later in-place step could not write into."""
    slopes = [(np.float32(0.25),), (1.5,), (0.0,)] if kind in _SLOPED else [()]
    kernel, reference = F.ACTIVATION_KERNELS[kind], ACTIVATION_REFERENCES[kind]
    for value in (-2.0, -0.0, 1.5, np.nan, -np.inf):
        for x in (np.array(value, dtype=dtype), dtype(value)):
            for args in slopes:
                with np.errstate(all="ignore"):
                    expected = np.asarray(reference(x, *args))
                    assert _same(np.asarray(kernel(x, *args)), expected), (value, args)
    assert PReLU()(np.array(-1.0)) == -0.25 and ReLU()(np.float32(1.0)) == 1.0


@pytest.mark.parametrize("kind", sorted(ACTIVATION_REFERENCES))
def test_mismatched_out_is_never_written(kind, rng):
    args = (np.float32(0.25),) if kind in _SLOPED else ()
    x = rng.standard_normal(33).astype(np.float32)
    expected = ACTIVATION_REFERENCES[kind](x, *args)
    for out in (np.full(33, 7.0, np.float64), np.full(33, 7.0, np.float16),
                np.full(34, 7.0, expected.dtype)):
        if out.dtype == expected.dtype and out.shape == expected.shape:
            continue  # GELU of float32 is float64 under NEP 50
        before = out.copy()
        actual = F.ACTIVATION_KERNELS[kind](x, *args, out=out)
        assert actual is not out and _same(actual, expected)
        assert np.array_equal(out, before)


def test_prelu_in_place_allocates_one_temporary():
    """``slope * x`` is the only n-sized allocation of the in-place path."""
    x = np.random.default_rng(0).standard_normal((4096, 64)).astype(np.float32)
    slope = np.float32(0.25)
    F.prelu(x.copy(), slope)  # warm any lazy imports
    tracemalloc.start()
    try:
        F.prelu(x, slope, out=x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert x.nbytes <= peak < 1.5 * x.nbytes, (peak, x.nbytes)
