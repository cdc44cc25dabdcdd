"""The activation expressions the branch-free kernels must reproduce byte for byte.

These are the forwards of ``repro.nn.activations`` (and the expressions
the fused codegen emitted) as they were while ReLU/LeakyReLU/PReLU
selected with ``np.where`` and Sigmoid/GELU were written as one numpy
expression each: three passes and two fresh temporaries for a PReLU,
seven temporaries for a GELU.  ``repro.nn.functional`` now computes the
same bytes and dtypes with ``fmax``/``maximum``/``minimum`` and in-place
steps; the hypothesis suite in ``tests/test_nn_activations.py`` holds it
to these, and ``reference_forward`` is the "before" side of the
``prelu_forward`` pair in ``benchmarks/bench_forward.py``.
"""

from __future__ import annotations

import numpy as np

from repro.nn import GELU, LeakyReLU, PReLU, ReLU, Sequential, Sigmoid, Tanh


def relu_reference(x: np.ndarray) -> np.ndarray:
    return np.where(x > 0, x, 0.0)


def leaky_relu_reference(x: np.ndarray, slope) -> np.ndarray:
    return np.where(x > 0, x, slope * x)


prelu_reference = leaky_relu_reference


def tanh_reference(x: np.ndarray) -> np.ndarray:
    return np.tanh(x)


def sigmoid_reference(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


def gelu_reference(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))


ACTIVATION_REFERENCES = {
    "relu": relu_reference,
    "leaky_relu": leaky_relu_reference,
    "prelu": prelu_reference,
    "tanh": tanh_reference,
    "sigmoid": sigmoid_reference,
    "gelu": gelu_reference,
}


def reference_forward(model: Sequential, x: np.ndarray) -> np.ndarray:
    """``model(x)`` for a flat ``Sequential`` with every activation run by
    the expressions above; everything else runs its own ``forward``."""
    for layer in model.layers:
        if isinstance(layer, PReLU):
            x = prelu_reference(x, layer.slope.data[0])
        elif isinstance(layer, LeakyReLU):
            x = leaky_relu_reference(x, layer.negative_slope)
        elif isinstance(layer, ReLU):
            x = relu_reference(x)
        elif isinstance(layer, Tanh):
            x = tanh_reference(x)
        elif isinstance(layer, Sigmoid):
            x = sigmoid_reference(x)
        elif isinstance(layer, GELU):
            x = gelu_reference(x)
        else:
            x = layer(x)
    return x
