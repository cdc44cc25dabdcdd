"""Dense layers: plain :class:`Linear` and :class:`SpectralLinear` (PSN).

Both layers expose :meth:`effective_weight`, the materialized matrix that
inference actually multiplies by.  The error-flow analyzer, the quantizer
and the codecs all operate on effective weights, so plain and
spectrally-normalized layers are interchangeable downstream.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError
from . import init as _init
from .module import Module, Parameter
from .spectral import PowerIterationState, spectral_norm

__all__ = ["Linear", "SpectralLinear"]

_INITIALIZERS = {
    "kaiming_uniform": _init.kaiming_uniform,
    "kaiming_normal": _init.kaiming_normal,
    "xavier_uniform": _init.xavier_uniform,
    "xavier_normal": _init.xavier_normal,
}


def _make_weight(
    shape: tuple[int, ...], rng: np.random.Generator | None, weight_init: str
) -> np.ndarray:
    if rng is None:
        rng = np.random.default_rng(0)
    try:
        initializer = _INITIALIZERS[weight_init]
    except KeyError:
        known = ", ".join(sorted(_INITIALIZERS))
        raise ValueError(f"unknown weight_init {weight_init!r}; known: {known}") from None
    return initializer(shape, rng)


class Linear(Module):
    """Fully connected layer ``y = x W^T + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output widths.
    bias:
        Whether to learn an additive bias.
    rng:
        Generator used for weight initialization.
    weight_init:
        One of ``kaiming_uniform``, ``kaiming_normal``, ``xavier_uniform``,
        ``xavier_normal``.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        weight_init: str = "kaiming_uniform",
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ShapeError("in_features and out_features must be positive")
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.weight = Parameter(_make_weight((out_features, in_features), rng, weight_init))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None
        self._x: np.ndarray | None = None

    def effective_weight(self) -> np.ndarray:
        """The matrix applied at inference time."""
        return self.weight.data

    def effective_bias(self) -> np.ndarray | None:
        return None if self.bias is None else self.bias.data

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"Linear({self.in_features}->{self.out_features}) got input width {x.shape[-1]}"
            )
        self._x = x
        out = x @ self.weight.data.T
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._x
        grad_flat = grad_output.reshape(-1, self.out_features)
        x_flat = x.reshape(-1, self.in_features)
        self.weight.grad += grad_flat.T @ x_flat
        if self.bias is not None:
            self.bias.grad += grad_flat.sum(axis=0)
        return grad_output @ self.weight.data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Linear({self.in_features}, {self.out_features}, bias={self.bias is not None})"


class SpectralLinear(Module):
    """Dense layer with parameterized spectral normalization (paper Eq. 6).

    The layer stores a raw matrix ``V`` and learns a scalar ``alpha``; the
    effective weight is ``W = alpha * V / sigma(V)``, whose spectral norm is
    exactly ``|alpha|``.  The learned ``beta`` of Eq. (6) is realised as the
    layer bias.  During training, ``sigma(V)`` is tracked with one power-
    iteration step per forward pass; gradients flow through the
    normalization using the standard spectral-normalization expression.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        weight_init: str = "kaiming_uniform",
        alpha_init: float | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ShapeError("in_features and out_features must be positive")
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_features = int(in_features)
        self.out_features = int(out_features)
        self.raw_weight = Parameter(_make_weight((out_features, in_features), rng, weight_init))
        if alpha_init is None:
            # Start as the identity reparameterization of the raw init.
            alpha_init = spectral_norm(self.raw_weight.data)
        self.alpha = Parameter(np.asarray([alpha_init], dtype=np.float32))
        self.bias = Parameter(np.zeros(out_features, dtype=np.float32)) if bias else None
        self._power = PowerIterationState.for_matrix(self.raw_weight.data, rng)
        self._x: np.ndarray | None = None
        self._cached: tuple[np.ndarray, float] | None = None
        self._eval_key: tuple | None = None
        self._eval_cache: tuple[np.ndarray, float] | None = None

    # -- weight materialization ------------------------------------------
    def _deployed(self) -> tuple[np.ndarray, float]:
        """``(V / sigma, sigma)`` with the converged power-iteration sigma,
        computed once per weight version.

        The eval forward, the lowering and :meth:`effective_weight` all
        read this, so they apply one matrix by construction.
        """
        # the version counter, not id(): a freed array's id can be reused
        key = (self.raw_weight.version, self.raw_weight.data.shape)
        if self._eval_key != key:
            sigma = max(spectral_norm(self.raw_weight.data), 1e-12)
            self._eval_cache = (self.raw_weight.data / sigma, sigma)
            self._eval_key = key
        return self._eval_cache

    def _sigma_and_normalized(self) -> tuple[np.ndarray, float]:
        """Training: one power-iteration step; eval: :meth:`_deployed`."""
        if self.training:
            sigma = max(self._power.step(self.raw_weight.data, n_steps=1), 1e-12)
            return self.raw_weight.data / sigma, sigma
        return self._deployed()

    def effective_weight(self) -> np.ndarray:
        """``alpha * V / sigma(V)``, the matrix the eval forward applies."""
        normalized, _sigma = self._deployed()
        return normalized * self.alpha.data[0]

    def effective_bias(self) -> np.ndarray | None:
        return None if self.bias is None else self.bias.data

    @property
    def spectral_alpha(self) -> float:
        """``|alpha|``; the deployed matrix's norm is ``|alpha| * sigma / sigma_hat``."""
        return abs(float(self.alpha.data[0]))

    # -- compute ----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.shape[-1] != self.in_features:
            raise ShapeError(
                f"SpectralLinear({self.in_features}->{self.out_features}) got input "
                f"width {x.shape[-1]}"
            )
        self._x = x
        normalized, sigma = self._sigma_and_normalized()
        self._cached = (normalized, sigma)
        out = x @ (normalized.T * self.alpha.data[0])
        if self.bias is not None:
            out = out + self.bias.data
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        x = self._x
        normalized, sigma = self._cached
        alpha = float(self.alpha.data[0])
        grad_flat = grad_output.reshape(-1, self.out_features)
        x_flat = x.reshape(-1, self.in_features)
        grad_w_eff = grad_flat.T @ x_flat  # gradient wrt alpha * normalized
        # d(alpha)/dL: effective weight = alpha * normalized.
        self.alpha.grad[0] += float(np.sum(grad_w_eff * normalized))
        # Gradient through W_bar = V / sigma(V), sigma differentiated via
        # its singular vectors: dsigma/dV = u v^T.
        grad_w_bar = alpha * grad_w_eff
        u, v = self._power.u, self._power.v
        coupling = float(np.sum(grad_w_bar * normalized))
        self.raw_weight.grad += ((grad_w_bar - coupling * np.outer(u, v)) / sigma).astype(
            self.raw_weight.grad.dtype
        )
        if self.bias is not None:
            self.bias.grad += grad_flat.sum(axis=0)
        return grad_output @ (normalized * alpha)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpectralLinear({self.in_features}, {self.out_features}, "
            f"alpha={float(self.alpha.data[0]):.4f})"
        )
