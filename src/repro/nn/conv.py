"""2-D convolution layers (plain and spectrally normalized).

Convolutions run as a single matmul of the matricized kernel against
channel-major patch columns (:func:`repro.nn.functional.conv2d`, the
kernel the fused backend runs too).  For the error-flow analysis, the
layer exposes its matricized kernel
``(out_channels, in_channels * kh * kw)`` — the spectral norm of that
matrix is the standard spectral-normalization surrogate for the conv
operator norm (Miyato et al., paper ref. [19]) and is what the quantizer
rounds.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ShapeError, TrainingError
from .functional import conv2d, conv2d_input_grad
from .init import kaiming_uniform
from .module import Module, Parameter
from .spectral import PowerIterationState, spectral_norm

__all__ = ["Conv2d", "SpectralConv2d"]


class Conv2d(Module):
    """Standard 2-D convolution with symmetric zero padding.

    Parameters
    ----------
    in_channels, out_channels:
        Channel counts.
    kernel_size:
        Square kernel edge length.
    stride, padding:
        Convolution geometry.
    bias:
        Whether to learn a per-output-channel bias.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if min(in_channels, out_channels, kernel_size, stride) <= 0 or padding < 0:
            raise ShapeError("conv dimensions must be positive (padding non-negative)")
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_channels = int(in_channels)
        self.out_channels = int(out_channels)
        self.kernel_size = int(kernel_size)
        self.stride = int(stride)
        self.padding = int(padding)
        shape = (out_channels, in_channels, kernel_size, kernel_size)
        self.weight = Parameter(kaiming_uniform(shape, rng))
        self.bias = Parameter(np.zeros(out_channels, dtype=np.float32)) if bias else None
        self._cols: np.ndarray | None = None
        self._x_shape: tuple[int, int, int, int] | None = None

    def matricized_weight(self) -> np.ndarray:
        """Kernel reshaped to ``(out_channels, in_channels * kh * kw)``."""
        return self.weight.data.reshape(self.out_channels, -1)

    def effective_weight(self) -> np.ndarray:
        return self.matricized_weight()

    def effective_bias(self) -> np.ndarray | None:
        return None if self.bias is None else self.bias.data

    def set_matricized_weight(self, matrix: np.ndarray) -> None:
        """Write back a (possibly quantized) matricized kernel."""
        if matrix.shape != (self.out_channels, self.in_channels * self.kernel_size**2):
            raise ShapeError(f"matricized kernel has wrong shape {matrix.shape}")
        self.weight.data = matrix.reshape(self.weight.data.shape).astype(
            self.weight.data.dtype
        )

    def _forward_weight(self) -> np.ndarray:
        """The ``(out_channels, in_channels * kh * kw)`` matrix forward applies."""
        return self.matricized_weight()

    def forward(self, x: np.ndarray) -> np.ndarray:
        kernel = (self.kernel_size, self.kernel_size)
        bias = None if self.bias is None else self.bias.data
        weight = self._forward_weight()
        out, cols = conv2d(x, weight, bias, kernel, self.stride, self.padding, whole=self.training)
        # the patch columns are many times the input; only a backward
        # pass needs them, so only a training forward unfolds them whole
        self._cols = cols if self.training else None
        self._x_shape = x.shape
        return out

    def _backward(self, grad_output: np.ndarray, weight: np.ndarray) -> tuple:
        """``(grad wrt weight, grad wrt input)`` for the matrix forward applied."""
        if self._cols is None:
            raise TrainingError("Conv2d.backward needs a training-mode forward first")
        grad = grad_output.transpose(1, 0, 2, 3).reshape(self.out_channels, -1)
        if self.bias is not None:
            self.bias.grad += grad.sum(axis=1)
        kernel = (self.kernel_size, self.kernel_size)
        grad_input = conv2d_input_grad(
            weight.T @ grad, self._x_shape, kernel, self.stride, self.padding
        )
        return grad @ self._cols.T, grad_input

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_kernel, grad_input = self._backward(grad_output, self.matricized_weight())
        self.weight.grad += grad_kernel.reshape(self.weight.data.shape)
        return grad_input

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Conv2d({self.in_channels}, {self.out_channels}, k={self.kernel_size}, "
            f"s={self.stride}, p={self.padding})"
        )


class SpectralConv2d(Conv2d):
    """Conv2d whose matricized kernel carries parameterized spectral norm.

    Effective kernel: ``alpha * K / sigma(mat(K))`` so that the spectral
    norm of the matricized kernel equals ``|alpha|`` exactly, mirroring
    :class:`~repro.nn.linear.SpectralLinear`.
    """

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: int = 0,
        bias: bool = True,
        rng: np.random.Generator | None = None,
        alpha_init: float | None = None,
    ) -> None:
        super().__init__(
            in_channels, out_channels, kernel_size, stride, padding, bias, rng
        )
        if rng is None:
            rng = np.random.default_rng(0)
        if alpha_init is None:
            alpha_init = spectral_norm(self.matricized_weight())
        self.alpha = Parameter(np.asarray([alpha_init], dtype=np.float32))
        self._power = PowerIterationState.for_matrix(self.matricized_weight(), rng)
        self._cached: tuple[np.ndarray, float] | None = None
        self._eval_key: tuple | None = None
        self._eval_cache: tuple[np.ndarray, float] | None = None

    @property
    def spectral_alpha(self) -> float:
        """``|alpha|``; the deployed kernel's norm is ``|alpha| * sigma / sigma_hat``."""
        return abs(float(self.alpha.data[0]))

    def effective_weight(self) -> np.ndarray:
        """``alpha * mat(K) / sigma``, the matrix the eval forward applies."""
        normalized, _sigma = self._deployed()
        return normalized * self.alpha.data[0]

    def _deployed(self) -> tuple[np.ndarray, float]:
        """``(mat(K) / sigma, sigma)``, as :meth:`SpectralLinear._deployed`."""
        # the version counter, not id(): a freed array's id can be reused
        key = (self.weight.version, self.weight.data.shape)
        if self._eval_key != key:
            raw = self.matricized_weight()
            sigma = max(spectral_norm(raw), 1e-12)
            self._eval_cache = (raw / sigma, sigma)
            self._eval_key = key
        return self._eval_cache

    def _sigma_and_normalized(self) -> tuple[np.ndarray, float]:
        """Training: one power-iteration step; eval: :meth:`_deployed`."""
        if self.training:
            raw = self.matricized_weight()
            sigma = max(self._power.step(raw, n_steps=1), 1e-12)
            return raw / sigma, sigma
        return self._deployed()

    def _forward_weight(self) -> np.ndarray:
        normalized, sigma = self._sigma_and_normalized()
        self._cached = (normalized, sigma)
        return normalized * self.alpha.data[0]

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        normalized, sigma = self._cached
        alpha = float(self.alpha.data[0])
        # gradient wrt alpha * normalized
        grad_w_eff, grad_input = self._backward(grad_output, normalized * alpha)
        self.alpha.grad[0] += float(np.sum(grad_w_eff * normalized))
        grad_w_bar = alpha * grad_w_eff
        coupling = float(np.sum(grad_w_bar * normalized))
        grad_raw = (grad_w_bar - coupling * np.outer(self._power.u, self._power.v)) / sigma
        self.weight.grad += grad_raw.reshape(self.weight.data.shape).astype(
            self.weight.grad.dtype
        )
        return grad_input
