"""Core module system for the numpy neural-network substrate.

The paper's error theory operates on trained weight matrices, so the
substrate provides exactly what scientific surrogate models need: an
explicit, layer-based forward/backward engine (no tape autograd), with
parameters exposed for spectral analysis and post-training quantization.

Every layer derives from :class:`Module` and implements ``forward`` and
``backward``.  ``backward`` receives the gradient of the loss with respect
to the layer output and must (a) accumulate parameter gradients into
``Parameter.grad`` and (b) return the gradient with respect to the layer
input, caching whatever it needs from the forward pass.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, Iterator

import numpy as np

from ..exceptions import ShapeError

__all__ = ["Parameter", "Module", "HookHandle"]

#: process-wide hook registration ids (monotone, never reused)
_HOOK_IDS = itertools.count()


class HookHandle:
    """Removable registration token returned by ``register_forward_hook``."""

    __slots__ = ("_hooks", "_key")

    def __init__(self, hooks: dict, key: int) -> None:
        self._hooks = hooks
        self._key = key

    def remove(self) -> None:
        """Unregister the hook; safe to call more than once."""
        self._hooks.pop(self._key, None)

    def __enter__(self) -> "HookHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.remove()


class Parameter:
    """A trainable tensor: value plus accumulated gradient.

    Parameters
    ----------
    data:
        Initial value.  Stored as ``float32`` unless another float dtype is
        passed explicitly.
    requires_grad:
        When ``False`` the optimizer skips this parameter (used for frozen
        layers and running statistics exposed as parameters).

    Notes
    -----
    Every assignment to :attr:`data` bumps a monotone version counter
    (optimizer steps, ``load_state_dict``, quantization all assign).
    Bound-evaluation caches key on :meth:`Module.weight_version`, the sum
    of these counters, to invalidate when training moves the weights.
    In-place writes (``param.data[...] = x``) bypass the setter; call
    :meth:`bump_version` after them.
    """

    def __init__(self, data: np.ndarray, requires_grad: bool = True) -> None:
        data = np.asarray(data)
        if not np.issubdtype(data.dtype, np.floating):
            data = data.astype(np.float32)
        self._version = 0
        self._data = data
        self.grad = np.zeros_like(self.data)
        self.requires_grad = requires_grad

    @property
    def data(self) -> np.ndarray:
        return self._data

    @data.setter
    def data(self, value: np.ndarray) -> None:
        self._data = value
        self._version += 1

    @property
    def version(self) -> int:
        """Monotone counter of assignments to :attr:`data`."""
        return self._version

    def bump_version(self) -> None:
        """Mark the parameter changed after an in-place ``data`` write."""
        self._version += 1

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter(shape={self.data.shape}, requires_grad={self.requires_grad})"


class Module:
    """Base class for layers and models.

    Submodules and parameters assigned as attributes are registered
    automatically, mirroring the familiar torch-style API:

    >>> class Tiny(Module):
    ...     def __init__(self):
    ...         super().__init__()
    ...         self.w = Parameter(np.ones((2, 2)))
    >>> len(list(Tiny().parameters()))
    1
    """

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "_forward_hooks", {})
        object.__setattr__(self, "training", True)

    # -- registration ---------------------------------------------------
    def __setattr__(self, name: str, value: object) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    def register_module(self, name: str, module: "Module") -> None:
        """Register ``module`` under ``name`` (for list-held submodules)."""
        self._modules[name] = module
        object.__setattr__(self, name, module)

    # -- traversal ------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all parameters of this module and its submodules."""
        for __, param in self.named_parameters():
            yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth first."""
        for name, param in self._parameters.items():
            yield (f"{prefix}{name}", param)
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant, depth first."""
        yield self
        for module in self._modules.values():
            yield from module.modules()

    def named_modules(self, prefix: str = "") -> Iterator[tuple[str, "Module"]]:
        """Yield ``(qualified_name, module)`` pairs, depth first.

        The root module is yielded under the empty name, mirroring the
        familiar torch convention; children are dot-qualified.
        """
        yield (prefix[:-1] if prefix else "", self)
        for name, module in self._modules.items():
            yield from module.named_modules(prefix=f"{prefix}{name}.")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    # -- state ----------------------------------------------------------
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def train(self) -> "Module":
        """Switch this module and all descendants to training mode."""
        for module in self.modules():
            object.__setattr__(module, "training", True)
        return self

    def eval(self) -> "Module":
        """Switch this module and all descendants to inference mode."""
        for module in self.modules():
            object.__setattr__(module, "training", False)
        return self

    def weight_version(self) -> int:
        """Monotone counter over every parameter assignment in the tree.

        The sum of all :attr:`Parameter.version` counters: any optimizer
        step, ``load_state_dict`` or quantization pass increases it, so it
        serves as a cheap staleness key for weight-derived memos (the
        error-flow analyzer's, a compiled forward's kernel).  It never
        decreases.
        """
        return sum(param.version for param in self.parameters())

    def num_parameters(self) -> int:
        """Total number of scalar parameters in the module tree."""
        return sum(param.size for param in self.parameters())

    def state_dict(self) -> dict[str, np.ndarray]:
        """Copy of all parameter values keyed by qualified name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values previously produced by :meth:`state_dict`."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise ShapeError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            param = params[name]
            value = np.asarray(value, dtype=param.data.dtype)
            if value.shape != param.data.shape:
                raise ShapeError(
                    f"parameter {name!r}: expected shape {param.data.shape}, got {value.shape}"
                )
            param.data = value.copy()
            param.grad = np.zeros_like(param.data)

    # -- hooks ----------------------------------------------------------
    def register_forward_hook(
        self, hook: Callable[["Module", np.ndarray, np.ndarray], None]
    ) -> HookHandle:
        """Call ``hook(module, input, output)`` after every forward pass.

        Hooks observe; their return value is ignored and cannot alter the
        data flow.  The audit layer's lockstep recorder uses them to
        capture intermediate activations without touching layer code.
        Remove via the returned :class:`HookHandle`.
        """
        key = next(_HOOK_IDS)
        self._forward_hooks[key] = hook
        return HookHandle(self._forward_hooks, key)

    def observe(
        self,
        x: np.ndarray,
        hook: Callable[["Module", np.ndarray, np.ndarray], None],
        modules: Iterable["Module"] | None = None,
    ) -> np.ndarray:
        """Run ``self(x)`` in eval mode, calling ``hook(module, input,
        output)`` after each forward of ``modules`` (default: the whole
        tree) in call order; restore the training flags, remove the hooks
        and return the output.  Spec extraction, calibration, FLOP
        counting and the audit all read the model through it."""
        flags = [(module, module.training) for module in self.modules()]
        handles = [
            module.register_forward_hook(hook)
            for module in (self.modules() if modules is None else modules)
        ]
        self.eval()
        try:
            return self(x)
        finally:
            for handle in handles:
                handle.remove()
            for module, training in flags:
                object.__setattr__(module, "training", training)

    # -- compute --------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        output = self.forward(x)
        if self._forward_hooks:
            for hook in tuple(self._forward_hooks.values()):
                hook(self, x, output)
        return output
