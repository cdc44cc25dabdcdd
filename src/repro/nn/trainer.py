"""Training loop utilities.

The paper's workflow (Fig. 1) starts from a *trained* network, so the
library ships a small trainer sufficient to produce the surrogate models
used in the experiments: mini-batch iteration, optional spectral penalty
(Section III-C) and deterministic shuffling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..exceptions import TrainingError
from ..obs import get_metrics, get_tracer
from .losses import spectral_penalty, spectral_penalty_backward
from .module import Module
from .optim import Optimizer

__all__ = ["TrainingHistory", "Trainer"]


@dataclass
class TrainingHistory:
    """Per-epoch record of a training run."""

    train_loss: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.train_loss)


class Trainer:
    """Mini-batch trainer with optional spectral penalty.

    Parameters
    ----------
    model:
        Module to train.
    loss:
        Callable loss object with ``__call__(pred, target) -> float`` and
        ``backward() -> grad``.
    optimizer:
        Optimizer over ``model.parameters()``.
    spectral_weight:
        Coefficient of the PSN penalty ``sum alpha^2`` added to the loss
        (0 disables it; models without PSN layers are unaffected).
    """

    def __init__(
        self,
        model: Module,
        loss,
        optimizer: Optimizer,
        spectral_weight: float = 0.0,
    ) -> None:
        self.model = model
        self.loss = loss
        self.optimizer = optimizer
        self.spectral_weight = float(spectral_weight)

    def train_step(self, inputs: np.ndarray, targets: np.ndarray) -> float:
        """One optimizer step on a single batch; returns the batch loss."""
        self.model.train()
        self.optimizer.zero_grad()
        predictions = self.model(inputs)
        value = self.loss(predictions, targets)
        get_metrics().counter("train_steps_total").inc()
        if not np.isfinite(value):
            get_metrics().counter("train_divergences_total").inc()
            raise TrainingError(f"loss diverged to {value!r}")
        grad = self.loss.backward()
        self.model.backward(grad)
        if self.spectral_weight:
            value += spectral_penalty(self.model, self.spectral_weight)
            spectral_penalty_backward(self.model, self.spectral_weight)
        self.optimizer.step()
        return float(value)

    def fit(
        self,
        train_inputs: np.ndarray,
        train_targets: np.ndarray,
        epochs: int,
        batch_size: int,
        rng: np.random.Generator | None = None,
    ) -> TrainingHistory:
        """Full training loop with per-epoch shuffling.

        Returns a :class:`TrainingHistory` with the train loss per epoch.
        """
        if len(train_inputs) != len(train_targets):
            raise TrainingError(
                f"inputs ({len(train_inputs)}) and targets ({len(train_targets)}) disagree"
            )
        if epochs <= 0 or batch_size <= 0:
            raise TrainingError("epochs and batch_size must be positive")
        if rng is None:
            rng = np.random.default_rng(0)
        history = TrainingHistory()
        n = len(train_inputs)
        tracer = get_tracer()
        with tracer.span(
            "trainer.fit", epochs=epochs, batch_size=batch_size, samples=n
        ) as fit_span:
            for epoch in range(epochs):
                with tracer.span("trainer.epoch", epoch=epoch) as epoch_span:
                    order = rng.permutation(n)
                    epoch_loss = 0.0
                    batches = 0
                    for start in range(0, n, batch_size):
                        batch = order[start : start + batch_size]
                        epoch_loss += self.train_step(train_inputs[batch], train_targets[batch])
                        batches += 1
                    history.train_loss.append(epoch_loss / max(batches, 1))
                    epoch_span.set(train_loss=history.train_loss[-1], batches=batches)
            fit_span.set(epochs_run=history.epochs, final_train_loss=history.train_loss[-1])
        self.model.eval()
        return history
