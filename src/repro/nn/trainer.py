"""Training loop utilities.

The paper's workflow (Fig. 1) starts from a *trained* network, so the
library ships a small trainer sufficient to produce the surrogate models
used in the experiments: mini-batch iteration, optional spectral penalty
(Section III-C), validation tracking and deterministic shuffling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..exceptions import TrainingError
from ..obs import get_logger, get_metrics, get_tracer
from .losses import spectral_penalty, spectral_penalty_backward
from .module import Module
from .optim import Optimizer

__all__ = ["TrainingHistory", "Trainer"]


@dataclass
class TrainingHistory:
    """Per-epoch record of a training run."""

    train_loss: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_metric: list[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.train_loss)

    def best_val_loss(self) -> float:
        if not self.val_loss:
            raise TrainingError("no validation passes were run")
        return min(self.val_loss)


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
    metric:
        Optional callable ``(pred, target) -> float`` evaluated on the
        validation set (e.g. accuracy).
    """

    def __init__(
        self,
        model: Module,
        loss,
        optimizer: Optimizer,
        spectral_weight: float = 0.0,
        metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
        scheduler=None,
        grad_clip: float | None = None,
        patience: int | None = None,
    ) -> None:
        """See class docstring; additionally:

        scheduler:
            Optional :class:`~repro.nn.schedulers.Scheduler`, stepped once
            per epoch.
        grad_clip:
            Global L2 norm ceiling applied to the gradients each step.
        patience:
            Early stopping: abort when the validation loss has not
            improved for this many consecutive epochs.
        """
        self.model = model
        self.loss = loss
        self.optimizer = optimizer
        self.spectral_weight = float(spectral_weight)
        self.metric = metric
        self.scheduler = scheduler
        if grad_clip is not None and grad_clip <= 0:
            raise TrainingError("grad_clip must be positive")
        self.grad_clip = grad_clip
        if patience is not None and patience < 1:
            raise TrainingError("patience must be >= 1")
        self.patience = patience

    def _clip_gradients(self) -> None:
        total_sq = 0.0
        parameters = [p for p in self.model.parameters() if p.requires_grad]
        for param in parameters:
            total_sq += float(np.sum(param.grad.astype(np.float64) ** 2))
        total = np.sqrt(total_sq)
        if total > self.grad_clip:
            scale = self.grad_clip / total
            for param in parameters:
                param.grad *= scale

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
        if self.grad_clip is not None:
            self._clip_gradients()
        self.optimizer.step()
        return float(value)

    def evaluate(self, inputs: np.ndarray, targets: np.ndarray) -> tuple[float, float | None]:
        """Loss (and metric, if configured) on held-out data."""
        self.model.eval()
        predictions = self.model(inputs)
        value = float(self.loss(predictions, targets))
        metric_value = None
        if self.metric is not None:
            metric_value = float(self.metric(predictions, targets))
        return value, metric_value

    def fit(
        self,
        train_inputs: np.ndarray,
        train_targets: np.ndarray,
        epochs: int,
        batch_size: int,
        val_inputs: np.ndarray | None = None,
        val_targets: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Full training loop with per-epoch shuffling.

        Returns a :class:`TrainingHistory` with train loss per epoch and,
        when validation data is given, validation loss/metric per epoch.
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
        best_val = np.inf
        stale_epochs = 0
        tracer = get_tracer()
        metrics = get_metrics()
        log = get_logger("trainer")
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
                    if val_inputs is not None and val_targets is not None:
                        val_loss, val_metric = self.evaluate(val_inputs, val_targets)
                        history.val_loss.append(val_loss)
                        epoch_span.set(val_loss=val_loss)
                        if val_metric is not None:
                            history.val_metric.append(val_metric)
                        if self.patience is not None:
                            if val_loss < best_val - 1e-12:
                                best_val = val_loss
                                stale_epochs = 0
                            else:
                                stale_epochs += 1
                                if stale_epochs >= self.patience:
                                    metrics.counter("early_stops_total").inc()
                                    break
                    if self.scheduler is not None:
                        self.scheduler.step()
                    if verbose:  # pragma: no cover - console output
                        parts = [
                            f"epoch {epoch + 1}/{epochs}",
                            f"train {history.train_loss[-1]:.3e}",
                        ]
                        if history.val_loss:
                            parts.append(f"val {history.val_loss[-1]:.3e}")
                        log.info("  ".join(parts))
            fit_span.set(epochs_run=history.epochs)
            if history.train_loss:
                fit_span.set(final_train_loss=history.train_loss[-1])
        self.model.eval()
        return history
