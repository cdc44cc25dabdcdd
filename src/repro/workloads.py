"""Ready-made trained workloads: dataset + model + analyzer bundles.

The paper's experiments all start from *trained* networks (Fig. 1).  This
module trains the three task models deterministically and caches the
weights on disk, so examples, tests and benchmarks share identical
models without retraining.

Each task offers three training variants (the comparison lines of
Figs. 3 and 4):

* ``psn`` — parameterized spectral normalization + spectral penalty
  (the paper's method);
* ``plain`` — ordinary layers, no regularization (the "baseline");
* ``weight_decay`` — ordinary layers with L2 weight decay (the
  "baseline w. weight decay").
"""

from __future__ import annotations

import os
import tempfile
import warnings
import zipfile
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core.errorflow import ErrorFlowAnalyzer
from .datasets import ScientificDataset, make_borghesi_flame, make_eurosat, make_h2_combustion
from .exceptions import ConfigurationError
from .models import borghesi_net, h2_reaction_net, resnet18
from .nn import SGD, Adam, CrossEntropyLoss, MSELoss, Sequential, Trainer

__all__ = ["TrainedWorkload", "load_workload", "WORKLOAD_NAMES", "VARIANTS"]

WORKLOAD_NAMES = ("h2combustion", "borghesi", "eurosat")
VARIANTS = ("psn", "plain", "weight_decay")

_CACHE_ENV = "REPRO_CACHE_DIR"


def _cache_dir() -> str:
    path = os.environ.get(_CACHE_ENV)
    if path is None:
        path = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), ".cache")
    os.makedirs(path, exist_ok=True)
    return path


@dataclass
class TrainedWorkload:
    """A dataset, its trained surrogate and its analyzer, built on first
    access (spec extraction runs a forward)."""

    name: str
    variant: str
    dataset: ScientificDataset
    model: Sequential
    final_train_loss: float

    @cached_property
    def analyzer(self) -> ErrorFlowAnalyzer:
        """Error-flow analyzer of the full :attr:`model`."""
        return ErrorFlowAnalyzer(self.model, self.dataset.train_inputs.shape[1:])

    def reference_outputs(self, inputs: np.ndarray | None = None) -> np.ndarray:
        """Full-precision model outputs on (default: test) inputs."""
        self.model.eval()
        if inputs is None:
            inputs = self.dataset.test_inputs
        return self.model(inputs)

    def qoi_model(self) -> Sequential:
        """The network producing the quantity of interest.

        For EuroSAT the paper takes the *final feature map* (the global
        average-pooled features before the classifier) as the QoI, "as it
        is essential not only for classification but also for downstream
        tasks" (Section III-C); regression tasks use the full model.
        """
        if self.name == "eurosat":
            return Sequential(*list(self.model)[:-1])
        return self.model

    def qoi_analyzer(self) -> ErrorFlowAnalyzer:
        """Error-flow analyzer matching :meth:`qoi_model`."""
        if self.name == "eurosat":
            return ErrorFlowAnalyzer(self.qoi_model(), self.dataset.train_inputs.shape[1:])
        return self.analyzer


def _build_model(name: str, variant: str, rng: np.random.Generator) -> Sequential:
    spectral = variant == "psn"
    if name == "h2combustion":
        return h2_reaction_net(rng=rng, spectral=spectral)
    if name == "borghesi":
        return borghesi_net(rng=rng, spectral=spectral)
    if name == "eurosat":
        return resnet18(
            in_channels=13, base_width=16, rng=rng, spectral=spectral, alpha_init=0.8
        )
    raise ConfigurationError(f"unknown workload {name!r}; known: {WORKLOAD_NAMES}")


def _make_dataset(name: str, rng: np.random.Generator, small: bool) -> ScientificDataset:
    if name == "h2combustion":
        return make_h2_combustion(grid=64 if small else 96, rng=rng)
    if name == "borghesi":
        return make_borghesi_flame(grid=64 if small else 96, rng=rng)
    if name == "eurosat":
        return make_eurosat(
            n_per_class=12 if small else 24, image_size=24 if small else 32, rng=rng
        )
    raise ConfigurationError(f"unknown workload {name!r}; known: {WORKLOAD_NAMES}")


def _train(
    name: str,
    variant: str,
    model: Sequential,
    dataset: ScientificDataset,
    epochs: int,
    rng: np.random.Generator,
) -> float:
    weight_decay = 1e-4 if variant == "weight_decay" else 0.0
    spectral_weights = {"h2combustion": 1e-4, "borghesi": 1e-3, "eurosat": 3e-4}
    spectral_weight = spectral_weights[name] if variant == "psn" else 0.0
    if name == "h2combustion":
        # Paper Section IV-A.1: compact Tanh net trained with standard SGD.
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9, weight_decay=weight_decay)
        loss = MSELoss()
    elif name == "borghesi":
        # Paper Section IV-A.2: 8-hidden-layer MLP trained with Adam.
        optimizer = Adam(model.parameters(), lr=2e-3, weight_decay=weight_decay)
        loss = MSELoss()
    else:
        # Paper Section IV-A.3 trains with SGD on the real EuroSAT; on the
        # small synthetic substrate Adam is required for the BN-free
        # spectral ResNet to converge (documented substitution).
        optimizer = Adam(model.parameters(), lr=3e-3, weight_decay=weight_decay)
        loss = CrossEntropyLoss()
    trainer = Trainer(model, loss, optimizer, spectral_weight=spectral_weight)
    batch_size = 16 if name == "eurosat" else 128
    history = trainer.fit(
        dataset.train_inputs, dataset.train_targets, epochs=epochs, batch_size=batch_size, rng=rng
    )
    return history.train_loss[-1]


def _load_cached_state(cache_file: str, model: Sequential) -> float | None:
    """Restore model weights from a cached ``.npz``; None if unusable.

    On real storage a cache file can be truncated, bit-flipped or simply
    stale (written by an older model layout).  Any such corruption is
    detected here, the bad file is deleted, and the caller retrains —
    a corrupt cache must never crash (or silently poison) a run.
    """
    try:
        with np.load(cache_file) as archive:
            state = {key: archive[key] for key in archive.files if key != "__loss__"}
            loss = (
                float(archive["__loss__"]) if "__loss__" in archive.files else float("nan")
            )
        for key, value in state.items():
            if not np.all(np.isfinite(value)):
                raise ValueError(f"cached weight {key!r} contains non-finite values")
        model.load_state_dict(state)
        return loss
    except (zipfile.BadZipFile, KeyError, ValueError, OSError, EOFError) as exc:
        warnings.warn(
            f"workload cache {os.path.basename(cache_file)!r} is corrupt or "
            f"stale ({type(exc).__name__}: {exc}); deleting and retraining",
            RuntimeWarning,
            stacklevel=3,
        )
        try:
            os.unlink(cache_file)
        except OSError:
            pass
        return None


def _save_cached_state(cache_file: str, payload: dict) -> None:
    """Write the weight cache atomically (temp file + ``os.replace``).

    Mirrors ``DatasetStore.put``: a crashed or concurrent writer can
    never leave a torn ``.npz`` for the next run to trip over.
    """
    directory = os.path.dirname(cache_file)
    fd, temp_path = tempfile.mkstemp(dir=directory, suffix=".npz.tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            np.savez(handle, **payload)
        os.replace(temp_path, cache_file)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise


def _default_epochs(name: str) -> int:
    epochs = {"h2combustion": 60, "borghesi": 40, "eurosat": 30}.get(name)
    if epochs is None:
        raise ConfigurationError(f"unknown workload {name!r}; known: {WORKLOAD_NAMES}")
    return epochs


def load_workload(
    name: str,
    variant: str = "psn",
    epochs: int | None = None,
    small: bool = True,
    use_cache: bool = True,
    seed: int = 0,
) -> TrainedWorkload:
    """Load (or train and cache) one of the paper's three workloads.

    Parameters
    ----------
    name:
        ``h2combustion``, ``borghesi`` or ``eurosat``.
    variant:
        ``psn`` (the paper's method), ``plain`` or ``weight_decay``.
    epochs:
        Training epochs; defaults to a per-task setting that reaches a
        useful fit on the numpy substrate.
    small:
        Use reduced grids / image counts (fast enough for CI); ``False``
        builds the larger configuration.
    use_cache:
        Reuse weights cached on disk from a previous identical call.
    """
    if variant not in VARIANTS:
        raise ConfigurationError(f"unknown variant {variant!r}; known: {VARIANTS}")
    if epochs is None:
        epochs = _default_epochs(name)
    data_rng = np.random.default_rng(seed)
    dataset = _make_dataset(name, data_rng, small)
    model_rng = np.random.default_rng(seed + 1)
    model = _build_model(name, variant, model_rng)

    cache_file = os.path.join(
        _cache_dir(), f"{name}-{variant}-e{epochs}-s{int(small)}-seed{seed}.npz"
    )
    final_loss = None
    if use_cache and os.path.exists(cache_file):
        final_loss = _load_cached_state(cache_file, model)
    if final_loss is None:
        # Rebuild in case a partially-applied corrupt cache touched weights.
        model = _build_model(name, variant, np.random.default_rng(seed + 1))
        train_rng = np.random.default_rng(seed + 2)
        final_loss = _train(name, variant, model, dataset, epochs, train_rng)
        if use_cache:
            payload = dict(model.state_dict())
            payload["__loss__"] = np.asarray(final_loss)
            _save_cached_state(cache_file, payload)
    model.eval()
    return TrainedWorkload(
        name=name,
        variant=variant,
        dataset=dataset,
        model=model,
        final_train_loss=final_loss,
    )
