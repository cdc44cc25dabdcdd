"""Dataset containers, normalization and batching.

The paper normalizes all network inputs prior to training and inference
(Section III-B assumes inputs within ``[-1, 1]``); compression operates on
the normalized fields, so compressor tolerances and the bound's
``||Delta x||`` live in the same units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from ..exceptions import ShapeError

__all__ = ["MinMaxNormalizer", "ScientificDataset", "train_test_split", "batches"]


class MinMaxNormalizer:
    """Per-feature affine map onto ``[-1, 1]`` fitted on training data."""

    def __init__(self) -> None:
        self.low: np.ndarray | None = None
        self.high: np.ndarray | None = None

    def fit(self, data: np.ndarray) -> "MinMaxNormalizer":
        """Record per-feature min/max over all leading dimensions."""
        data = np.asarray(data, dtype=np.float64)
        flat = data.reshape(-1, data.shape[-1]) if data.ndim > 1 else data.reshape(-1, 1)
        self.low = flat.min(axis=0)
        self.high = flat.max(axis=0)
        degenerate = self.high <= self.low
        self.high = np.where(degenerate, self.low + 1.0, self.high)
        return self

    def _check_fitted(self) -> None:
        if self.low is None:
            raise ShapeError("normalizer used before fit()")

    def transform(self, data: np.ndarray) -> np.ndarray:
        self._check_fitted()
        data = np.asarray(data, dtype=np.float64)
        return (2.0 * (data - self.low) / (self.high - self.low) - 1.0).astype(np.float32)

    def inverse(self, data: np.ndarray) -> np.ndarray:
        self._check_fitted()
        data = np.asarray(data, dtype=np.float64)
        return ((data + 1.0) / 2.0 * (self.high - self.low) + self.low).astype(np.float32)

    @property
    def scale(self) -> np.ndarray:
        """Per-feature multiplicative factor raw -> normalized."""
        self._check_fitted()
        return 2.0 / (self.high - self.low)


@dataclass
class ScientificDataset:
    """A complete workload: splits, normalized fields, and metadata.

    Attributes
    ----------
    name:
        Workload identifier (``h2combustion``, ``borghesi``, ``eurosat``).
    train_inputs, train_targets, test_inputs, test_targets:
        Normalized training/evaluation splits.
    fields:
        The normalized input data as stored on disk — what the compressor
        sees.  Shape ``(n_variables, *grid)`` for field workloads or
        ``(n_images, n_bands, H, W)`` for imagery.
    task:
        ``"regression"`` or ``"classification"``.
    input_normalizer, target_normalizer:
        Fitted normalizers (targets only for regression).
    images:
        ``fields`` is a batch of images, one sample per leading index,
        rather than ``(V, *grid)`` variable planes.
    """

    name: str
    train_inputs: np.ndarray
    train_targets: np.ndarray
    test_inputs: np.ndarray
    test_targets: np.ndarray
    fields: np.ndarray
    task: str = "regression"
    input_normalizer: MinMaxNormalizer | None = None
    target_normalizer: MinMaxNormalizer | None = None
    metadata: dict = field(default_factory=dict)
    images: bool = False

    @property
    def n_inputs(self) -> int:
        return int(self.train_inputs.shape[-1])

    @property
    def n_outputs(self) -> int:
        if self.task == "classification":
            return int(self.train_targets.max()) + 1
        return int(self.train_targets.shape[-1])

    @property
    def chunk_axis(self) -> int:
        """The axis of ``fields`` a chunked run splits: images by batch,
        ``(V, *grid)`` fields by the first grid axis, so slabs map to
        contiguous sample blocks."""
        return 0 if self.images else 1

    def fields_as_samples(self, fields: np.ndarray | None = None) -> np.ndarray:
        """Network-input rows of ``fields`` (default: the stored fields),
        laid out like :attr:`fields` — the ``samples_from_fields`` of a
        pipeline run on this dataset.

        For field workloads ``(V, *grid) -> (prod(grid), V)``; images are
        already per-sample.
        """
        fields = self.fields if fields is None else fields
        if self.images:
            return fields.astype(np.float32)
        return fields.reshape(fields.shape[0], -1).T.astype(np.float32)


def train_test_split(
    inputs: np.ndarray,
    targets: np.ndarray,
    test_fraction: float,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shuffled split into train and test subsets."""
    if len(inputs) != len(targets):
        raise ShapeError(f"inputs ({len(inputs)}) and targets ({len(targets)}) disagree")
    if not 0.0 < test_fraction < 1.0:
        raise ShapeError(f"test_fraction must be in (0, 1), got {test_fraction}")
    order = rng.permutation(len(inputs))
    n_test = max(1, int(len(inputs) * test_fraction))
    test_idx, train_idx = order[:n_test], order[n_test:]
    return inputs[train_idx], targets[train_idx], inputs[test_idx], targets[test_idx]


def batches(
    inputs: np.ndarray,
    targets: np.ndarray,
    batch_size: int,
    rng: np.random.Generator | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Yield mini-batches, optionally shuffled."""
    n = len(inputs)
    order = np.arange(n) if rng is None else rng.permutation(n)
    for start in range(0, n, batch_size):
        index = order[start : start + batch_size]
        yield inputs[index], targets[index]
