"""Tests for the three workload datasets and the loader utilities."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import (
    CLASS_NAMES,
    INPUT_VARIABLES,
    MinMaxNormalizer,
    OUTPUT_VARIABLES,
    batches,
    make_borghesi_flame,
    make_eurosat,
    make_h2_combustion,
    train_test_split,
)
from repro.exceptions import ShapeError
from repro.workloads import _make_dataset


# -- loaders ------------------------------------------------------------------


def test_normalizer_maps_to_unit_interval(rng):
    data = rng.standard_normal((200, 4)) * np.array([1.0, 10.0, 0.1, 100.0])
    normalizer = MinMaxNormalizer().fit(data)
    transformed = normalizer.transform(data)
    assert transformed.min() >= -1.0 - 1e-6
    assert transformed.max() <= 1.0 + 1e-6


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_normalizer_roundtrip(seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((50, 3)) * rng.uniform(0.1, 50.0, 3)
    normalizer = MinMaxNormalizer().fit(data)
    recovered = normalizer.inverse(normalizer.transform(data))
    assert np.allclose(recovered, data, rtol=1e-4, atol=1e-4)


def test_normalizer_degenerate_feature():
    data = np.column_stack([np.ones(10), np.arange(10.0)])
    normalizer = MinMaxNormalizer().fit(data)
    transformed = normalizer.transform(data)
    assert np.all(np.isfinite(transformed))


def test_normalizer_requires_fit():
    with pytest.raises(ShapeError):
        MinMaxNormalizer().transform(np.zeros((2, 2)))


def test_train_test_split_partition(rng):
    inputs = np.arange(100).reshape(100, 1)
    targets = np.arange(100)
    train_x, train_y, test_x, test_y = train_test_split(inputs, targets, 0.25, rng)
    assert len(test_x) == 25 and len(train_x) == 75
    combined = np.sort(np.concatenate([train_x.ravel(), test_x.ravel()]))
    assert np.array_equal(combined, np.arange(100))
    assert np.array_equal(train_x.ravel(), train_y)


def test_train_test_split_validation(rng):
    with pytest.raises(ShapeError):
        train_test_split(np.zeros((5, 1)), np.zeros(4), 0.2, rng)
    with pytest.raises(ShapeError):
        train_test_split(np.zeros((5, 1)), np.zeros(5), 1.5, rng)


def test_batches_cover_everything(rng):
    inputs = np.arange(10).reshape(10, 1)
    targets = np.arange(10)
    seen = []
    for batch_x, __ in batches(inputs, targets, batch_size=3):
        seen.extend(batch_x.ravel().tolist())
    assert sorted(seen) == list(range(10))


# -- H2 combustion ----------------------------------------------------------------


def test_h2_dataset_shapes(rng):
    dataset = make_h2_combustion(grid=32, rng=rng)
    assert dataset.train_inputs.shape[1] == 9
    assert dataset.train_targets.shape[1] == 9
    assert dataset.fields.shape == (9, 32, 32)
    assert dataset.n_inputs == 9 and dataset.n_outputs == 9
    assert dataset.task == "regression"


def test_h2_dataset_normalized(rng):
    dataset = make_h2_combustion(grid=32, rng=rng)
    assert dataset.train_inputs.min() >= -1.0 - 1e-5
    assert dataset.train_inputs.max() <= 1.0 + 1e-5
    assert np.isfinite(dataset.train_targets).all()


def test_h2_fields_match_samples(rng):
    dataset = make_h2_combustion(grid=24, rng=rng)
    samples = dataset.fields_as_samples()
    assert samples.shape == (24 * 24, 9)
    total = len(dataset.train_inputs) + len(dataset.test_inputs)
    assert total == 24 * 24


def test_h2_dataset_deterministic():
    a = make_h2_combustion(grid=24, rng=np.random.default_rng(5))
    b = make_h2_combustion(grid=24, rng=np.random.default_rng(5))
    assert np.array_equal(a.fields, b.fields)


# -- Borghesi ---------------------------------------------------------------------


def test_borghesi_has_13_inputs_3_outputs(rng):
    dataset = make_borghesi_flame(grid=32, rng=rng)
    assert dataset.n_inputs == len(INPUT_VARIABLES) == 13
    assert dataset.n_outputs == len(OUTPUT_VARIABLES) == 3
    assert dataset.fields.shape == (13, 32, 32)


def test_borghesi_dissipation_nonnegative(rng):
    """chi_Z and chi_C are (filtered) squared gradients: non-negative."""
    dataset = make_borghesi_flame(grid=32, rng=rng)
    raw_targets = dataset.target_normalizer.inverse(dataset.train_targets)
    assert raw_targets[:, 0].min() >= -1e-6
    assert raw_targets[:, 1].min() >= -1e-6


# -- EuroSAT ----------------------------------------------------------------------


def test_eurosat_shapes_and_classes(rng):
    dataset = make_eurosat(n_per_class=4, image_size=16, rng=rng)
    assert dataset.train_inputs.shape[1:] == (13, 16, 16)
    assert dataset.n_outputs == 10
    assert dataset.task == "classification"
    assert len(CLASS_NAMES) == 10
    assert dataset.metadata["bit_depth"] == 16


def test_eurosat_all_classes_present(rng):
    dataset = make_eurosat(n_per_class=6, image_size=16, rng=rng)
    labels = np.concatenate([dataset.train_targets, dataset.test_targets])
    assert set(labels.tolist()) == set(range(10))


def test_eurosat_classes_spectrally_distinct(rng):
    dataset = make_eurosat(n_per_class=8, image_size=16, rng=rng)
    inputs = np.concatenate([dataset.train_inputs, dataset.test_inputs])
    labels = np.concatenate([dataset.train_targets, dataset.test_targets])
    # mean band signature per class: within-class spread must be smaller
    # than between-class spread for the task to be learnable
    signatures = np.stack(
        [inputs[labels == c].mean(axis=(0, 2, 3)) for c in range(10)]
    )
    between = np.linalg.norm(signatures[:, None] - signatures[None, :], axis=-1)
    closest = np.min(between + np.eye(10) * 1e9)
    assert closest > 0.05


def test_eurosat_images_in_normalized_range(rng):
    dataset = make_eurosat(n_per_class=3, image_size=16, rng=rng)
    assert dataset.train_inputs.min() >= -1.0
    assert dataset.train_inputs.max() <= 1.0


# -- pinned generators ------------------------------------------------------------

# blake2b digests of every generated array, recorded before the generators'
# filters were written in numpy (they were scipy.ndimage calls).  The workload
# weight cache is keyed by file name only, so a generator that drifted by one
# ulp would pair cached weights with other data; these pins catch that.
_PINNED_DATASETS = {
    "h2-256": "cff3062124e5715d00be5bc2102af36d",
    "borghesi-128": "57239ffae65ffc8b06838a5194f7da80",
    "eurosat-3-24": "e34808f579a4d967946f3807d29fee2e",
    "h2combustion-small1": "cdd3b8dc5ff2bb7a3d676fb92b45faea",
    "h2combustion-small0": "07f69ccba0ce8a309ea921355e6c84b0",
    "borghesi-small1": "69b3911699c66c1a4c977114ea1b0046",
    "borghesi-small0": "c1e6ed7b9330ef6cb4623d423105aa0a",
    "eurosat-small1": "9d044fdedf5e4405ecf4efd08b088d33",
    "eurosat-small0": "b6b084e5bc5d715cb99f8bb504f9e66b",
}


def _dataset_digest(dataset) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for name in ("fields", "train_inputs", "train_targets", "test_inputs", "test_targets"):
        array = np.ascontiguousarray(getattr(dataset, name))
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _pinned_dataset(key: str):
    builders = {  # the benchmark's inputs, all seed 1
        "h2-256": lambda rng: make_h2_combustion(grid=256, rng=rng),
        "borghesi-128": lambda rng: make_borghesi_flame(grid=128, rng=rng),
        "eurosat-3-24": lambda rng: make_eurosat(n_per_class=3, image_size=24, rng=rng),
    }
    if key in builders:
        return builders[key](np.random.default_rng(1))
    name, small = key.rsplit("-small", 1)
    return _make_dataset(name, np.random.default_rng(0), small == "1")


@pytest.mark.parametrize("key", sorted(_PINNED_DATASETS))
def test_generated_datasets_are_pinned(key):
    assert _dataset_digest(_pinned_dataset(key)) == _PINNED_DATASETS[key]


def test_h2_temporal_snapshots_compress_better():
    """Temporal coherence is exploitable by the codecs."""
    from repro.compress import ErrorBoundMode, SZCompressor

    single = make_h2_combustion(grid=32, rng=np.random.default_rng(1))
    multi = make_h2_combustion(grid=32, rng=np.random.default_rng(1), n_snapshots=4)
    assert multi.fields.shape == (9, 4, 32, 32)
    codec = SZCompressor()
    ratio_multi = codec.compress(
        multi.fields, 1e-3, ErrorBoundMode.ABS
    ).compression_ratio
    ratio_single = codec.compress(
        single.fields, 1e-3, ErrorBoundMode.ABS
    ).compression_ratio
    assert ratio_multi > ratio_single * 0.95  # never meaningfully worse
