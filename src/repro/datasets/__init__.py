"""Synthetic scientific datasets reproducing the paper's three workloads."""

from .borghesi import INPUT_VARIABLES, OUTPUT_VARIABLES, make_borghesi_flame
from .combustion import make_h2_combustion
from .eurosat import CLASS_NAMES, make_eurosat
from .loaders import MinMaxNormalizer, ScientificDataset, batches, train_test_split

__all__ = [
    "CLASS_NAMES",
    "INPUT_VARIABLES",
    "MinMaxNormalizer",
    "OUTPUT_VARIABLES",
    "ScientificDataset",
    "batches",
    "make_borghesi_flame",
    "make_eurosat",
    "make_h2_combustion",
    "train_test_split",
]
