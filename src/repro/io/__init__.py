"""Persistent storage of compressed arrays (the disk side of Fig. 1)."""

from .checkpoint import CheckpointJournal, digest_array, digest_bytes, digest_model
from .serialization import (
    append_jsonl,
    atomic_write_bytes,
    atomic_write_json,
    blob_from_bytes,
    blob_to_bytes,
    read_jsonl_records,
)
from .store import DatasetStore

__all__ = [
    "CheckpointJournal",
    "DatasetStore",
    "append_jsonl",
    "atomic_write_bytes",
    "atomic_write_json",
    "blob_from_bytes",
    "blob_to_bytes",
    "digest_array",
    "digest_bytes",
    "digest_model",
    "read_jsonl_records",
]
