"""Distributed chunked execution: lease-based shard scheduling over TCP.

The single-host story (PR 6) made chunked execution fault-tolerant and
resumable; this package shards it across machines without weakening a
single guarantee.  A :class:`~repro.distrib.coordinator.ShardCoordinator`
serves the chunk manifest as TTL leases over length-prefixed JSON frames
(:mod:`~repro.distrib.protocol`); each
:class:`~repro.distrib.worker.ShardWorker` runs its leased chunks on the
existing supervised pool and local checkpoint journal, and the
coordinator merges the journals — validating every result against the
plan fingerprint and per-chunk input digests, so mixed-plan or tampered
results are structurally impossible to merge.

Entry points: ``InferencePipeline.execute_chunked(executor="distributed")``
on the coordinator side, ``repro coordinate`` / ``repro worker`` on the
CLI.
"""

from .coordinator import DistribConfig, DrainedError, ShardCoordinator
from .protocol import (
    PROTOCOL_VERSION,
    FrameSocket,
    decode_artifact,
    encode_artifact,
    fingerprints_equal,
    manifest_identity,
)
from .worker import ShardWorker

__all__ = [
    "DistribConfig",
    "DrainedError",
    "FrameSocket",
    "PROTOCOL_VERSION",
    "ShardCoordinator",
    "ShardWorker",
    "decode_artifact",
    "encode_artifact",
    "fingerprints_equal",
    "manifest_identity",
]
