"""Distributed chunked execution: lease-based shard scheduling over TCP.

Chunked execution is fault-tolerant and resumable on the supervised
pool; this package shards it over TCP to worker agents without weakening
a single guarantee.  A :class:`~repro.distrib.coordinator.ShardCoordinator`
serves the chunk manifest as TTL leases over length-prefixed JSON frames
(:mod:`~repro.distrib.protocol`); each
:class:`~repro.distrib.worker.ShardWorker` runs its leased chunks on the
existing supervised pool and its own checkpoint journal, and the
coordinator validates every result against the plan fingerprint and
per-chunk input digests before the caller replays it, so mixed-plan or
tampered results are structurally impossible to merge.

Entry points: ``InferencePipeline.execute_chunked(executor="distributed")``
on the coordinator side and :meth:`ShardWorker.run` on each worker; both
run on one host (the coordinator listens on the loopback interface).
"""

from .coordinator import DistribConfig, ShardCoordinator
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
    "FrameSocket",
    "PROTOCOL_VERSION",
    "ShardCoordinator",
    "ShardWorker",
    "decode_artifact",
    "encode_artifact",
    "fingerprints_equal",
    "manifest_identity",
]
