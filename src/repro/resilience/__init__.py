"""Data-integrity layer: fault injection, runtime guards, recovery.

On real HPC storage, silent data corruption is an expected event.  This
subsystem makes the pipeline's error contract *enforceable at runtime*:

* :mod:`~repro.resilience.inject` — deterministic corruption generators
  (bit flips, truncation, header tampering, NaN/Inf poisoning) used by
  the test suite to prove detection coverage;
* :mod:`~repro.resilience.guards` — runtime checks (finite screening,
  achieved-error-vs-contract) raising structured typed errors;
* :mod:`~repro.resilience.retry` — bounded exponential backoff with
  deterministic jitter (:class:`RetryPolicy`, :func:`retry_call`);
* :mod:`~repro.resilience.supervisor` — fault-tolerant process-based
  worker pool (heartbeats, deadlines, respawn, quarantine, circuit
  breaker) powering ``InferencePipeline.execute_chunked``: the one
  place a failed chunk is retried or degraded.  Everything else —
  :class:`~repro.io.store.DatasetStore` included — verifies and raises.
"""

from .guards import check_contract, screen_finite
from .inject import (
    CHAOS_ENV_VAR,
    ChaosError,
    ChaosInjector,
    ChaosPartition,
    ChaosRule,
    blob_corruptions,
    corrupt_file,
    corrupt_header_byte,
    corrupt_magic,
    corrupt_payload_byte,
    corrupt_result,
    corrupt_version,
    flip_bit,
    poison_inf,
    poison_nan,
    truncate,
)
from .retry import RetryPolicy, retry_call
from .supervisor import SupervisedPool, TaskOutcome, fork_available

__all__ = [
    "CHAOS_ENV_VAR",
    "ChaosError",
    "ChaosInjector",
    "ChaosPartition",
    "ChaosRule",
    "RetryPolicy",
    "SupervisedPool",
    "TaskOutcome",
    "corrupt_result",
    "fork_available",
    "retry_call",
    "blob_corruptions",
    "check_contract",
    "corrupt_file",
    "corrupt_header_byte",
    "corrupt_magic",
    "corrupt_payload_byte",
    "corrupt_version",
    "flip_bit",
    "poison_inf",
    "poison_nan",
    "screen_finite",
    "truncate",
]
