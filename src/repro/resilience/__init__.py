"""Data-integrity layer: fault injection, runtime guards, degradation.

On real HPC storage, silent data corruption is an expected event.  This
subsystem makes the pipeline's error contract *enforceable at runtime*:

* :mod:`~repro.resilience.inject` — deterministic corruption generators
  (bit flips, truncation, header tampering, NaN/Inf poisoning) used by
  the test suite to prove detection coverage;
* :mod:`~repro.resilience.guards` — runtime checks (finite screening,
  achieved-error-vs-contract) raising structured typed errors;
* :mod:`~repro.resilience.policy` — graceful-degradation policies
  (``raise`` / ``recompress-from-source`` / ``fallback-lossless``)
  shared by :class:`~repro.io.store.DatasetStore` and
  :class:`~repro.core.pipeline.InferencePipeline`;
* :mod:`~repro.resilience.retry` — bounded exponential backoff with
  deterministic jitter (:class:`RetryPolicy`, :func:`retry_call`);
* :mod:`~repro.resilience.supervisor` — fault-tolerant process-based
  worker pool (heartbeats, deadlines, respawn, quarantine, circuit
  breaker) powering ``InferencePipeline.execute_chunked``.
"""

from .guards import check_contract, screen_finite
from .inject import (
    CHAOS_ENV_VAR,
    ChaosError,
    ChaosInjector,
    ChaosPartition,
    ChaosRule,
    FaultInjector,
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
from .policy import (
    CorruptionPolicy,
    record_audit_violation,
    record_recovery,
    record_retry,
    resolve_policy,
)
from .retry import RetryPolicy, retry_call
from .supervisor import (
    CircuitBreaker,
    SupervisedPool,
    TaskOutcome,
    fork_available,
)

__all__ = [
    "CHAOS_ENV_VAR",
    "ChaosError",
    "ChaosInjector",
    "ChaosPartition",
    "ChaosRule",
    "CircuitBreaker",
    "CorruptionPolicy",
    "RetryPolicy",
    "SupervisedPool",
    "TaskOutcome",
    "corrupt_result",
    "fork_available",
    "record_audit_violation",
    "record_recovery",
    "record_retry",
    "retry_call",
    "FaultInjector",
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
    "resolve_policy",
    "screen_finite",
    "truncate",
]
