"""Bounded retry with exponential backoff and deterministic jitter.

Every recoverable-failure path in this codebase follows the same
discipline: a bounded number of re-attempts, spaced out so a struggling
resource (a sick worker, a contended disk) is not hammered, with jitter
so a fleet of retriers does not thunder in lockstep.  PR 1 hard-coded
that discipline into the corruption policies; this module lifts it into
a reusable value object so the supervised worker pool, the checkpoint
layer and tests all share one schedule.

Jitter is *deterministic*: the delay for ``(seed, attempt)`` is a pure
function, so a failing run replays with exactly the same backoff
schedule — the same reproducibility contract as
:mod:`repro.resilience.inject`.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Callable

from ..exceptions import ConfigurationError

__all__ = ["RetryPolicy", "retry_call"]


@dataclass(frozen=True)
class RetryPolicy:
    """Schedule of bounded, exponentially backed-off retries.

    Parameters
    ----------
    max_retries:
        Re-attempts after the first failure (0 = fail immediately).
        ``max_retries=2`` means at most 3 attempts in total.
    base_delay:
        Delay before the first retry, in seconds.
    max_delay:
        Ceiling the exponential growth saturates at.
    jitter:
        Fractional jitter: the delay for attempt ``k`` is drawn
        uniformly from ``[d_k, d_k * (1 + jitter)]`` where
        ``d_k = min(max_delay, base_delay * 2**k)``.
    seed:
        Jitter stream seed; the same ``(seed, attempt)`` always yields
        the same delay.
    """

    max_retries: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ConfigurationError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigurationError("retry delays must be >= 0")
        if self.jitter < 0:
            raise ConfigurationError(f"jitter must be >= 0, got {self.jitter}")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ConfigurationError(f"attempt must be >= 0, got {attempt}")
        base = min(self.max_delay, self.base_delay * (2.0 ** attempt))
        if self.jitter == 0 or base == 0:
            return base
        fraction = random.Random(f"{self.seed}:{attempt}").random()
        return base * (1.0 + self.jitter * fraction)


def retry_call(
    fn: Callable,
    policy: RetryPolicy,
    retry_on: tuple = (Exception,),
    on_retry: "Callable[[int, BaseException], None] | None" = None,
    sleep: Callable[[float], None] = time.sleep,
):
    """Call ``fn()`` under ``policy``, re-raising the final failure.

    ``on_retry(attempt, exc)`` fires before each backoff sleep (metrics,
    logging); ``sleep`` is injectable so tests run instantly.
    """
    for attempt in range(policy.max_retries + 1):
        try:
            return fn()
        except retry_on as exc:
            if attempt >= policy.max_retries:
                raise
            if on_retry is not None:
                on_retry(attempt, exc)
            sleep(policy.delay(attempt))
    raise AssertionError("unreachable")  # pragma: no cover
