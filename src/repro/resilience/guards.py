"""Runtime integrity guards for the error-bounded pipeline.

The paper's end-to-end guarantee only holds for data that actually obeys
its contracts; these guards are the runtime checks that turn a silent
violation into a structured, typed diagnostic at the stage where it
happened.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ContractViolation, IntegrityError

__all__ = ["screen_finite", "check_contract"]


def screen_finite(
    array: np.ndarray, stage: str, name: str | None = None
) -> np.ndarray:
    """Raise :class:`IntegrityError` if ``array`` contains NaN or Inf.

    Returns the array unchanged so the guard can be used inline:
    ``samples = screen_finite(codec.decompress(blob), "decompress")``.
    """
    array = np.asarray(array)
    if not np.issubdtype(array.dtype, np.floating):
        return array
    finite = np.isfinite(array)
    if finite.all():
        return array
    bad = int(array.size - int(finite.sum()))
    nan_count = int(np.isnan(array).sum())
    label = f" in {name!r}" if name else ""
    raise IntegrityError(
        f"non-finite values detected at stage {stage!r}{label}: "
        f"{bad}/{array.size} entries ({nan_count} NaN, {bad - nan_count} Inf)"
    )


def check_contract(
    achieved: float,
    expected: float,
    *,
    codec: str,
    stage: str,
    norm: str = "linf",
    slack: float = 0.0,
) -> float:
    """Raise :class:`ContractViolation` unless ``achieved`` is within
    ``expected`` (a NaN is not).

    ``slack`` widens the bound multiplicatively (``expected * (1+slack)``)
    for callers that tolerate floating-point round-off in the measurement
    itself.  Returns the achieved error for chaining.
    """
    achieved = float(achieved)
    expected = float(expected)
    if not achieved <= expected * (1.0 + slack):
        raise ContractViolation(
            f"error contract violated at stage {stage!r}: codec {codec!r} "
            f"achieved {norm} error {achieved:.6e} exceeds the negotiated "
            f"bound {expected:.6e}",
            codec=codec,
            stage=stage,
            norm=norm,
            expected=expected,
            achieved=achieved,
        )
    return achieved
