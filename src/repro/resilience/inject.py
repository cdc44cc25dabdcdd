"""Deterministic fault injection for blobs, cache files and arrays.

On production HPC storage silent data corruption is an expected event,
not an exception.  This module provides the corruption *generators* the
test suite uses to prove the integrity layer catches every class it
claims to: bit flips, truncations, header tampering and NaN/Inf
poisoning.  All injectors are pure functions of their arguments — the
same call always produces the same corruption — so failures reproduce
exactly.

Byte-level injectors take and return ``bytes``; array injectors take and
return ``np.ndarray`` copies; :func:`corrupt_file` lifts any byte-level
injector onto a file path (atomically, so a crashed injector never
leaves a torn file — the harness must not itself be a corruption
source).
"""

from __future__ import annotations

import copy
import os
import signal
import struct
import time
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..exceptions import ConfigurationError
from ..io.serialization import atomic_write_bytes

__all__ = [
    "flip_bit",
    "truncate",
    "corrupt_magic",
    "corrupt_version",
    "corrupt_header_byte",
    "corrupt_payload_byte",
    "poison_nan",
    "poison_inf",
    "corrupt_file",
    "blob_corruptions",
    "corrupt_result",
    "ChaosError",
    "ChaosPartition",
    "ChaosRule",
    "ChaosInjector",
    "CHAOS_ENV_VAR",
]

# v2 prelude: 4 magic + 2 version + 4 header_len + 4 crc32
_V2_PRELUDE = 14


# -- byte-level injectors ---------------------------------------------------
def flip_bit(data: bytes, bit_index: int) -> bytes:
    """Flip one bit of ``data`` (bit 0 = LSB of byte 0)."""
    if not 0 <= bit_index < 8 * len(data):
        raise ConfigurationError(
            f"bit index {bit_index} out of range for {len(data)} bytes"
        )
    out = bytearray(data)
    out[bit_index // 8] ^= 1 << (bit_index % 8)
    return bytes(out)


def truncate(data: bytes, length: int) -> bytes:
    """Keep only the first ``length`` bytes (a torn write / short read)."""
    if length < 0:
        raise ConfigurationError(f"truncation length must be >= 0, got {length}")
    return data[:length]


def corrupt_magic(data: bytes) -> bytes:
    """Overwrite the 4-byte magic with an alien signature."""
    return b"XBLB" + data[4:]


def corrupt_version(data: bytes, version: int = 0x7FFF) -> bytes:
    """Rewrite the version field to an unsupported value."""
    return data[:4] + struct.pack("<H", version) + data[6:]


def _header_region(data: bytes) -> tuple[int, int]:
    """(start, end) byte offsets of the JSON header in a v2 blob."""
    if len(data) < _V2_PRELUDE:
        raise ConfigurationError("blob too short to locate its header")
    (header_length,) = struct.unpack_from("<I", data, 6)
    return _V2_PRELUDE, min(_V2_PRELUDE + header_length, len(data))


def corrupt_header_byte(data: bytes, offset: int = 0, bit: int = 0) -> bytes:
    """Flip one bit inside the JSON header region."""
    start, end = _header_region(data)
    if start + offset >= end:
        raise ConfigurationError(
            f"header offset {offset} outside header region [{start}, {end})"
        )
    return flip_bit(data, 8 * (start + offset) + bit)


def corrupt_payload_byte(data: bytes, offset: int = 0, bit: int = 0) -> bytes:
    """Flip one bit inside the payload region."""
    __, end = _header_region(data)
    if end + offset >= len(data):
        raise ConfigurationError(
            f"payload offset {offset} outside payload region [{end}, {len(data)})"
        )
    return flip_bit(data, 8 * (end + offset) + bit)


# -- array-level injectors --------------------------------------------------
def _poison(
    array: np.ndarray, value: float, fraction: float, seed: int
) -> np.ndarray:
    if not 0 < fraction <= 1:
        raise ConfigurationError(f"poison fraction must be in (0, 1], got {fraction}")
    out = np.array(array, dtype=np.result_type(array.dtype, np.float32), copy=True)
    flat = out.reshape(-1)
    count = max(1, int(round(fraction * flat.size)))
    rng = np.random.default_rng(seed)
    flat[rng.choice(flat.size, size=count, replace=False)] = value
    return out


def poison_nan(array: np.ndarray, fraction: float = 0.01, seed: int = 0) -> np.ndarray:
    """Return a copy with a deterministic subset of entries set to NaN."""
    return _poison(array, np.nan, fraction, seed)


def poison_inf(array: np.ndarray, fraction: float = 0.01, seed: int = 0) -> np.ndarray:
    """Return a copy with a deterministic subset of entries set to +Inf."""
    return _poison(array, np.inf, fraction, seed)


# -- file-level lifting -----------------------------------------------------
def corrupt_file(path: str, injector: Callable[[bytes], bytes]) -> None:
    """Apply a byte-level injector to a file in place (atomic rewrite)."""
    with open(path, "rb") as handle:
        data = handle.read()
    atomic_write_bytes(path, injector(data))


# -- corruption matrix ------------------------------------------------------
def blob_corruptions(
    data: bytes, truncation_step: int = 16
) -> Iterator[tuple[str, bytes]]:
    """Yield ``(name, corrupted)`` pairs covering every corruption class.

    The matrix spans: bad magic, unsupported version, a bit flip in the
    header, a bit flip in the payload, and truncation at every
    ``truncation_step``-byte boundary.  Tests iterate this to assert no
    corrupted variant ever decodes silently.
    """
    yield "bad-magic", corrupt_magic(data)
    yield "bad-version", corrupt_version(data)
    start, end = _header_region(data)
    yield "header-bitflip", corrupt_header_byte(data, offset=(end - start) // 2)
    if end < len(data):
        yield "payload-bitflip", corrupt_payload_byte(data, offset=(len(data) - end) // 2)
    for length in range(0, len(data), truncation_step):
        yield f"truncate-{length}", truncate(data, length)


# -- process/worker-level chaos ---------------------------------------------

#: environment variable the CLI/CI reads a chaos spec from
CHAOS_ENV_VAR = "REPRO_CHAOS"

_CHAOS_ACTIONS = ("kill", "hang", "slow", "raise", "corrupt", "disconnect")

#: default stall for ``hang`` rules — far past any sane task deadline
_HANG_SECONDS = 3600.0


class ChaosError(RuntimeError):
    """Failure raised by a ``raise`` chaos rule.

    Deliberately *not* a :class:`~repro.exceptions.ReproError`: injected
    faults must look like the arbitrary worker crashes they simulate,
    not like typed library failures.
    """


class ChaosPartition(ChaosError):
    """Signal raised by a ``disconnect`` chaos rule.

    Consumed by the distributed worker agent, which reacts by abruptly
    closing its coordinator connection — simulating a network partition
    rather than a compute fault.  Inside a process-pool worker (where
    there is no connection to sever) ``disconnect`` rules are inert.
    """


def corrupt_result(result, fraction: float = 0.05, seed: int = 0):
    """Deterministically poison the array content of a task result.

    Simulates a worker that computed garbage (bad RAM, a torn
    shared-memory read) but returned *something*: every ``np.ndarray``
    reachable one level deep — the object itself, elements of a
    list/tuple, or an ``outputs`` attribute (the
    :class:`~repro.core.pipeline.PipelineResult` convention) — is
    replaced by a NaN-poisoned copy.  The original object is never
    mutated, matching the copy semantics of the other array injectors.
    """
    if isinstance(result, np.ndarray):
        return poison_nan(result, fraction=fraction, seed=seed)
    if isinstance(result, (list, tuple)):
        items = [corrupt_result(item, fraction, seed) for item in result]
        return type(result)(items)
    if hasattr(result, "outputs") and isinstance(result.outputs, np.ndarray):
        corrupted = copy.copy(result)
        corrupted.outputs = poison_nan(result.outputs, fraction=fraction, seed=seed)
        return corrupted
    return result


@dataclass(frozen=True)
class ChaosRule:
    """One parsed chaos directive: what to do, to which task, how often.

    ``task=None`` matches every task; ``attempts=None`` matches every
    attempt, otherwise the rule fires only while ``attempt < attempts``
    (so the default ``attempts=1`` injects once and lets the retry
    succeed — the recoverable-fault shape).
    """

    action: str
    task: "int | None" = None
    attempts: "int | None" = 1
    param: float = 0.0

    def matches(self, task_id: int, attempt: int) -> bool:
        if self.task is not None and task_id != self.task:
            return False
        return self.attempts is None or attempt < self.attempts


class ChaosInjector:
    """Worker-side fault injector driven by a compact rule spec.

    Spec grammar (comma-separated rules)::

        action@task[:attempts][=param]

    * ``action`` — ``kill`` (SIGKILL own process), ``hang`` (sleep
      ``param`` seconds, default far past any deadline), ``slow``
      (sleep ``param`` seconds, default 0.1), ``raise`` (raise
      :class:`ChaosError`), ``corrupt`` (NaN-poison the task result),
      ``disconnect`` (sever the coordinator connection — distributed
      worker agents only, inert in a process pool);
    * ``task`` — a task index, or ``*`` for every task;
    * ``attempts`` — how many attempts the rule fires on: an integer
      (default 1 = first attempt only) or ``all`` (every attempt — the
      poison-chunk shape that exhausts a retry budget);
    * ``param`` — seconds for ``hang``/``slow``.

    Examples: ``kill@2`` (worker running task 2 dies once),
    ``hang@1=5`` (task 1 stalls 5 s on its first attempt),
    ``kill@3:all`` (task 3 is a poison pill), ``slow@*=0.2`` (every
    task dawdles).  The spec travels through :data:`CHAOS_ENV_VAR` so
    CI chaos jobs can inject faults through the unmodified CLI.
    """

    def __init__(self, rules: "list[ChaosRule] | None" = None) -> None:
        self.rules = list(rules or [])

    @classmethod
    def from_spec(cls, spec: str) -> "ChaosInjector":
        rules = []
        for raw in spec.split(","):
            raw = raw.strip()
            if not raw:
                continue
            rules.append(cls._parse_rule(raw))
        return cls(rules)

    @classmethod
    def from_env(cls) -> "ChaosInjector | None":
        """Injector from :data:`CHAOS_ENV_VAR`, or ``None`` if unset."""
        spec = os.environ.get(CHAOS_ENV_VAR, "").strip()
        return cls.from_spec(spec) if spec else None

    @staticmethod
    def _parse_rule(raw: str) -> ChaosRule:
        if "@" not in raw:
            raise ConfigurationError(
                f"chaos rule {raw!r} must look like action@task[:attempts][=param]"
            )
        action, __, rest = raw.partition("@")
        action = action.strip().lower()
        if action not in _CHAOS_ACTIONS:
            raise ConfigurationError(
                f"unknown chaos action {action!r}; known: {', '.join(_CHAOS_ACTIONS)}"
            )
        rest, __, param_text = rest.partition("=")
        target, __, attempts_text = rest.partition(":")
        target = target.strip()
        try:
            task = None if target == "*" else int(target)
        except ValueError:
            raise ConfigurationError(
                f"chaos rule {raw!r}: task must be an index or '*'"
            ) from None
        attempts_text = attempts_text.strip().lower()
        if not attempts_text:
            attempts: "int | None" = 1
        elif attempts_text == "all":
            attempts = None
        else:
            try:
                attempts = int(attempts_text)
            except ValueError:
                raise ConfigurationError(
                    f"chaos rule {raw!r}: attempts must be an integer or 'all'"
                ) from None
            if attempts < 1:
                raise ConfigurationError(
                    f"chaos rule {raw!r}: attempts must be >= 1"
                )
        if param_text:
            try:
                param = float(param_text)
            except ValueError:
                raise ConfigurationError(
                    f"chaos rule {raw!r}: param must be a number"
                ) from None
        else:
            param = _HANG_SECONDS if action == "hang" else 0.1
        return ChaosRule(action=action, task=task, attempts=attempts, param=param)

    def _active(self, task_id: int, attempt: int) -> "list[ChaosRule]":
        return [rule for rule in self.rules if rule.matches(task_id, attempt)]

    def active_rules(self, task_id: int, attempt: int) -> "list[ChaosRule]":
        """Rules matching this (task, attempt) — for external consumers
        (the distributed worker agent fires ``kill``/``disconnect``
        itself, at the transport layer where they mean something)."""
        return self._active(task_id, attempt)

    def before_task(self, task_id: int, attempt: int) -> None:
        """Fire pre-execution rules (kill/hang/slow/raise) for this attempt.

        ``disconnect`` is deliberately skipped: severing a network
        connection is a transport-level fault the distributed worker
        agent injects via :meth:`active_rules`; a pool worker has
        nothing to disconnect from.
        """
        for rule in self._active(task_id, attempt):
            if rule.action == "kill":
                os.kill(os.getpid(), signal.SIGKILL)
            elif rule.action in ("hang", "slow"):
                time.sleep(rule.param)
            elif rule.action == "raise":
                raise ChaosError(
                    f"injected failure for task {task_id} attempt {attempt}"
                )

    def after_task(self, task_id: int, attempt: int, result):
        """Apply result-corruption rules; returns the (possibly new) result."""
        for rule in self._active(task_id, attempt):
            if rule.action == "corrupt":
                result = corrupt_result(result, seed=task_id)
        return result
