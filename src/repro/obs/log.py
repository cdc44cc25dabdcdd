"""Structured, leveled logging with key=value context.

A line is the message followed by optional ``key=value`` pairs.  This is
byte-identical to the ``print()`` calls it replaces when no context is
attached, so CLI output (and the tests asserting on it) is unchanged.

Severities ``info`` and below write to stdout, ``warning`` and above to
stderr (the standard CLI convention).  Streams are resolved at emit
time, so test harnesses that swap ``sys.stdout`` (pytest's capsys)
observe every line.
"""

from __future__ import annotations

import sys

__all__ = ["Logger", "get_logger", "set_log_level", "LEVELS"]

LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}

_global_level = LEVELS["info"]
_loggers: dict[str, "Logger"] = {}


def _resolve_level(level: "int | str") -> int:
    if isinstance(level, int):
        return level
    try:
        return LEVELS[level.lower()]
    except KeyError:
        known = ", ".join(sorted(LEVELS))
        raise ValueError(f"unknown log level {level!r}; known: {known}") from None


def set_log_level(level: "int | str") -> None:
    """Set the process-wide threshold (affects every logger)."""
    global _global_level
    _global_level = _resolve_level(level)


def _fmt_value(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    text = str(value)
    if " " in text or "=" in text or '"' in text:
        return '"' + text.replace('"', '\\"') + '"'
    return text


class Logger:
    """A named logger; severity filtering is global."""

    def __init__(self, name: str) -> None:
        self.name = name

    def log(self, level: str, message: str, **context) -> None:
        severity = _resolve_level(level)
        if severity < _global_level:
            return
        stream = sys.stderr if severity >= LEVELS["warning"] else sys.stdout
        pairs = " ".join(f"{k}={_fmt_value(v)}" for k, v in context.items())
        stream.write((message if not pairs else f"{message} {pairs}") + "\n")

    def debug(self, message: str, **context) -> None:
        self.log("debug", message, **context)

    def info(self, message: str, **context) -> None:
        self.log("info", message, **context)

    def warning(self, message: str, **context) -> None:
        self.log("warning", message, **context)

    def error(self, message: str, **context) -> None:
        self.log("error", message, **context)


def get_logger(name: str) -> Logger:
    """Shared logger instance per name."""
    logger = _loggers.get(name)
    if logger is None:
        logger = _loggers[name] = Logger(name)
    return logger
