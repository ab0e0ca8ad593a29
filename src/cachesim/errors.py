"""Exception types shared across the simulator."""

from __future__ import annotations


class ConfigError(Exception):
    """Raised when an experiment config is structurally invalid."""


class TranscriptValidationError(ValueError):
    """Raised when a transcript violates session invariants."""


class UndefinedBaselineError(ValueError):
    """Raised when an improvement is requested against a zero-mean baseline."""
