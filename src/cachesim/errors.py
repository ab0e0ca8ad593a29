"""Exception types shared across the simulator."""

from __future__ import annotations


class ConfigError(Exception):
    """Raised when an experiment config is structurally invalid."""


class TranscriptParseError(ValueError):
    """Raised when a transcript file cannot be parsed.

    Carries the 1-based line number of the offending record.
    """

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class TranscriptValidationError(ValueError):
    """Raised when a parsed transcript violates session invariants."""


class UndefinedBaselineError(ValueError):
    """Raised when an improvement is requested against a zero-mean baseline."""
