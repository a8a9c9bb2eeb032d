"""Exception types shared across the package."""

from __future__ import annotations


class HaigError(Exception):
    """Base class for all package-specific errors."""


class SpecSyntaxError(HaigError):
    """Input text is not well-formed JSON. Carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)
        self.line = line
        self.column = column


class SchemaError(HaigError):
    """Document is well-formed but violates the game-spec schema."""


class SpecReferenceError(HaigError):
    """A state, action, or observation reference does not resolve."""


class DistributionError(HaigError):
    """An observation probability row is negative or does not sum to one."""


class SerializationError(HaigError):
    """Document cannot be written, e.g. contains non-finite numbers."""


class NotConvergedError(HaigError):
    """A converged value solution was required but not available."""


class PolicyResolutionError(HaigError):
    """A policy selector names no known policy."""


class BudgetExceededError(HaigError):
    """A node budget was exhausted. ``partial`` holds any partial result."""

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
