"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific one that applies rather than bare ValueError.
"""

__all__ = ["UsageError", "ResourceBudgetError", "InputFormatError"]


class UsageError(ValueError):
    """Caller passed arguments that violate an operation's contract."""


class ResourceBudgetError(RuntimeError):
    """Requested computation exceeds a resource budget (enumeration, dense law, pair count)."""


class InputFormatError(ValueError):
    """An input file or stream is malformed."""
