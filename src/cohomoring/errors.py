"""Exception types shared across the package."""

from __future__ import annotations

__all__ = ["ValidationError", "BudgetExceeded", "GuardExceeded", "require_keys"]


class ValidationError(ValueError):
    """A table-backed object failed one of its exhaustive invariant checks.

    `witness` carries the offending elements (indices, tuples) when available
    so reports can point at a concrete counterexample.
    """

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class BudgetExceeded(RuntimeError):
    """An enumeration would exceed the configured budget; nothing was computed."""


class GuardExceeded(ArithmeticError):
    """Integer transform entries left the range where int64 arithmetic is
    exact; the computation stopped and nothing was returned."""


def require_keys(data, keys, what: str) -> dict:
    """`data` itself when it is a JSON object holding every key in `keys`."""
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object")
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValidationError(f"{what} lacks {', '.join(missing)}")
    return data


def _json_name(data: dict) -> str:
    """The "name" of a group, ring or extension payload: "" when absent or
    null, the string itself, and a ValidationError for anything else."""
    name = data.get("name")
    if name is None:
        return ""
    if not isinstance(name, str):
        raise ValidationError(f"'name' must be a string or null, got {name!r}")
    return name
