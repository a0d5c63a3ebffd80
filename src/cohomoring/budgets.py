"""Enumeration budgets.

Every exhaustive search and every order^2 table in the package is gated by
one of these counts, and `gate` is the one function that refuses: it reads
the budget when it runs, before the search or the table is started, and
raises `BudgetExceeded` with the caller's text.  The environment variable
COHOMORING_BUDGET, when set to a positive float, scales all of them uniformly
(2.0 doubles every budget, 0.5 halves them); a value that is not a positive
number raises ValueError at the first gate reached.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

from .errors import BudgetExceeded

__all__ = ["Budgets", "current_budgets", "gate", "DEFAULTS"]


@dataclass(frozen=True)
class Budgets:
    # largest ring whose tables are built and checked
    ring_check_max_order: int = 4096
    # candidates of every search: |N|^#generators for Z^1 and coboundaries, the
    # product of the candidate counts for Hom, End and isomorphisms,
    # |N|^((|Q|-1)^2) for H^2
    search_candidates: int = 1_000_000
    # second cohomology
    h2_linear_size: int = 4096  # |Q|^2 * (number of cyclic factors of N)
    h2g_max_group_order: int = 16  # largest |G| whose H^2(G,N) node size is reported


DEFAULTS = Budgets()


def current_budgets() -> Budgets:
    """Default budgets scaled by the COHOMORING_BUDGET env var (if set)."""
    raw = os.environ.get("COHOMORING_BUDGET")
    if not raw:
        return DEFAULTS
    try:
        factor = float(raw)
    except ValueError as exc:
        raise ValueError(f"COHOMORING_BUDGET must be a number, got {raw!r}") from exc
    if factor <= 0:
        raise ValueError(f"COHOMORING_BUDGET must be positive, got {factor}")
    scaled = {f.name: max(1, int(getattr(DEFAULTS, f.name) * factor)) for f in fields(DEFAULTS)}
    return replace(DEFAULTS, **scaled)


def gate(field: str, used: int, text: str) -> None:
    """Raise BudgetExceeded(text.format(used=used, limit=limit)) when `used`
    exceeds the budget named `field`."""
    limit = getattr(current_budgets(), field)
    if used > limit:
        raise BudgetExceeded(text.format(used=used, limit=limit))
