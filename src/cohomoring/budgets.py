"""Enumeration budgets.

Every exhaustive search in the package is gated by one of these counts.  Each
gate reads `current_budgets()` when it runs, so the environment variable
COHOMORING_BUDGET, when set to a positive float, scales all of them uniformly
(2.0 doubles every budget, 0.5 halves them); a value that is not a positive
number raises ValueError at the first gate reached.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, fields, replace

__all__ = ["Budgets", "current_budgets", "DEFAULTS"]


@dataclass(frozen=True)
class Budgets:
    # largest ring whose tables are built and checked
    ring_check_max_order: int = 4096
    # crossed-homomorphism enumeration
    z1_generator_candidates: int = 1_000_000  # |module|^#generators, closure strategy
    # second cohomology
    h2_brute_candidates: int = 1_000_000  # |N|^((|Q|-1)^2)
    h2_linear_size: int = 4096  # |Q|^2 * (number of cyclic factors of N)
    h2g_max_group_order: int = 16  # largest |G| whose H^2(G,N) node size is reported
    # generator-image hom searches: Hom, End, kernel-fixing endos
    endo_scan_candidates: int = 1_000_000  # product of the candidate counts
    # isomorphism search
    iso_search_max_order: int = 64


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
