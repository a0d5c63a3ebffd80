"""Objects that one catalog sweep builds once and every entry shares.

H^2(Q,N) and the ring End_Q(N) of equivariant module endomorphisms depend
only on the Q-module N, not on the extension class, and the entries of a
JSON catalog repeat the same group tables.  A `SweepStore` lives for one
`catalog.sweep` call and keeps two kinds of object, each under its key:

* a group loaded from JSON, under its canonical payload text
  (`json.dumps(payload, sort_keys=True)`: table, generators, labels, name),
  so equal payloads give one `FiniteGroup`, certified once, whose caches
  (decomposition, BFS words, element orders) every entry reuses;
* an object of the Q-module alone, under its kind and the acting group Q,
  the module N and the action table's bytes (`q_module`): H^2(Q,N), read
  by `verify.ExtensionData.h2q`; the module ring End_Q(N), read by
  `endo_rings.fiber_endo_ring`; and the action-preserving endomorphisms of
  Q and Z^1(Q,N), read by `ExtensionData.c_all` and `ExtensionData.z1n`.

Q and N enter those keys as the objects themselves, so the `is` checks
that tie cocycles to their H^2 data hold across entries.  A build that
raises stores nothing: every entry that needs the object builds it again
and reports its own error.  Callers without a sweep use a fresh, empty
store, so a single extension runs the same lookups.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, Hashable, TypeVar

from .groups import ActionTable, FiniteGroup, group_from_json

__all__ = ["SweepStore"]

T = TypeVar("T")


class SweepStore:
    """The objects one sweep has built, by key; see the module docstring."""

    def __init__(self) -> None:
        self._built: Dict[Hashable, object] = {}

    def _get(self, key: Hashable, build: Callable[[], T]) -> T:
        """The object stored under `key`, built by `build()` on first use."""
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def q_module(self, kind: str, action: ActionTable, build: Callable[[], T]) -> T:
        """The `kind` object of the Q-module that `action` makes of its
        module, built by `build()` once per sweep."""
        return self._get((kind, action.actor, action.module, action.table.tobytes()), build)

    def group(self, payload) -> FiniteGroup:
        """`group_from_json(payload)`, one object per canonical payload; a
        payload that `json` cannot encode (one holding numpy arrays, say) is
        loaded but not shared."""
        try:
            key = json.dumps(payload, sort_keys=True)
        except (TypeError, ValueError):
            return group_from_json(payload)
        return self._get(("group", key), lambda: group_from_json(payload))
