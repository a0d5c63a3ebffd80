"""Instance catalog and the verification sweep.

The default catalog assembles the standing test family: the dihedral
extensions over their rotation subgroups, every extension of a small cyclic
kernel by a small cyclic quotient built from second-cohomology class
representatives across all actions, the rank-two elementary quotient family
over a two-element kernel, and a few direct products (including one with a
nonabelian quotient).  Catalogs can also be loaded from JSON, either as
explicit extensions, as (quotient, kernel, action, cocycle) quadruples, or as
raw rings with an optional square-zero ideal.

The sweep runs every sequence verifier on every entry, treating failures as
data: a broken entry produces a failed summary row with a witness, never an
exception.
"""

import json
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from .cohomology2 import TwoCocycle, compute_h2
from .errors import BudgetExceeded, GuardExceeded, ValidationError, require_keys
from .extension import (
    AbelianExtension,
    build_extension,
    extension_from_cocycle,
    extension_from_json,
)
from .groups import (
    GroupHom,
    _as_int_array,
    enumerate_actions,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    trivial_action,
)
from .rings import (
    FiniteRing,
    _quotient_by_ideal,
    _squares_to_zero,
    check_ideal,
    quasi_regular_group,
    ring_from_json,
)
from .store import SweepStore
from .verify import ExactnessReport, _jsonable, verify_all, verify_qr_sequence


@dataclass
class CatalogEntry:
    """One verification instance: a built object or raw data to build lazily."""

    name: str
    kind: str  # "extension" or "ring"
    data: object

    def materialize(self, store: Optional[SweepStore] = None):
        """Build the underlying object; raw JSON payloads are validated here,
        their groups loaded through `store` (a fresh one by default)."""
        if isinstance(self.data, (AbelianExtension, tuple)):
            return self.data
        payload = require_keys(self.data, (), "catalog entry")
        store = SweepStore() if store is None else store
        if self.kind == "extension":
            if "extension" in payload:
                return extension_from_json(payload["extension"], store)
            if "quadruple" in payload:
                quad = require_keys(payload["quadruple"],
                                    ("quotient_group", "kernel_group", "action", "cocycle"),
                                    "quadruple")
                q_group = store.group(quad["quotient_group"])
                n_group = store.group(quad["kernel_group"])
                actions = enumerate_actions(q_group, n_group)
                table = _as_int_array(quad["action"], "quadruple action")
                match = None
                for act in actions:
                    if act.table.shape == table.shape and (act.table == table).all():
                        match = act
                        break
                if match is None:
                    raise ValidationError("quadruple action is not an action")
                coc = TwoCocycle(q_group, n_group, match,
                                 _as_int_array(quad["cocycle"], "quadruple cocycle"))
                return extension_from_cocycle(coc, name=self.name)
            raise ValidationError("extension entry needs 'extension' or 'quadruple'")
        if self.kind == "ring":
            ring = ring_from_json(require_keys(payload, ("ring",), "ring entry")["ring"])
            ideal = payload.get("ideal")
            return ring, ideal
        raise ValidationError(f"unknown catalog entry kind {self.kind!r}")


def dihedral_extension(n: int) -> AbelianExtension:
    """The dihedral group of order 2n over its rotation subgroup."""
    d = make_dihedral(n)
    cn = make_cyclic(n, name=f"C{n}")
    c2 = make_cyclic(2, name="C2")
    i = GroupHom(cn, d, [2 * j for j in range(n)])
    p = GroupHom(d, c2, [j % 2 for j in range(2 * n)])
    return build_extension(i, p, name=f"D{n} over rotations")


def default_catalog() -> List[CatalogEntry]:
    """The standing instance family used by the acceptance run."""
    entries: List[CatalogEntry] = []

    for n in range(3, 13):
        ext = dihedral_extension(n)
        entries.append(CatalogEntry(ext.name, "extension", ext))

    # Every extension of a small cyclic kernel by a small cyclic quotient,
    # one per cohomology class, across all actions.
    for n_ord in (2, 3, 4):
        for q_ord in (2, 3):
            n_group = make_cyclic(n_ord, name=f"C{n_ord}")
            q_group = make_cyclic(q_ord, name=f"C{q_ord}q")
            for ai, action in enumerate(enumerate_actions(q_group, n_group)):
                h2 = compute_h2(q_group, n_group, action)
                for coeffs, rep in h2.classes():
                    name = (f"C{n_ord} by C{q_ord}, action {ai}, "
                            f"class {tuple(int(c) for c in coeffs)}")
                    ext = extension_from_cocycle(rep, name=name)
                    entries.append(CatalogEntry(name, "extension", ext))

    # Two-element kernel under the rank-two elementary quotient.
    c2 = make_cyclic(2, name="C2")
    v4, _, _ = make_direct_product(make_cyclic(2), make_cyclic(2), name="C2xC2")
    act = trivial_action(v4, c2)
    h2 = compute_h2(v4, c2, act)
    for coeffs, rep in h2.classes():
        name = f"C2 by C2xC2, class {tuple(int(c) for c in coeffs)}"
        ext = extension_from_cocycle(rep, name=name)
        entries.append(CatalogEntry(name, "extension", ext))

    # Direct products, including a nonabelian quotient.
    for a, b, label in (
            (make_cyclic(3, name="C3"), make_cyclic(4, name="C4"), "C3xC4 product"),
            (make_cyclic(6, name="C6"), make_cyclic(2, name="C2"), "C6xC2 product"),
            (make_cyclic(2, name="C2"), make_dihedral(3), "C2xD3 product")):
        g, i_a, p_b = make_direct_product(a, b, name=label)
        ext = build_extension(i_a, p_b, name=label)
        entries.append(CatalogEntry(label, "extension", ext))

    return entries


def catalog_from_json(data) -> List[CatalogEntry]:
    """Load a catalog from a parsed JSON document (or a JSON text string)."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict) or not isinstance(data.get("entries", []), list):
        raise ValidationError("catalog JSON must be an object with an 'entries' list")
    entries = []
    for row in data.get("entries", []):
        fields = row if isinstance(row, dict) else {}
        name = fields.get("name", f"entry {len(entries)}")
        kind = fields.get("kind", "extension")
        entries.append(CatalogEntry(name, kind, row))
    return entries


# ---------------------------------------------------------------------- sweep


def _verify_ring_entry(name: str, ring: FiniteRing, ideal) -> List[ExactnessReport]:
    """Checks for a raw ring entry: quasi-regular group, and the quasi-regular
    sequence over the quotient when a square-zero ideal is supplied."""
    if ideal is None:
        report = ExactnessReport("quasi-regular group", name)
        report.nodes = [("quasi-regulars of the ring", quasi_regular_group(ring)[0].order)]
        report.add("quasi-regulars form a group", True,
                   detail="closure and inverses verified")
        return [report]
    arr = check_ideal(ring, ideal)
    if not _squares_to_zero(ring, arr):
        raise ValidationError("stated ideal is not square-zero")
    quo, proj = _quotient_by_ideal(ring, arr)
    return [verify_qr_sequence(ring, arr, proj, instance=name)]


def sweep(entries: List[CatalogEntry], check_h2g: bool = True,
          plain: Callable = _jsonable) -> Dict:
    """Run every verifier on every entry; failures become summary rows, each
    witness passed through `plain`: by default plain JSON data, and the value
    itself for `cli._emit_json`, which converts as it prints.

    The entries share one `SweepStore`: each JSON group payload, each
    H^2(Q,N) and each module ring End_Q(N) is built once per sweep, and a
    build that raises is not kept, so every row is the one the entry would
    get swept alone."""
    store = SweepStore()
    rows = []
    failed = 0
    for entry in entries:
        row: Dict = {"name": entry.name, "kind": entry.kind}
        try:
            obj = entry.materialize(store)
            if entry.kind == "extension":
                reports = verify_all(obj, check_h2g=check_h2g, store=store)
            else:
                ring, ideal = obj
                reports = _verify_ring_entry(entry.name, ring, ideal)
            row["ok"] = all(r.ok for r in reports)
            row["reports"] = [r._json_tree(plain) for r in reports]
        except (ValidationError, BudgetExceeded, GuardExceeded) as exc:
            row["ok"] = False
            row["error"] = str(exc)
            witness = getattr(exc, "witness", None)
            if witness is not None:
                row["witness"] = plain(witness)
        if not row["ok"]:
            failed += 1
        rows.append(row)
    return {"total": len(rows), "failed": failed, "entries": rows}
