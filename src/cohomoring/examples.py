"""Worked instances: the dihedral family and a 432-element semidirect ring.

Each builder constructs its objects from scratch, proves every structural
formula on all index pairs, and attaches the exactness reports of the
surrounding machinery.  The dihedral fiber ring is indexed by pairs f(k,l)
through displacement values at the two generators, and its match with the
mod-n pair model follows from the sum and product formula rows; the
432-element ring is indexed by f((k,l),s) with an even-sum pair and an even
residue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .catalog import dihedral_extension
from .errors import ValidationError
from .groups import FiniteGroup, _in_table_dtype
from .rings import (
    BimoduleAction,
    FiniteRing,
    SemidirectRing,
    _quotient_by_ideal,
    _squares_to_zero,
    check_ideal,
    quasi_regular_indices,
    semidirect_ring,
    subring_from_indices,
    zn_ring,
)
from .verify import (
    ExactnessReport,
    ExtensionData,
    SequenceCheck,
    _jsonable,
    verify_aut_five_term,
    verify_five_term,
    verify_qr_sequence,
)

__all__ = [
    "ExampleReport",
    "dihedral_report",
    "ring432_report",
    "ring432_construct",
]

DIHEDRAL_MIN = 3
DIHEDRAL_MAX = 64

# full pair tables are printed only while they stay readable
_TABLE_PRINT_CAP = 64


@dataclass
class ExampleReport:
    """Facts, formula checks, optional tables and attached sequence reports."""

    name: str
    facts: List[Tuple[str, object]] = field(default_factory=list)
    checks: List[SequenceCheck] = field(default_factory=list)
    tables: Dict[str, List[List[str]]] = field(default_factory=dict)
    reports: List[ExactnessReport] = field(default_factory=list)
    data: Dict[str, object] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        if any(c.status == "fail" for c in self.checks):
            return False
        return all(r.ok for r in self.reports)

    def fact(self, label: str, value: object) -> None:
        self.facts.append((label, value))

    def check(self, label: str, passed: bool, detail: str = "",
              witness: Optional[object] = None) -> None:
        self.checks.append(SequenceCheck(
            label, None, None, "pass" if passed else "fail", detail,
            None if passed else witness))

    def lines(self) -> List[str]:
        out = [f"example: {self.name}"]
        for label, value in self.facts:
            out.append(f"  {label}: {value}")
        out.extend(c.line() for c in self.checks)
        for tname, grid in self.tables.items():
            out.append(f"{tname}:")
            out.extend("  " + row for row in _format_grid(grid))
        for rep in self.reports:
            out.append("")
            out.extend(rep.lines())
        out.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return out

    def to_json(self) -> Dict:
        """The report as plain JSON data, every fact, witness and datum
        converted."""
        return self._json_tree(_jsonable)

    def _json_tree(self, plain: Callable = lambda value: value) -> Dict:
        """The report as `cli._emit_json` prints it, each fact, witness and
        datum passed through `plain`; by default no value is copied, such
        as the member_pairs list of D(n), n^2 pairs long."""
        return {
            "name": self.name,
            "facts": [[label, plain(value)] for label, value in self.facts],
            "checks": [
                {
                    "position": c.position,
                    "status": c.status,
                    "detail": c.detail,
                    "witness": plain(c.witness),
                }
                for c in self.checks
            ],
            "tables": self.tables,
            "reports": [r._json_tree(plain) for r in self.reports],
            "data": plain(self.data),
            "ok": self.ok,
        }


def _format_grid(rows: List[List[str]]) -> List[str]:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return ["  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in rows]


# ------------------------------------------------------------------ dihedral


def _f_grid(table: np.ndarray, mem: np.ndarray, pair_of: np.ndarray,
            order_pairs: List[Tuple[int, int]]) -> List[List[str]]:
    head = [""] + [f"{k},{l}" for k, l in order_pairs]
    res = table[mem[:, None], mem[None, :]]
    rows = [head]
    for a, (k, l) in enumerate(order_pairs):
        cells = [f"{int(pair_of[m, 0])},{int(pair_of[m, 1])}" for m in res[a]]
        rows.append([f"{k},{l}"] + cells)
    return rows


_Row = Tuple[bool, Optional[Dict[str, List[int]]]]


def _all_pairs_row(table: np.ndarray, f_index: np.ndarray, want) -> _Row:
    """Verdict and first witness, in [k, l, p, q] order, of table[f(k,l),
    f(p,q)] == want(k, l, p, q) on every index pair."""
    n = len(f_index)
    # open grids on the four axes, so no n^4 index grid is built
    k, l, p, q = np.ogrid[:n, :n, :n, :n]
    bad = table[f_index[k, l], f_index[p, q]] != want(k, l, p, q)
    if not bad.any():
        return True, None
    k, l, p, q = map(int, np.argwhere(bad)[0])
    return False, {"left": [k, l], "right": [p, q]}


def _pair_formula_rows(ring: FiniteRing, f_index: np.ndarray) -> List[_Row]:
    """Verdict and first witness of the rows "sum of f(k,l) and f(p,q) is
    f(k+p,l+q)" and "product of f(k,l) and f(p,q) is f(lp,lq)", for the
    bijection f = f_index of the mod-n pairs onto the members of `ring`.

    Sum: call s good when f(x) + f(s) = f(x+s) for all x.  A good s gives
    f(0,0) + f(s) = f(s) at x = (0,0), so f(0,0) is the ring zero and (0,0)
    is good too.  Good s and t give f(x) + f(s+t) = f(x) + (f(s) + f(t)) =
    (f(x) + f(s)) + f(t) = f(x+s+t) by the ring's certified associativity,
    so s + t is good.  So checking s = (1,0) and (0,1), two shifts of
    f_index, proves every pair.  Product: once the sum row holds, fix
    x = (k,l); both y -> f(x) f(y) and y -> f(ly) are additive, the first by
    the certified left distributivity f(x)(f(y) + f(y')) = f(x) f(y) +
    f(x) f(y'), the second by the sum row.  So they agree everywhere once
    they agree on the two generators.  Where a generator check fails, or the product's
    precondition does, the row is decided by `_all_pairs_row`, which also
    gives its first witness.
    """
    n = len(f_index)
    add, mul = ring.add_table, ring.mul_table
    f10, f01 = f_index[1, 0], f_index[0, 1]
    sums = (bool((add[f_index, f10] == np.roll(f_index, -1, axis=0)).all())
            and bool((add[f_index, f01] == np.roll(f_index, -1, axis=1)).all()))
    sum_row = (True, None) if sums else _all_pairs_row(
        add, f_index, lambda k, l, p, q: f_index[(k + p) % n, (l + q) % n])
    # [k, l]: f(k,l) f(1,0) = f(l,0) and f(k,l) f(0,1) = f(0,l)
    prods = (sum_row[0]
             and bool((mul[f_index, f10] == f_index[:, 0]).all())
             and bool((mul[f_index, f01] == f_index[0]).all()))
    mul_row = (True, None) if prods else _all_pairs_row(
        mul, f_index, lambda k, l, p, q: f_index[(l * p) % n, (l * q) % n])
    return [sum_row, mul_row]


def dihedral_report(n: int) -> ExampleReport:
    """All structure of the fiber endomorphism ring of D(n) over its rotations.

    Members are indexed as f(k,l) by displacement values at the reflection
    (k) and the rotation (l); every stated formula is proved on every index
    pair (the sum and product formulas by `_pair_formula_rows`, from the
    additive generators), and the two endomorphism sequence reports are
    attached.

    The match with the mod-n pair model needs no model ring.  The model
    indexes (k,l) as k*n + l, with sum (k+p, l+q) and product (lp, lq) mod n,
    and the row is reached only once (k,l) -> f(k,l) is a bijection onto the
    members.  That map carries the model's sum table onto the fiber ring's
    exactly when f(k,l) + f(p,q) = f(k+p, l+q) for all pairs, which is the
    sum row, and its product table exactly when f(k,l) f(p,q) = f(lp, lq),
    which is the product row.  Both rows are decided exactly, so the match
    is their conjunction.
    """
    if not DIHEDRAL_MIN <= n <= DIHEDRAL_MAX:
        raise ValidationError(
            f"dihedral example needs {DIHEDRAL_MIN} <= n <= {DIHEDRAL_MAX}, got {n}")
    data = ExtensionData(dihedral_extension(n))
    # H^2(Q,N) is built here, not in verify_five_term, whose first argument
    # perfbench/tracer.py reads as an extension when it classifies compute_h2
    fe, _ = data.fe, data.h2q
    size = fe.ring.order
    rep = ExampleReport(name=f"dihedral family member D{n}")
    rep.fact("extension", f"rotations C{n} inside D{n} with quotient C2")
    rep.fact("fiber-preserving endomorphism ring order", size)

    # locate members by displacement at the two generators: x sits at group
    # index 1 (the reflection), y at index 2 (the order-n rotation); in the
    # dtype of the ring's tables, so the size^2 gathers through it stay narrow
    pair_of = fe.cocycles.index.tables[:, [1, 2]]
    (f_index,) = _in_table_dtype(size, np.full((n, n), -1))
    f_index[pair_of[:, 0], pair_of[:, 1]] = np.arange(size)
    covered = size == n * n and not (f_index < 0).any()
    rep.check("f(k,l) indexing is a bijection onto the members", covered,
              detail=f"{n}x{n} displacement pairs against {size} members")
    if not covered:
        rep.reports.append(verify_five_term(data))
        return rep
    rep.check("identity member sits at f(0,0)", int(f_index[0, 0]) == 0,
              detail="ring zero is the identity endomorphism")

    (sum_ok, sum_wit), (mul_ok, mul_wit) = _pair_formula_rows(fe.ring, f_index)
    rep.check("sum of f(k,l) and f(p,q) is f(k+p,l+q)", sum_ok,
              detail=f"all {size * size} pairs", witness=sum_wit)
    rep.check("product of f(k,l) and f(p,q) is f(lp,lq)", mul_ok,
              detail=f"all {size * size} pairs", witness=mul_wit)

    line = f_index[:, 0]
    prods = fe.ring.mul_table[line[:, None], line]
    rep.check("products of f(k,0) members all vanish",
              bool((prods == int(f_index[0, 0])).all()),
              detail=f"all {n * n} pairs on the kernel-and-quotient-fixing line")
    rep.check("kernel-and-quotient-fixing members are exactly the f(k,0) line",
              set(int(m) for m in fe.ideal_indices) == set(int(m) for m in line),
              detail=f"cyclic of order {n} under addition")
    rep.fact("kernel-and-quotient-fixing member count", len(fe.ideal_indices))

    # the equivariant endomorphisms of the kernel are the mod-n multiplications
    zn = zn_ring(n)
    mr = fe.module_ring
    arange = np.arange(n, dtype=np.int64)
    phi = mr.locate_all((arange[:, None] * arange) % n)
    mod_ok = (
        mr.ring.order == n
        and len(set(phi.tolist())) == n
        and bool((phi[zn.add_table] == mr.ring.add_table[phi[:, None], phi[None, :]]).all())
        and bool((phi[zn.mul_table] == mr.ring.mul_table[phi[:, None], phi[None, :]]).all())
        and mr.ring.one is not None
        and int(phi[zn.one]) == int(mr.ring.one)
    )
    rep.fact("equivariant kernel endomorphism ring order", mr.ring.order)
    rep.check("equivariant kernel endomorphism ring is the mod-n residue ring",
              mod_ok, detail="multiplication maps match both tables and the identity")

    rep.check("fiber ring matches the mod-n pair model", sum_ok and mul_ok,
              detail="tables transported through (k,l) -> k*n+l")

    units = set(f_index[:, np.gcd(np.arange(1, n + 1), n) == 1].ravel().tolist())
    rep.check("invertible members are the f(k,l) with gcd(l+1, n) = 1",
              set(int(m) for m in fe.aut_indices) == units,
              detail=f"{len(units)} members")
    rep.fact("invertible member count", len(fe.aut_indices))

    if size <= _TABLE_PRINT_CAP:
        order_pairs = [(k, l) for k in range(n) for l in range(n)]
        mem = f_index.reshape(-1)  # pair index k*n + l -> member
        rep.tables["sum table, f(k,l) indexed"] = _f_grid(
            fe.ring.add_table, mem, pair_of, order_pairs)
        rep.tables["product table, f(k,l) indexed"] = _f_grid(
            fe.ring.mul_table, mem, pair_of, order_pairs)

    rep.data["member_pairs"] = pair_of.tolist()
    rep.reports.append(verify_five_term(data))
    rep.reports.append(verify_aut_five_term(data))
    return rep


# ------------------------------------------------------------- 432-ring


def _even_pair_group(modulus: int) -> Tuple[FiniteGroup, np.ndarray, np.ndarray]:
    """Pairs mod `modulus` with even coordinate sum, under componentwise sum."""
    pairs = [(m, u) for m in range(modulus) for u in range(modulus)
             if (m + u) % 2 == 0]
    order = len(pairs)
    pos = np.full((modulus, modulus), -1, dtype=np.int64)
    for i, (m, u) in enumerate(pairs):
        pos[m, u] = i
    arr = np.asarray(pairs, dtype=np.int64)
    table = pos[(arr[:, None, 0] + arr[None, :, 0]) % modulus,
                (arr[:, None, 1] + arr[None, :, 1]) % modulus]
    labels = [f"{m},{u}" for m, u in pairs]
    gens = [int(pos[1, 1]), int(pos[0, 2])]
    g = FiniteGroup(table, gens, labels=labels, name=f"even-sum pairs mod {modulus}")
    return g, arr, pos


def ring432_construct() -> Tuple[SemidirectRing, np.ndarray, np.ndarray, np.ndarray]:
    """The 432-element semidirect ring on even-sum pairs mod 12.

    Returns the semidirect ring, the pair of each carrier index, the carrier
    position lookup, and the residue of each coefficient-ring index.
    """
    z12 = zn_ring(12)
    rring, rvals = subring_from_indices(z12, [0, 2, 4, 6, 8, 10],
                                        name="even residues mod 12")
    sgroup, pairs, pos = _even_pair_group(12)
    left = pos[(rvals[:, None] * pairs[None, :, 0]) % 12,
               (rvals[:, None] * pairs[None, :, 1]) % 12]
    right = np.zeros((sgroup.order, rring.order), dtype=np.int64)
    action = BimoduleAction(r_ring=rring, s_group=sgroup, left=left, right=right)
    semi = semidirect_ring(action, name="even-pair ring mod 12")
    return semi, pairs, pos, rvals


def _coordinate_laws(ring: FiniteRing, pairs: np.ndarray, pos: np.ndarray,
                     rvals: np.ndarray) -> List[Tuple[bool, Optional[Dict]]]:
    """(passed, witness) for the sum law and then the product law of the
    432-element ring, each compared on all order^2 index pairs.

    Member index = pair index * nr + residue index, the layout of
    `semidirect_ring`.  The sum of f((k,l),s) and f((m,n),t) depends on the
    pairs only through a [pair, pair] grid and on the residues only through
    a [residue, residue] grid; the product f((sm,sn),st) on a [residue, pair]
    grid and a [residue, residue] grid.  The grids, built in the dtype of the
    ring's tables, are broadcast over the axes [pair, residue, pair, residue]
    of the reshaped tables.  The witness names the first failing pair in
    row-major order of the full table.
    """
    npair, nr = pairs.shape[0], rvals.shape[0]
    k, l = pairs[:, 0], pairs[:, 1]
    pair_add, res_add, pair_mul, res_mul = _in_table_dtype(
        ring.order,
        pos[(k[:, None] + k[None, :]) % 12, (l[:, None] + l[None, :]) % 12],  # [pair, pair]
        ((rvals[:, None] + rvals[None, :]) % 12) // 2,  # [residue, residue]
        pos[(rvals[:, None] * k[None, :]) % 12, (rvals[:, None] * l[None, :]) % 12],  # [residue, pair]
        ((rvals[:, None] * rvals[None, :]) % 12) // 2)  # [residue, residue]
    expected = (pair_add[:, None, :, None] * nr + res_add[None, :, None, :],
                pair_mul[None, :, :, None] * nr + res_mul[None, :, None, :])
    laws = []
    for table, expect in zip((ring.add_table, ring.mul_table), expected):
        bad = (table.reshape(npair, nr, npair, nr) != expect).reshape(ring.order, ring.order)
        wit = None
        if bad.any():
            a, b = map(int, np.argwhere(bad)[0])
            wit = {"left": [*map(int, pairs[a // nr]), int(rvals[a % nr])],
                   "right": [*map(int, pairs[b // nr]), int(rvals[b % nr])]}
        laws.append((wit is None, wit))
    return laws


def ring432_report() -> ExampleReport:
    """Structure checks for the 432-element ring of even-sum pairs mod 12.

    Members are indexed as f((k,l),s): an even-sum pair and an even residue.
    Both composition laws are checked on all 432*432 index pairs, the pair
    part is confirmed square-zero, and the quasi-regular sequence over the
    residue part is verified.
    """
    semi, pairs, pos, rvals = ring432_construct()
    ring = semi.ring
    nr = rvals.shape[0]
    rep = ExampleReport(name="432-element even-pair ring")
    rep.fact("carrier group order", int(pairs.shape[0]))
    rep.fact("coefficient ring order", nr)
    rep.fact("coefficient ring is non-unital", all(
        not bool(((rvals * int(v)) % 12 == rvals).all()) for v in rvals))
    rep.fact("ring order", ring.order)

    # FiniteRing proved the axioms for every element at construction, and
    # raises instead of returning a ring that fails them
    rep.check("ring axioms hold", True,
              detail=f"exhaustive associativity and distributivity at order {ring.order}")

    laws = ("sum of f((k,l),s) and f((m,n),t) is f((k+m,l+n),s+t)",
            "product of f((k,l),s) and f((m,n),t) is f((sm,sn),st)")
    for label, (ok, wit) in zip(laws, _coordinate_laws(ring, pairs, pos, rvals)):
        rep.check(label, ok, detail=f"all {ring.order * ring.order} pairs", witness=wit)

    ideal = check_ideal(ring, semi.s_indices)
    rep.fact("pair-part ideal size", int(ideal.shape[0]))
    rep.check("pair part is a square-zero ideal", _squares_to_zero(ring, ideal),
              detail="two-sided absorption and all pairwise products zero")

    qr_r = quasi_regular_indices(subring_from_indices(zn_ring(12), [0, 2, 4, 6, 8, 10])[0])
    rep.check("coefficient quasi-regular residues are {0, 4, 6, 10}",
              sorted(int(rvals[i]) for i in qr_r) == [0, 4, 6, 10])
    qr_all = quasi_regular_indices(ring)
    rep.fact("quasi-regular member count", len(qr_all))
    rep.check("quasi-regular member count is 288", len(qr_all) == 288,
              detail="72 pair translates of 4 residues")

    quo, proj = _quotient_by_ideal(ring, ideal)
    # transport both tables through the embedded coefficient copy
    emb = proj.values[semi.r_indices]
    tr_add = proj.values[ring.add_table[np.ix_(semi.r_indices, semi.r_indices)]]
    tr_mul = proj.values[ring.mul_table[np.ix_(semi.r_indices, semi.r_indices)]]
    quo_ok = (
        quo.order == nr
        and len(set(int(e) for e in emb)) == nr
        and bool((tr_add == quo.add_table[emb[:, None], emb[None, :]]).all())
        and bool((tr_mul == quo.mul_table[emb[:, None], emb[None, :]]).all())
    )
    rep.check("quotient by the pair part matches the coefficient ring", quo_ok,
              detail="tables transported through the embedded copy")

    rep.reports.append(verify_qr_sequence(ring, ideal, proj,
                                          instance="432-element even-pair ring"))
    return rep
