"""Worked instances: the dihedral family and a 432-element semidirect ring.

Each builder constructs its objects from scratch, checks every structural
formula on all index pairs, and attaches the exactness reports of the
surrounding machinery.  The dihedral fiber ring is indexed by pairs f(k,l)
through displacement values at the two generators; the 432-element ring is
indexed by f((k,l),s) with an even-sum pair and an even residue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd
from typing import Dict, List, Optional, Tuple

import numpy as np

from .catalog import dihedral_extension
from .errors import ValidationError
from .groups import FiniteGroup, _in_table_dtype, _row_blocks, make_cyclic
from .rings import (
    BimoduleAction,
    SemidirectRing,
    check_ideal,
    is_square_zero_ideal,
    quasi_regular_indices,
    quotient_ring,
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
    "dihedral_model_ring",
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
        return {
            "name": self.name,
            "facts": [[label, _jsonable(value)] for label, value in self.facts],
            "checks": [
                {
                    "position": c.position,
                    "status": c.status,
                    "detail": c.detail,
                    "witness": _jsonable(c.witness),
                }
                for c in self.checks
            ],
            "tables": self.tables,
            "reports": [r.to_json() for r in self.reports],
            "data": _jsonable(self.data),
            "ok": self.ok,
        }


def _format_grid(rows: List[List[str]]) -> List[str]:
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return ["  ".join(cell.rjust(w) for cell, w in zip(r, widths)) for r in rows]


# ------------------------------------------------------------------ dihedral


def dihedral_model_ring(n: int) -> SemidirectRing:
    """Mod-n pairs (k, l) with product (k1,l1)(k2,l2) = (l1 k2, l1 l2).

    Built as a semidirect ring: the coefficient ring acts on the carrier by
    multiplication on the left and by zero on the right.
    """
    zn = zn_ring(n, name=f"mod-{n} residues")
    carrier = make_cyclic(n)
    mul = np.arange(n, dtype=np.int64)
    left = (mul[:, None] * mul[None, :]) % n
    right = np.zeros((n, n), dtype=np.int64)
    action = BimoduleAction(r_ring=zn, s_group=carrier, left=left, right=right)
    return semidirect_ring(action, name=f"pair ring mod {n}")


def _f_grid(table: np.ndarray, mem: np.ndarray, pair_of: np.ndarray,
            order_pairs: List[Tuple[int, int]]) -> List[List[str]]:
    head = [""] + [f"{k},{l}" for k, l in order_pairs]
    res = table[mem[:, None], mem[None, :]]
    rows = [head]
    for a, (k, l) in enumerate(order_pairs):
        cells = [f"{int(pair_of[m, 0])},{int(pair_of[m, 1])}" for m in res[a]]
        rows.append([f"{k},{l}"] + cells)
    return rows


def dihedral_report(n: int) -> ExampleReport:
    """All structure of the fiber endomorphism ring of D(n) over its rotations.

    Members are indexed as f(k,l) by displacement values at the reflection
    (k) and the rotation (l); every stated formula is checked on every index
    pair, and the two endomorphism sequence reports are attached.
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
    (f_index,) = _in_table_dtype(size, np.full((n, n), -1))
    pair_of = np.zeros((size, 2), dtype=np.int64)
    for m in range(size):
        psi = fe.displacement(m)
        k, l = int(psi.values[1]), int(psi.values[2])
        f_index[k, l] = m
        pair_of[m] = (k, l)
    covered = size == n * n and not (f_index < 0).any()
    rep.check("f(k,l) indexing is a bijection onto the members", covered,
              detail=f"{n}x{n} displacement pairs against {size} members")
    if not covered:
        rep.reports.append(verify_five_term(data))
        return rep
    rep.check("identity member sits at f(0,0)", int(f_index[0, 0]) == 0,
              detail="ring zero is the identity endomorphism")

    # index axes [k, l, p, q], broadcast so that no n^4 index grid is built
    kk = np.arange(n)[:, None, None, None]
    ll = np.arange(n)[None, :, None, None]
    pp = np.arange(n)[None, None, :, None]
    qq = np.arange(n)[None, None, None, :]
    members = f_index[kk, ll]
    others = f_index[pp, qq]
    got = fe.ring.add_table[members, others]
    want = f_index[(kk + pp) % n, (ll + qq) % n]
    ok = bool((got == want).all())
    wit = None
    if not ok:
        k, l, p, q = map(int, np.argwhere(got != want)[0])
        wit = {"left": [k, l], "right": [p, q]}
    rep.check("sum of f(k,l) and f(p,q) is f(k+p,l+q)", ok,
              detail=f"all {size * size} pairs", witness=wit)

    got = fe.ring.mul_table[members, others]
    want = f_index[(ll * pp) % n, (ll * qq) % n]
    ok = bool((got == want).all())
    wit = None
    if not ok:
        k, l, p, q = map(int, np.argwhere(got != want)[0])
        wit = {"left": [k, l], "right": [p, q]}
    rep.check("product of f(k,l) and f(p,q) is f(lp,lq)", ok,
              detail=f"all {size * size} pairs", witness=wit)

    line = f_index[:, 0]
    prods = fe.ring.mul_table[np.ix_(line, line)]
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

    # the whole fiber ring against the abstract pair model
    model = dihedral_model_ring(n)
    mem = f_index.reshape(-1)  # model index k*n + l -> member
    sem = model.ring
    model_ok = sem.order == size and all(
        (mem[model_table[rows]] == table[mem[rows, None], mem]).all()
        for model_table, table in ((sem.add_table, fe.ring.add_table),
                                   (sem.mul_table, fe.ring.mul_table))
        for rows in _row_blocks(size, size))
    rep.check("fiber ring matches the mod-n pair model", model_ok,
              detail="tables transported through (k,l) -> k*n+l")

    units = {int(f_index[k, l]) for k in range(n) for l in range(n)
             if gcd(l + 1, n) == 1}
    rep.check("invertible members are the f(k,l) with gcd(l+1, n) = 1",
              set(int(m) for m in fe.aut_indices) == units,
              detail=f"{len(units)} members")
    rep.fact("invertible member count", len(fe.aut_indices))

    if size <= _TABLE_PRINT_CAP:
        order_pairs = [(k, l) for k in range(n) for l in range(n)]
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

    # value decomposition of each member index
    kvals = pairs[np.arange(ring.order) // nr, 0]
    lvals = pairs[np.arange(ring.order) // nr, 1]
    svals = rvals[np.arange(ring.order) % nr]

    expect_add = pos[(kvals[:, None] + kvals[None, :]) % 12,
                     (lvals[:, None] + lvals[None, :]) % 12] * nr + \
        ((svals[:, None] + svals[None, :]) % 12) // 2
    ok = bool((ring.add_table == expect_add).all())
    wit = None
    if not ok:
        a, b = map(int, np.argwhere(ring.add_table != expect_add)[0])
        wit = {"left": [int(kvals[a]), int(lvals[a]), int(svals[a])],
               "right": [int(kvals[b]), int(lvals[b]), int(svals[b])]}
    rep.check("sum of f((k,l),s) and f((m,n),t) is f((k+m,l+n),s+t)", ok,
              detail=f"all {ring.order * ring.order} pairs", witness=wit)

    expect_mul = pos[(svals[:, None] * kvals[None, :]) % 12,
                     (svals[:, None] * lvals[None, :]) % 12] * nr + \
        ((svals[:, None] * svals[None, :]) % 12) // 2
    ok = bool((ring.mul_table == expect_mul).all())
    wit = None
    if not ok:
        a, b = map(int, np.argwhere(ring.mul_table != expect_mul)[0])
        wit = {"left": [int(kvals[a]), int(lvals[a]), int(svals[a])],
               "right": [int(kvals[b]), int(lvals[b]), int(svals[b])]}
    rep.check("product of f((k,l),s) and f((m,n),t) is f((sm,sn),st)", ok,
              detail=f"all {ring.order * ring.order} pairs", witness=wit)

    ideal = semi.s_indices
    check_ideal(ring, ideal)
    rep.fact("pair-part ideal size", int(ideal.shape[0]))
    rep.check("pair part is a square-zero ideal",
              is_square_zero_ideal(ring, ideal),
              detail="two-sided absorption and all pairwise products zero")

    qr_r = quasi_regular_indices(subring_from_indices(zn_ring(12), [0, 2, 4, 6, 8, 10])[0])
    rep.check("coefficient quasi-regular residues are {0, 4, 6, 10}",
              sorted(int(rvals[i]) for i in qr_r) == [0, 4, 6, 10])
    qr_all = quasi_regular_indices(ring)
    rep.fact("quasi-regular member count", len(qr_all))
    rep.check("quasi-regular member count is 288", len(qr_all) == 288,
              detail="72 pair translates of 4 residues")

    quo, proj = quotient_ring(ring, ideal)
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
