"""Finite rings as explicit operation tables, not assumed unital.

The additive zero must sit at index 0, mirroring the group convention.  All
axioms are proved at construction for every element, by a certificate over
the additive generators: right distributivity against each generator (k n^2
work for k generators), left distributivity on the generator rows against
each generator (k^2 n), then associativity on generator triples (k^3).

Tables that `groups._coset_tables` filled (the crossed-homomorphism ring
Z^1(Q,N) and the module ring End_Q(N)) take a private route: their walk
supplies right distributivity and associativity of the sum for the tables
as built, checked on its k generators in k n and k^2 n cells instead of the
k n^2 sweeps.  Every other check runs as for any tables, and the ring
records the supplied law in `supplied_laws`.  Tables from anywhere else,
copies of walk tables included, get the full certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import ValidationError, _json_name
from .groups import (
    FiniteGroup,
    _as_int,
    _as_int_array,
    _as_table,
    _hom_rows,
    _index_table,
    _CosetWalk,
    _integer_input,
    _on_walk,
    _positions,
    _ring_order_gate,
    _row_blocks,
    _in_table_dtype,
    subgroup_from_indices,
)

__all__ = [
    "FiniteRing",
    "RingHom",
    "zn_ring",
    "subring_from_indices",
    "quotient_ring",
    "star_table",
    "quasi_regular_indices",
    "quasi_regular_group",
    "unit_group",
    "is_square_zero_ideal",
    "check_ideal",
    "BimoduleAction",
    "semidirect_ring",
    "SemidirectRing",
    "ring_to_json",
    "ring_from_json",
]


class FiniteRing:
    """A finite ring given by full addition and multiplication tables.

    Both tables are stored in `groups._table_dtype(order)` once range-checked;
    add_table is the table of add_group itself, not a copy.  `supplied_laws`
    names the ring laws that the construction proved in place of a sweep:
    ("right distributivity",) for tables that `groups._coset_tables` filled
    (see `_validate`), else ().
    """

    _walk: Optional[_CosetWalk] = None  # set by `groups._on_walk` before __init__

    def __init__(self, add_table, mul_table, one: Optional[int] = None,
                 labels: Optional[Sequence[str]] = None, name: str = ""):
        add_table = _as_table(add_table, "ring addition table")
        self.mul_table = _integer_input(mul_table, "ring multiplication table")
        self.order = add_table.shape[0]
        self.one = None if one is None else _as_int(one, "ring identity index")
        self.name = name
        _ring_order_gate(self.order)
        group_name = f"{name}+" if name else ""
        if self._walk is None:
            self.add_group = FiniteGroup(add_table, None, labels=labels, name=group_name)
        else:
            self.add_group = _on_walk(FiniteGroup, self._walk, add_table, None,
                                      labels=labels, name=group_name)
        self.add_table = self.add_group.table
        self.labels = self.add_group.labels
        self._validate()
        self._quasi_regular: Optional[np.ndarray] = None  # see quasi_regular_indices

    def _validate(self) -> None:
        """Prove the ring axioms for all elements from the additive generators.

        With g over the core generators of the additive group, (a+g)c = ac +
        gc for all a, c makes multiplication additive in its left argument:
        the g passing it contain 0 and are closed under addition.  Then
        D(a; x, y) = a(x+y) - ax - ay is additive in a, so the a with D = 0
        form a subgroup, and it is enough to show D = 0 for a among the
        generators.  For such an a, a(x+g) = ax + ag for all x and each
        generator g does that, by the same closure argument in g.  Then
        (ab)c - a(bc) is additive in each argument, so associativity on
        generator triples proves it on all triples.  When a distributivity
        check fails, `_distributivity_sweep` names the first failing triple
        in the order of the full sweep.

        Tables that `groups._coset_tables` filled, still its read-only
        tables, skip the k n^2 sweep of the right law: the walk built each
        product row as a sum of generator rows, and that makes a -> ab
        additive for all a and b once r P = mul[rg] at each closing cell of
        the walk (`groups._coset_tables` has the proof).  That check costs
        k n cells for k walk generators.  The left law, associativity, the
        zero, the identity and commutativity are checked as for any tables.
        """
        n = self.order
        if self.mul_table.shape != (n, n):
            raise ValidationError(f"multiplication table must be {n}x{n}")
        self.mul_table = _index_table(self.mul_table, n,
                                      "multiplication table entries out of range")
        add, mul = self.add_table, self.mul_table
        walk = self._walk
        if walk is not None and (walk.add is not add or walk.mul is not mul
                                 or add.flags.writeable or mul.flags.writeable):
            walk = self._walk = None
        if not self.add_group.is_abelian():
            raise ValidationError("ring addition must be commutative")
        if (mul[0] != 0).any() or (mul[:, 0] != 0).any():
            raise ValidationError("zero must annihilate the ring on both sides")
        k = np.asarray(self.add_group.core_generators, dtype=np.int64)
        if walk is None:
            right = self._right_sweep_fails()
        else:  # [l, b]: ((r - 1)g)b + gb against (rg)b at each closing cell
            g, last, x = walk.closing.T
            right = (add[mul[last], mul[g]] != mul[x]).any()
        self.supplied_laws = () if walk is None else ("right distributivity",)
        rows = mul[k]  # [i, x] = k_i x
        ab = mul[k[:, None], k]  # [i, j] = k_i k_j
        # [i, x, j]: k_i (x + k_j) against k_i x + k_i k_j
        left = rows[:, add[:, k]] != add[rows[:, :, None], ab[:, None, :]]
        if right or left.any():
            self._distributivity_sweep()
        bad = mul[ab[:, :, None], k[None, None, :]] != mul[k[:, None, None], ab[None, :, :]]
        if bad.any():
            a, b, c = (int(k[i]) for i in np.argwhere(bad)[0])
            raise ValidationError(
                f"multiplication not associative at ({a}, {b}, {c})", witness=(a, b, c))
        if self.one is not None:
            e = self.one
            if not 0 <= e < n:
                raise ValidationError(f"declared identity {e} outside the ring of order {n}")
            if not (mul[e] == np.arange(n)).all() or not (mul[:, e] == np.arange(n)).all():
                raise ValidationError(f"declared identity {e} is not two-sided")

    def _right_sweep_fails(self) -> bool:
        """Whether (a+g)c = ac + gc fails for some a, c and core generator g
        of the additive group: k n^2 cells, over blocks of rows a."""
        add, mul = self.add_table, self.mul_table
        blocks = _row_blocks(self.order, self.order)
        return any((mul[add[rows, g]] != add[mul[rows], mul[g]]).any()
                   for g in self.add_group.core_generators for rows in blocks)

    def _distributivity_sweep(self) -> None:
        """Raise the first failure of a(b+g) = ab + ag or (a+g)c = ac + gc,
        over all a, b, c and each core generator g in order, left law first.

        This is k n^2 work for each law; it runs only once the certificate
        of `_validate` has failed, to give the error and witness it names.
        """
        add, mul = self.add_table, self.mul_table
        for g in self.add_group.core_generators:
            left = mul[:, add[:, g]] != add[mul, mul[:, g][:, None]]  # [a, b]: a(b+g), ab+ag
            if left.any():
                a, b = map(int, np.argwhere(left)[0])
                raise ValidationError(
                    f"left distributivity fails at ({a}, {b}, {g})", witness=(a, b, g))
            right = mul[add[:, g]] != add[mul, mul[g][None, :]]  # [a, c]: (a+g)c, ac+gc
            if right.any():
                a, c = map(int, np.argwhere(right)[0])
                raise ValidationError(
                    f"right distributivity fails at ({a}, {g}, {c})", witness=(a, g, c))
        raise RuntimeError("distributivity certificate failed but the full sweep passed")

    def add(self, a: int, b: int) -> int:
        return int(self.add_table[a, b])

    def mul(self, a: int, b: int) -> int:
        return int(self.mul_table[a, b])

    def neg(self, a: int) -> int:
        return int(self.add_group.inverse[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def star(self, a: int, b: int) -> int:
        """The circle operation a + b + ab, a monoid with neutral element 0."""
        return self.add(self.add(a, b), self.mul(a, b))

    def label(self, a: int) -> str:
        return self.labels[a]


class RingHom:
    """A map of rings preserving both operations (not required to send 1 to 1).

    Additivity is certified by `groups._hom_rows`; both sides of the product
    law are then additive in each argument, so the law on pairs of additive
    core generators proves it on all pairs.  No error names a pair, so no
    full sweep runs.
    """

    def __init__(self, source: FiniteRing, target: FiniteRing, values):
        self.source = source
        self.target = target
        self.values = v = np.asarray(values, dtype=np.int64)
        if v.shape != (source.order,):
            raise ValidationError("ring map needs one value per source element")
        if v.min() < 0 or v.max() >= target.order:
            raise ValidationError("ring map value out of range")
        if not _hom_rows(source.add_group, target.add_group, v[None])[0]:
            raise ValidationError("ring map is not additive")
        k = np.asarray(source.add_group.core_generators, dtype=np.int64)
        if not (v[source.mul_table[np.ix_(k, k)]] == target.mul_table[np.ix_(v[k], v[k])]).all():
            raise ValidationError("ring map is not multiplicative")

    def __call__(self, a: int) -> int:
        return int(self.values[a])

    def is_injective(self) -> bool:
        return len(set(self.values.tolist())) == self.source.order

    def is_surjective(self) -> bool:
        return len(set(self.values.tolist())) == self.target.order


def zn_ring(n: int, name: str = "") -> FiniteRing:
    """The ring of integers mod n."""
    if n < 1:
        raise ValidationError(f"ring of integers mod n needs n >= 1, got {n}")
    _ring_order_gate(n)
    idx = np.arange(n, dtype=np.int64)
    add = (idx[:, None] + idx[None, :]) % n
    mul = (idx[:, None] * idx[None, :]) % n
    return FiniteRing(add, mul, one=1 % n, labels=[str(k) for k in range(n)],
                      name=name or f"Z{n}")


def subring_from_indices(ring: FiniteRing, indices, name: str = "") -> Tuple[FiniteRing, np.ndarray]:
    """The subring on a subset (which must contain 0 and be closed), plus its index map."""
    idx = sorted({int(a) for a in indices})
    if not idx or idx[0] != 0:
        raise ValidationError("a subring must contain 0")
    arr = np.asarray(idx, dtype=np.int64)
    pos = _positions(ring.order, arr)
    sub_add = pos[ring.add_table[np.ix_(arr, arr)]]
    sub_mul = pos[ring.mul_table[np.ix_(arr, arr)]]
    for t, what in ((sub_add, "addition"), (sub_mul, "multiplication")):
        if (t < 0).any():
            a, b = map(int, np.argwhere(t < 0)[0])
            raise ValidationError(
                f"subset not closed under {what}: {idx[a]}, {idx[b]}", witness=(idx[a], idx[b]))
    one = None if ring.one is None or pos[ring.one] < 0 else int(pos[ring.one])
    sub = FiniteRing(sub_add, sub_mul, one=one,
                     labels=[ring.labels[a] for a in idx], name=name)
    return sub, arr


def check_ideal(ring: FiniteRing, indices) -> np.ndarray:
    """Validate a two-sided ideal given by element indices; returns the sorted array."""
    arr = _as_int_array(indices, "ideal")
    if arr.ndim != 1:
        raise ValidationError(f"ideal must be a list of integers, got {indices!r}")
    idx = sorted(set(arr.tolist()))
    outside = [a for a in idx if not 0 <= a < ring.order]
    if outside:
        raise ValidationError(
            f"ideal index {outside[0]} outside the ring of order {ring.order}", witness=outside[0])
    if not idx or idx[0] != 0:
        raise ValidationError("an ideal must contain 0")
    arr = np.asarray(idx, dtype=np.int64)
    member = np.zeros(ring.order, dtype=bool)
    member[arr] = True
    if not member[ring.add_table[np.ix_(arr, arr)]].all():
        raise ValidationError("subset not closed under addition")
    if not member[ring.mul_table[:, arr]].all():
        raise ValidationError("subset does not absorb left multiplication")
    if not member[ring.mul_table[arr, :]].all():
        raise ValidationError("subset does not absorb right multiplication")
    return arr


def is_square_zero_ideal(ring: FiniteRing, indices) -> bool:
    """True when the indices form a two-sided ideal whose products all vanish."""
    try:
        arr = check_ideal(ring, indices)
    except ValidationError:
        return False
    return _squares_to_zero(ring, arr)


def _squares_to_zero(ring: FiniteRing, arr: np.ndarray) -> bool:
    """Whether all products within the ideal that `check_ideal` returned as
    arr vanish: one |I|^2 gather."""
    return bool((ring.mul_table[np.ix_(arr, arr)] == 0).all())


def quotient_ring(ring: FiniteRing, ideal_indices) -> Tuple[FiniteRing, RingHom]:
    """The quotient by a two-sided ideal, with the projection map.

    `check_ideal` proves I a two-sided ideal and `FiniteRing` proved
    distributivity, so for i, j in I the product (a+i)(b+j) = ab + (aj + ib
    + ij) lies in ab + I: multiplication descends to cosets, and the product
    of two cosets is read off one representative of each, its least member
    (as `groups._descend` picks it).  The `RingHom` certificate of the
    projection checks the values against the table so built.
    """
    return _quotient_by_ideal(ring, check_ideal(ring, ideal_indices))


def _quotient_by_ideal(ring: FiniteRing, arr: np.ndarray) -> Tuple[FiniteRing, RingHom]:
    """`quotient_ring` by the ideal that `check_ideal` returned as arr."""
    sub = subgroup_from_indices(ring.add_group, arr.tolist())
    from .groups import quotient as group_quotient

    q_add_group, proj = group_quotient(ring.add_group, sub)
    pv = proj.values
    reps = np.unique(pv, return_index=True)[1]
    mul_q = pv[ring.mul_table[np.ix_(reps, reps)]]
    one_q = None if ring.one is None else int(pv[ring.one])
    qring = FiniteRing(q_add_group.table, mul_q, one=one_q,
                       labels=list(q_add_group.labels), name=f"{ring.name}-quot")
    return qring, RingHom(ring, qring, pv)


# ---------------------------------------------------------- quasi-regularity


def star_table(ring: FiniteRing) -> np.ndarray:
    """Full table of the circle operation a + b + ab, in the dtype of the
    ring's tables, gathered over blocks of rows a."""
    add, mul = ring.add_table, ring.mul_table
    star = np.empty_like(add)
    for rows in _row_blocks(ring.order, ring.order):
        star[rows] = add[add[rows], mul[rows]]
    return star


def _quasi_regular(star: np.ndarray) -> np.ndarray:
    """Indices with a two-sided inverse under the circle table `star`."""
    zero = star == 0
    return np.flatnonzero((zero & zero.T).any(axis=1))


def quasi_regular_indices(ring: FiniteRing) -> List[int]:
    """Elements with a two-sided inverse under the circle operation.

    The indices are found once per ring and kept on it; the order^2 circle
    table they come from is not kept.
    """
    if ring._quasi_regular is None:
        ring._quasi_regular = _quasi_regular(star_table(ring))
    return ring._quasi_regular.tolist()


def quasi_regular_group(ring: FiniteRing) -> Tuple[FiniteGroup, np.ndarray]:
    """The group of quasi-regular elements under the circle operation."""
    star = star_table(ring)
    arr = ring._quasi_regular = _quasi_regular(star).astype(np.int64)  # as quasi_regular_indices
    table = _positions(ring.order, arr)[star[np.ix_(arr, arr)]]
    if (table < 0).any():
        a, b = map(int, np.argwhere(table < 0)[0])
        raise ValidationError(
            f"circle product of quasi-regular elements {int(arr[a])}, {int(arr[b])} "
            "is not quasi-regular")
    grp = FiniteGroup(table, None, labels=[ring.labels[int(a)] for a in arr],
                      name=f"QR({ring.name})" if ring.name else "QR")
    return grp, arr


def unit_group(ring: FiniteRing) -> Tuple[FiniteGroup, np.ndarray]:
    """The group of two-sided units of a unital ring, identity listed first."""
    if ring.one is None:
        raise ValidationError("unit group needs a unital ring")
    m = ring.mul_table
    e = ring.one
    is_unit = np.zeros(ring.order, dtype=bool)
    for r in range(ring.order):
        partners = np.flatnonzero((m[r] == e) & (m[:, r] == e))
        if partners.size:
            is_unit[r] = True
    others = [int(r) for r in np.flatnonzero(is_unit) if int(r) != e]
    order_list = [e] + others
    arr = np.asarray(order_list, dtype=np.int64)
    table = _positions(ring.order, arr)[m[np.ix_(arr, arr)]]
    if (table < 0).any():
        raise ValidationError("units are not closed under multiplication")
    grp = FiniteGroup(table, None, labels=[ring.labels[int(a)] for a in arr],
                      name=f"U({ring.name})" if ring.name else "U")
    return grp, arr


# ------------------------------------------------------------- constructions


@dataclass
class BimoduleAction:
    """Left and right actions of a ring on an additive group, fully validated.

    left[r, s] and right[s, r] are biadditive, the left action composes with
    ring multiplication, the right action composes contravariantly on the
    other side, and the two actions balance: (r1 . s) . r2 = r1 . (s . r2).

    Additivity in each argument is certified by `groups._hom_rows`; both
    sides of the three product laws are then additive in r1 and in r2, so
    pairs of additive core generators prove them on all pairs.  The sweep of
    all pairs runs only on failure, to name the first bad pair.
    """

    r_ring: FiniteRing
    s_group: FiniteGroup
    left: np.ndarray
    right: np.ndarray

    def __post_init__(self) -> None:
        nr = self.r_ring.order
        ns = self.s_group.order
        self.left = np.asarray(self.left, dtype=np.int64)
        self.right = np.asarray(self.right, dtype=np.int64)
        if self.left.shape != (nr, ns) or self.right.shape != (ns, nr):
            raise ValidationError("bimodule action tables have wrong shape")
        if not self.s_group.is_abelian():
            raise ValidationError("bimodule carrier must be abelian")
        sg, rg = self.s_group, self.r_ring.add_group
        lt, rt = self.left, self.right
        left_ok, right_ok = _hom_rows(sg, sg, lt), _hom_rows(sg, sg, rt.T)
        bad = np.flatnonzero(~(left_ok & right_ok))
        if bad.size:
            r = int(bad[0])
            side = "right" if left_ok[r] else "left"
            raise ValidationError(f"{side} action of {r} is not additive")
        if not _hom_rows(rg, sg, lt.T).all():
            raise ValidationError("left action is not additive in the ring argument")
        if not _hom_rows(rg, sg, rt).all():
            raise ValidationError("right action is not additive in the ring argument")
        k = rg.core_generators
        if any(self._product_failure(r1, r2) for r1 in k for r2 in k):
            raise ValidationError(next(filter(None, (
                self._product_failure(r1, r2) for r1 in range(nr) for r2 in range(nr)))))

    def _product_failure(self, r1: int, r2: int) -> Optional[str]:
        """The error of the first law that fails at (r1, r2), in the order
        left composition, right composition, balance; None if all hold."""
        lt, rt, mul_r = self.left, self.right, self.r_ring.mul_table
        if not (lt[mul_r[r1, r2]] == lt[r1, lt[r2]]).all():
            return f"left action not multiplicative at ({r1}, {r2})"
        if not (rt[:, mul_r[r1, r2]] == rt[rt[:, r1], r2]).all():
            return f"right action not multiplicative at ({r1}, {r2})"
        if not (rt[lt[r1], r2] == lt[r1, rt[:, r2]]).all():
            return f"actions do not balance at ({r1}, {r2})"
        return None


@dataclass
class SemidirectRing:
    """A ring on carrier-pairs (s, r), with the carrier as a square-zero ideal."""

    ring: FiniteRing
    action: BimoduleAction
    s_indices: np.ndarray  # index of (s, 0) for each s
    r_indices: np.ndarray  # index of (0, r) for each r

    def pair_index(self, s: int, r: int) -> int:
        return int(s * self.action.r_ring.order + r)


def semidirect_ring(action: BimoduleAction, name: str = "") -> SemidirectRing:
    """Ring on pairs (s, r): products multiply in the ring and act on the carrier.

    (s1, r1)(s2, r2) = (r1.s2 + s1.r2, r1 r2); the carrier embeds as the
    square-zero ideal of pairs with vanishing ring part.
    """
    rr = action.r_ring
    sg = action.s_group
    nr, ns = rr.order, sg.order
    order = ns * nr
    _ring_order_gate(order)
    # index axes [s1, r1, s2, r2], broadcast so that no order^2 index grid is
    # built; each order^2 array is built once, in the dtype of the result
    s1 = np.arange(ns)[:, None, None, None]
    r1 = np.arange(nr)[None, :, None, None]
    s2 = np.arange(ns)[None, None, :, None]
    r2 = np.arange(nr)[None, None, None, :]
    add_s, add_r, mul_r = _in_table_dtype(order, sg.table, rr.add_table, rr.mul_table)
    add_table = (add_s[s1, s2] * nr + add_r[r1, r2]).reshape(order, order)
    mul_table = add_s[action.left[r1, s2], action.right[s1, r2]]
    mul_table *= nr
    mul_table += mul_r[r1, r2]
    mul_table = mul_table.reshape(order, order)
    labels = [f"({sg.labels[s]};{rr.labels[r]})" for s in range(ns) for r in range(nr)]
    ring = FiniteRing(add_table, mul_table, one=None, labels=labels,
                      name=name or "semidirect")
    s_idx = np.arange(ns, dtype=np.int64) * nr
    r_idx = np.arange(nr, dtype=np.int64)
    return SemidirectRing(ring=ring, action=action, s_indices=s_idx, r_indices=r_idx)


# ------------------------------------------------------------------ JSON form


def ring_to_json(ring: FiniteRing) -> dict:
    data = {
        "order": ring.order,
        "add_table": ring.add_table.tolist(),
        "mul_table": ring.mul_table.tolist(),
    }
    if ring.one is not None:
        data["one"] = ring.one
    if ring.name:
        data["name"] = ring.name
    return data


def ring_from_json(data: dict) -> FiniteRing:
    try:
        add = data["add_table"]
        mul = data["mul_table"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"ring JSON needs 'add_table' and 'mul_table': {exc}") from exc
    ring = FiniteRing(add, mul, one=data.get("one"), name=_json_name(data))
    if "order" in data and _as_int(data["order"], "declared order") != ring.order:
        raise ValidationError(f"declared order {data['order']} != table order {ring.order}")
    return ring
