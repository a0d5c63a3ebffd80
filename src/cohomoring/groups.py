"""Finite groups as full multiplication tables, with 0-based element indices.

Elements of a group of order n are the indices 0..n-1 and index 0 is always
the identity.  Every structural claim (associativity, homomorphism laws,
action laws) is proved at construction time for all elements, by
certificates that check the law against a generating set only: Light's
associativity test for groups, the action law and the automorphism law on
generators for actions (k n^2 work for k generators instead of n^3), and
one law certificate, `_hom_rows`, for every homomorphism and crossed
homomorphism (k n work per map instead of n^2).

A group table is accepted on the identity, inverses, generation and
Light's test alone: together they prove a group, and a group table is a
Latin square.  The two sorts that test Latin rows and columns run only once
one of those checks has failed, and run first there, so that every
malformed table is refused with the error it always got.  With
generators=None the greedy generator list is its own core: its span is
derived once, by a closure that multiplies only the newly reached elements.

Two private primitives serve every derived action, section and coset:
`_conjugation_rows` builds the table a m a^-1 over a member list in one
gather, and `_descend` picks the least element of each fiber of a
surjection and reports where a table fails to be constant on fibers.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .budgets import current_budgets
from .errors import BudgetExceeded, ValidationError

__all__ = [
    "FiniteGroup",
    "GroupHom",
    "ActionTable",
    "Subgroup",
    "make_cyclic",
    "make_dihedral",
    "make_semidirect_group",
    "make_direct_product",
    "trivial_action",
    "inversion_action",
    "action_from_hom",
    "aut_group",
    "enumerate_actions",
    "mulclose",
    "subgroup_from_indices",
    "kernel",
    "image",
    "is_normal",
    "quotient",
    "centralizer",
    "center",
    "conjugation_action",
    "hom_make",
    "identity_hom",
    "enumerate_homs",
    "enumerate_endos",
    "enumerate_automorphisms",
    "find_isomorphism",
    "group_to_json",
    "group_from_json",
]


def _as_int_array(data, what: str) -> np.ndarray:
    """`data` as an int64 array.  Ragged input, and non-empty input whose own
    dtype is not an integer dtype that int64 holds (floats, booleans, text),
    is a ValidationError, so that 1.5 or true is never read as 1.  numpy
    promotes [0, True] to integers, so nested lists are also scanned for
    booleans; ndarray input skips the scan."""
    try:
        arr = np.asarray(data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be a rectangular array of integers") from exc
    if arr.size and not (arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.int64)
                         and (isinstance(data, np.ndarray) or not _holds_bool(data))):
        raise ValidationError(f"{what} must be a rectangular array of integers")
    return arr.astype(np.int64, copy=False)


def _holds_bool(data) -> bool:
    """Whether rectangular list input holds a Python or numpy boolean."""
    kinds = set(map(type, np.asarray(data, dtype=object).flat))
    return bool in kinds or np.bool_ in kinds


def _as_int(value, what: str) -> int:
    """`value` as an int; anything but an integer (a bool, a float, text) is
    a ValidationError."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    raise ValidationError(f"{what} must be an integer, got {value!r}")


def _as_table(table, what: str) -> np.ndarray:
    arr = _as_int_array(table, what)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{what} must be a square table, got shape {arr.shape}")
    return arr


class FiniteGroup:
    """A finite group given by its full multiplication table.

    table[a, b] is the index of a*b.  Index 0 must be the identity.
    generators=None picks a small generating set greedily, an element of
    largest order first.  `core_generators` is the greedy subset of the
    generators, in their order, that still generates; the certificates check
    their laws against it.
    """

    def __init__(
        self,
        table,
        generators: Optional[Sequence[int]],
        labels: Optional[Sequence[str]] = None,
        name: str = "",
    ):
        self.table = _as_table(table, "group table")
        self.order = int(self.table.shape[0])
        self.name = name
        self._orders: Optional[np.ndarray] = None
        self._decomposition = None  # set by linalg.abelian_decomposition
        n = self.order
        if n == 0:
            raise ValidationError("group must be nonempty")
        if self.table.min() < 0 or self.table.max() >= n:
            raise ValidationError("group table entries must be element indices")
        idx = np.arange(n)
        if not (self.table[0] == idx).all() or not (self.table[:, 0] == idx).all():
            bad = int(np.argmax(self.table[0] != idx)) if (self.table[0] != idx).any() else int(
                np.argmax(self.table[:, 0] != idx)
            )
            raise ValidationError(
                f"element 0 must be the identity (fails at element {bad})", witness=bad
            )
        try:
            self._certify(generators)
        except (ValidationError, TypeError, ValueError):
            self._check_latin()
            raise
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(str(s) for s in labels)
        if len(labels) != n:
            raise ValidationError(f"expected {n} labels, got {len(labels)}")
        if len(set(labels)) != n:
            raise ValidationError("labels must be unique")
        self.labels = labels

    def _certify(self, generators: Optional[Sequence[int]]) -> None:
        """Inverses, generation and Light's test, on a table whose row and
        column 0 are the identity's.

        Passing all three proves a group: Light's test proves associativity,
        and an associative table with an identity in which every a has a left
        inverse (inverse[a] a = 0) is a group.
        """
        n = self.order
        t = self.table
        idx = np.arange(n)
        self.inverse = np.argmin(t, axis=1).astype(np.int64)
        bad = np.flatnonzero(t[self.inverse, idx] != 0)
        if bad.size:
            a = int(bad[0])
            raise ValidationError(f"element {a} has no two-sided inverse", witness=a)
        if generators is None:
            # each greedy pick lies outside the span of those before it, and
            # every element is picked or spanned: the list is its own core
            gens = tuple(_greedy_generators(self))
            core = tuple(g for g in gens if g)
        else:
            gens = tuple(int(g) for g in generators)
            if not gens:
                raise ValidationError("generator list must be nonempty")
            if any(g < 0 or g >= n for g in gens):
                raise ValidationError(f"generator out of range: {gens}")
            core, reached = _greedy_span(t, gens)
            if not reached.all():
                raise ValidationError(
                    f"generators {gens} generate only {int(reached.sum())} of {n} elements"
                )
        self.core_generators = tuple(core)
        # [j, x] = x s_j for the core generators s_j, read by every certificate
        self._core_right = t[:, list(core)].T
        self._check_associativity()
        self.generators = gens

    def _check_latin(self) -> None:
        """Raise if some row or column of the table is not a permutation.

        A group table is a Latin square, so `_certify` never needs this; it
        runs only after a certificate has failed, to name that fault first.
        """
        idx = np.arange(self.order)
        if not (np.sort(self.table, axis=1) == idx).all():
            raise ValidationError("some row of the group table is not a permutation")
        if not (np.sort(self.table, axis=0) == idx[:, None]).all():
            raise ValidationError("some column of the group table is not a permutation")

    def _check_associativity(self) -> None:
        """Light's test: (x s) z = x (s z) for all x, z and each core generator s.

        The s passing it contain the identity and are closed under products,
        and the core generators generate, so it proves every triple.
        """
        t = self.table
        for s, right in zip(self.core_generators, self._core_right):
            bad = t[right] != t[:, t[s]]  # [x, z]: (x s) z against x (s z)
            if bad.any():
                a, c = map(int, np.argwhere(bad)[0])
                raise ValidationError(f"associativity fails at ({a},{s},{c})", witness=(a, s, c))

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverse[a])

    def power(self, a: int, k: int) -> int:
        if k < 0:
            a, k = self.inv(a), -k
        out = 0
        for _ in range(k):
            out = int(self.table[out, a])
        return out

    def elements(self) -> range:
        return range(self.order)

    def element_orders(self) -> np.ndarray:
        if self._orders is None:
            orders = np.ones(self.order, dtype=np.int64)
            power = np.arange(self.order, dtype=np.int64)
            live = np.flatnonzero(power)
            for _ in range(self.order):  # no order exceeds n in a group
                if not live.size:
                    break
                power[live] = self.table[power[live], live]
                orders[live] += 1
                live = live[power[live] != 0]
            if live.size:
                a = int(live[0])
                raise ValidationError(
                    f"powers of element {a} never return to the identity", witness=a)
            self._orders = orders
        return self._orders

    def element_order(self, a: int) -> int:
        return int(self.element_orders()[a])

    def exponent(self) -> int:
        out = 1
        for k in self.element_orders():
            out = out * int(k) // int(np.gcd(out, int(k)))
        return out

    def is_abelian(self) -> bool:
        """Whether each core generator commutes with every element: the
        elements that do form a subgroup, so this is commutativity."""
        return bool((self._core_right == self.table[list(self.core_generators)]).all())

    def label(self, a: int) -> str:
        return self.labels[a]

    def __repr__(self) -> str:
        tag = self.name or "group"
        return f"FiniteGroup({tag}, order={self.order})"


def _hom_rows(source: FiniteGroup, target: FiniteGroup, vals: np.ndarray,
              action: Optional["ActionTable"] = None,
              offset: Optional[np.ndarray] = None) -> np.ndarray:
    """Mask of the rows of vals ([k, x] = phi_k(x), entries in range) that
    send e to e and obey phi(x s) = phi(x) (x . phi(s)) offset(x, s)^-1 for
    every x and each core generator s of the source; x . m = m when action is
    None, and the offset is the identity when None.

    This proves the law on all pairs of the certified groups: the s passing
    it contain e and are closed under products, since phi(x s t) =
    phi(x) (x . phi(s)) (x s . phi(t)) = phi(x) (x . phi(s t)) for an action
    by automorphisms, so by induction on word length every element passes.
    A normalized 2-cocycle offset into an abelian target keeps the closure
    by the cocycle identity.  Work: |source| cells per row and generator.
    """
    core = np.asarray(source.core_generators, dtype=np.intp)
    img = vals[:, core]  # [row, j] = phi(s_j)
    # [row, j, x]: x . phi(s_j), then phi(x) (x . phi(s_j)) offset(x, s_j)^-1
    step = img[:, :, None] if action is None else action.table.T[img]
    law = target.table[vals[:, None, :], step]
    if offset is not None:
        law = target.table[law, target.inverse[offset[:, core].T]]
    return (vals[:, 0] == 0) & (vals[:, source._core_right] == law).all(axis=(1, 2))


def _hom_error(source: FiniteGroup, target: FiniteGroup, v: np.ndarray) -> ValidationError:
    """The error naming the first pair where the values v, refused by
    `_hom_rows`, break the homomorphism law; some pair fails exactly when
    the certificate does."""
    bad = v[source.table] != target.table[v[:, None], v[None, :]]
    a, b = map(int, np.argwhere(bad)[0])
    return ValidationError(f"not a homomorphism at pair ({a},{b})", witness=(a, b))


def _raise_first(checks: List[tuple]) -> None:
    """Raise the error of the first failing (member, check) of a stack.

    checks lists (fails, error, witnesses) in the order one map is checked:
    fails[k] marks member k failing the check.  Its error is error(k) when
    error is callable, else ValidationError(error) with witness witnesses[k],
    or none when witnesses is None.
    """
    fails = np.stack([check[0] for check in checks], axis=1)
    if fails.any():
        k, c = map(int, np.argwhere(fails)[0])
        _, error, witnesses = checks[c]
        raise error(k) if callable(error) else ValidationError(
            error, witness=None if witnesses is None else witnesses[k])


class GroupHom:
    """A homomorphism between table groups, stored as a value array.

    validate=True proves the law on all pairs by the certificate `_hom_rows`;
    the sweep of all pairs runs only on failure, to name the first bad pair.
    """

    def __init__(
        self,
        source: FiniteGroup,
        target: FiniteGroup,
        values,
        validate: bool = True,
    ):
        self.source = source
        self.target = target
        self.values = np.asarray(values, dtype=np.int64)
        if self.values.shape != (source.order,):
            raise ValidationError(
                f"hom needs {source.order} values, got shape {self.values.shape}"
            )
        if self.values.min() < 0 or self.values.max() >= target.order:
            raise ValidationError("hom values out of range")
        if validate and not _hom_rows(source, target, self.values[None])[0]:
            raise _hom_error(source, target, self.values)

    def apply(self, a: int) -> int:
        return int(self.values[a])

    def __call__(self, a: int) -> int:
        return int(self.values[a])

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other (self.source must be other.target)."""
        if other.target is not self.source:
            raise ValidationError("hom composition mismatch")
        return GroupHom(other.source, self.target, self.values[other.values], validate=False)

    def kernel_indices(self) -> List[int]:
        return [int(a) for a in np.flatnonzero(self.values == 0)]

    def image_indices(self) -> List[int]:
        return sorted({int(v) for v in self.values})

    def is_injective(self) -> bool:
        return len(set(self.values.tolist())) == self.source.order

    def is_surjective(self) -> bool:
        return len(set(self.values.tolist())) == self.target.order

    def is_bijective(self) -> bool:
        return self.source.order == self.target.order and self.is_injective()

    def inverse_hom(self) -> "GroupHom":
        if not self.is_bijective():
            raise ValidationError("only bijective homs can be inverted")
        inv = np.zeros(self.target.order, dtype=np.int64)
        inv[self.values] = np.arange(self.source.order)
        return GroupHom(self.target, self.source, inv, validate=False)

    def same_values(self, other: "GroupHom") -> bool:
        return bool((self.values == other.values).all())

    def __repr__(self) -> str:
        return f"GroupHom({self.source!r} -> {self.target!r})"


def identity_hom(g: FiniteGroup) -> GroupHom:
    return GroupHom(g, g, np.arange(g.order), validate=False)


class ActionTable:
    """A left action of `actor` on `module` by automorphisms.

    table[a, m] is the index of a acting on m.  The module is not required to
    be abelian here; operations that need abelian coefficients check at their
    own boundary.  validate=True proves the action law against each core
    generator of the actor, and certifies the rows of those generators
    automorphisms by `_hom_rows`; together these prove both laws everywhere.
    """

    def __init__(self, actor: FiniteGroup, module: FiniteGroup, table, validate: bool = True):
        self.actor = actor
        self.module = module
        self.table = _as_int_array(table, "action table")
        if self.table.shape != (actor.order, module.order):
            raise ValidationError(
                f"action table must be {actor.order}x{module.order}, got {self.table.shape}"
            )
        if validate:
            self._validate()

    def _validate(self) -> None:
        t = self.table
        m = self.module.order
        if t.min() < 0 or t.max() >= m:
            raise ValidationError("action table entries out of range")
        if not (t[0] == np.arange(m)).all():
            raise ValidationError("identity must act trivially")
        if not (np.sort(t, axis=1) == np.arange(m)).all():
            raise ValidationError("some actor element does not act bijectively")
        # The action law t[a s] = t[a] o t[s] for each core generator s of the
        # actor: the s passing it are closed under products, so it holds for
        # every pair.
        at = self.actor.table
        for s in self.actor.core_generators:
            bad = t[at[:, s]] != t[:, t[s]]
            if bad.any():
                a, x = map(int, np.argwhere(bad)[0])
                raise ValidationError(
                    f"action law fails at actor pair ({a},{s}) on {x}", witness=(a, s, x)
                )
        # Each generator row is a homomorphism by its certificate; every row
        # is a composite of generator rows and a bijection, hence an
        # automorphism.
        core = list(self.actor.core_generators)
        bad = ~_hom_rows(self.module, self.module, t[core])
        if bad.any():
            s = core[int(np.argmax(bad))]
            raise ValidationError(f"actor element {s} does not act by an automorphism", witness=s)

    def act(self, a: int, m: int) -> int:
        return int(self.table[a, m])

    def is_trivial(self) -> bool:
        return bool((self.table == np.arange(self.module.order)).all())

    def __repr__(self) -> str:
        return f"ActionTable({self.actor!r} on {self.module!r})"


class Subgroup(NamedTuple):
    group: FiniteGroup
    embedding: GroupHom  # subgroup -> ambient


# ----------------------------------------------------------------- constructors


def make_cyclic(n: int, name: str = "") -> FiniteGroup:
    """Cyclic group of order n; element i is the residue i."""
    if n < 1:
        raise ValidationError(f"cyclic group needs order >= 1, got {n}")
    idx = np.arange(n)
    table = (idx[:, None] + idx[None, :]) % n
    gen = [1 % n]
    return FiniteGroup(table, gen, labels=[str(i) for i in range(n)], name=name or f"C{n}")


def _pair_index(n_order: int, q_order: int):
    def enc(ni: int, qi: int) -> int:
        return ni * q_order + qi

    def dec(g: int) -> Tuple[int, int]:
        return divmod(g, q_order)

    return enc, dec


def _semidirect_table(n_group: FiniteGroup, q_group: FiniteGroup, action: ActionTable) -> np.ndarray:
    """Multiplication table on pairs (n, q): (n1,q1)(n2,q2) = (n1 + q1.n2, q1 q2)."""
    nn, qq = n_group.order, q_group.order
    enc, _ = _pair_index(nn, qq)
    table = np.zeros((nn * qq, nn * qq), dtype=np.int64)
    for n1 in range(nn):
        for q1 in range(qq):
            a = enc(n1, q1)
            moved = n_group.table[n1, action.table[q1]]  # n1 + q1.n2 for all n2
            table[a] = (moved[:, None] * qq + q_group.table[q1][None, :]).reshape(-1)
    return table


def make_semidirect_group(
    n_group: FiniteGroup, q_group: FiniteGroup, action: ActionTable, name: str = ""
) -> Tuple[FiniteGroup, GroupHom, GroupHom]:
    """Semidirect product N x| Q for a Q-action on N.

    Returns (G, i, p) with i : N -> G the inclusion n -> (n, e) and
    p : G -> Q the projection (n, q) -> q.
    """
    if action.actor is not q_group or action.module is not n_group:
        raise ValidationError("action must be of q_group on n_group")
    nn, qq = n_group.order, q_group.order
    enc, dec = _pair_index(nn, qq)
    table = _semidirect_table(n_group, q_group, action)
    labels = [
        f"({n_group.labels[ni]}|{q_group.labels[qi]})" for ni in range(nn) for qi in range(qq)
    ]
    gens = [enc(g, 0) for g in n_group.generators] + [enc(0, g) for g in q_group.generators]
    if not name:
        join = "x" if action.is_trivial() else "x|"
        name = f"{n_group.name or nn}{join}{q_group.name or qq}"
    g = FiniteGroup(table, gens, labels=labels, name=name)
    i = GroupHom(n_group, g, [enc(ni, 0) for ni in range(nn)])
    p = GroupHom(g, q_group, [dec(x)[1] for x in range(nn * qq)])
    return g, i, p


def make_direct_product(
    a: FiniteGroup, b: FiniteGroup, name: str = ""
) -> Tuple[FiniteGroup, GroupHom, GroupHom]:
    """Direct product A x B, returned as (G, i_A, p_B)."""
    return make_semidirect_group(a, b, trivial_action(b, a), name=name)


def make_dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n, n >= 3.

    Element 2*i + j is y^i x^j where y is the rotation of order n and x is a
    reflection.  Generators are (x, y) in that order.
    """
    if n < 3:
        raise ValidationError(f"dihedral group needs n >= 3, got {n}")
    cn = make_cyclic(n)
    c2 = make_cyclic(2)
    sd, _, _ = make_semidirect_group(cn, c2, inversion_action(c2, cn))
    labels = []
    for i in range(n):
        if i == 0:
            labels += ["e", "x"]
        elif i == 1:
            labels += ["y", "y*x"]
        else:
            labels += [f"y^{i}", f"y^{i}*x"]
    x, y = 1, 2  # (0,1) and (1,0) in the pair encoding
    return FiniteGroup(sd.table, [x, y], labels=labels, name=f"D{n}")


def trivial_action(actor: FiniteGroup, module: FiniteGroup) -> ActionTable:
    table = np.tile(np.arange(module.order), (actor.order, 1))
    return ActionTable(actor, module, table, validate=False)


def inversion_action(c2: FiniteGroup, module: FiniteGroup) -> ActionTable:
    """The order-2 actor acts by negation on an abelian module."""
    if c2.order != 2:
        raise ValidationError("inversion action needs an actor of order 2")
    if not module.is_abelian():
        raise ValidationError("inversion is only an automorphism of abelian modules")
    table = np.stack([np.arange(module.order), module.inverse])
    return ActionTable(c2, module, table)


# ----------------------------------------------------------------- subgroups


def _positions(n: int, members: np.ndarray) -> np.ndarray:
    """pos[a] = k where members[k] == a, and -1 for every a outside members."""
    pos = np.full(n, -1, dtype=np.int64)
    pos[members] = np.arange(len(members), dtype=np.int64)
    return pos


def _is_bijective(values: np.ndarray) -> np.ndarray:
    """Per row on the last axis of `values`, whether the map of 0..m-1 into
    0..m-1 given by its m values is onto."""
    hit = np.zeros(values.shape, dtype=bool)
    np.put_along_axis(hit, values, True, axis=-1)
    return hit.all(axis=-1)


def _grow(table: np.ndarray, reached: np.ndarray, seeds: np.ndarray, products) -> None:
    """Add to the mask `reached`, in place, the elements in the arrays
    `products` and every element they reach by multiplying by `seeds` on
    either side.  Each step multiplies only the elements new in the step
    before."""
    while True:
        new = np.zeros(len(reached), dtype=bool)
        for p in products:
            new[p] = True
        new &= ~reached
        if not new.any():
            return
        reached |= new
        frontier = np.flatnonzero(new)
        products = (table[frontier[:, None], seeds], table[seeds[:, None], frontier])


def _greedy_span(table: np.ndarray, candidates: Iterable[int]) -> Tuple[List[int], np.ndarray]:
    """Each candidate, in order, that lies outside the closure of those kept
    before it; returns the kept list and its closure mask.

    The closure of the kept list is closed under each earlier pick, so a new
    pick multiplies out only against it and then against what is new."""
    cands = np.fromiter(candidates, dtype=np.int64)
    reached = np.zeros(table.shape[0], dtype=bool)
    reached[0] = True
    kept: List[int] = []
    while True:
        rest = cands[~reached[cands]]
        if not rest.size:
            return kept, reached
        a = int(rest[0])
        kept.append(a)
        old = np.flatnonzero(reached)
        _grow(table, reached, np.asarray(kept, dtype=np.int64), (table[old, a], table[a, old]))


def mulclose(g: FiniteGroup, seed: Iterable[int]) -> List[int]:
    """Sorted list of elements of the subgroup generated by `seed`."""
    return np.flatnonzero(_greedy_span(g.table, (int(s) for s in seed))[1]).tolist()


def _greedy_generators(g: FiniteGroup) -> List[int]:
    """Small deterministic generating set of g: the least element of largest
    order, then each element, in index order, outside the span of the ones
    before it."""
    if g.order == 1:
        return [0]
    best = int(np.argmax(g.element_orders()))
    return _greedy_span(g.table, np.concatenate(([best], np.arange(1, g.order))))[0]


def subgroup_from_indices(g: FiniteGroup, indices: Iterable[int]) -> Subgroup:
    idx = sorted({int(a) for a in indices})
    if not idx or idx[0] != 0:
        raise ValidationError("a subgroup must contain the identity (element 0)")
    arr = np.asarray(idx, dtype=np.int64)
    pos = _positions(g.order, arr)
    prod = g.table[np.ix_(arr, arr)]
    table = pos[prod]
    if (table < 0).any():
        a, b = map(int, np.argwhere(table < 0)[0])
        raise ValidationError(
            f"subset not closed: {idx[a]} * {idx[b]} = {int(prod[a, b])} escapes",
            witness=(idx[a], idx[b]),
        )
    # positions keep the order of idx, so the greedy pick on the subgroup
    # table is the one on the ambient members
    labels = [g.labels[a] for a in idx]
    sub = FiniteGroup(table, None, labels=labels, name=f"sub{len(idx)}of{g.name or g.order}")
    emb = GroupHom(sub, g, arr)
    return Subgroup(sub, emb)


def kernel(h: GroupHom) -> Subgroup:
    return subgroup_from_indices(h.source, h.kernel_indices())


def image(h: GroupHom) -> Subgroup:
    return subgroup_from_indices(h.target, h.image_indices())


def _conjugation_rows(g: FiniteGroup, members) -> np.ndarray:
    """[a, k] is the position of a * members[k] * a^-1 in `members`, -1 outside."""
    members = np.asarray(members, dtype=np.int64)
    return _positions(g.order, members)[g.table[g.table[:, members], g.inverse[:, None]]]


def _descend(fiber_of: np.ndarray, table: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Descend `table`, whose rows belong to the elements x of the source of
    the surjection x -> fiber_of[x] onto 0..k-1, to one row per fiber.

    Returns (reps, down, bad): reps[c] is the least x in fiber c, down is
    table[reps], and bad marks the entries of `table` that differ from the
    row of their fiber, so the table descends exactly when bad is all False.
    """
    reps = np.unique(fiber_of, return_index=True)[1]
    down = table[reps]
    return reps, down, table != down[fiber_of]


def is_normal(g: FiniteGroup, indices: Iterable[int]) -> bool:
    idx = sorted({int(a) for a in indices})
    return bool((_conjugation_rows(g, idx) >= 0).all())


def _coset_partition(g: FiniteGroup, idx: Sequence[int]) -> Tuple[np.ndarray, List[int]]:
    """coset index per element (numbered by ascending minimal representative)."""
    reps, coset_of = np.unique(g.table[:, np.asarray(idx, dtype=np.int64)].min(axis=1),
                               return_inverse=True)
    return coset_of.astype(np.int64), reps.tolist()


def quotient(g: FiniteGroup, sub) -> Tuple[FiniteGroup, GroupHom]:
    """Quotient by a normal subgroup; returns (Q, projection)."""
    idx = _subgroup_indices(g, sub)
    if not is_normal(g, idx):
        raise ValidationError(f"subgroup {idx} is not normal", witness=idx)
    coset_of, reps = _coset_partition(g, idx)
    table = coset_of[g.table[np.ix_(reps, reps)]]
    labels = [f"[{g.labels[r]}]" for r in reps]
    q = FiniteGroup(table, None, labels=labels, name=f"{g.name or g.order}/{len(idx)}")
    proj = GroupHom(g, q, coset_of)
    return q, proj


def _subgroup_indices(g: FiniteGroup, sub) -> List[int]:
    if isinstance(sub, Subgroup):
        return [int(a) for a in sub.embedding.values]
    if isinstance(sub, GroupHom):
        if sub.target is not g:
            raise ValidationError("embedding targets a different group")
        return [int(a) for a in sub.values]
    return sorted({int(a) for a in sub})


def centralizer(g: FiniteGroup, indices: Iterable[int]) -> Subgroup:
    idx = sorted({int(a) for a in indices})
    fixed = (_conjugation_rows(g, idx) == np.arange(len(idx))).all(axis=1)
    return subgroup_from_indices(g, np.flatnonzero(fixed).tolist())


def center(g: FiniteGroup) -> Subgroup:
    return centralizer(g, range(g.order))


def conjugation_action(g: FiniteGroup, n_embedding: GroupHom) -> ActionTable:
    """The conjugation action of G on a normal (abelian or not) subgroup N.

    The induced action of G/N on an abelian N is `build_extension(...).action`.
    """
    if n_embedding.target is not g:
        raise ValidationError("embedding targets a different group")
    rows = _conjugation_rows(g, n_embedding.values)
    escapes = (rows < 0).any(axis=1)
    if escapes.any():
        a = int(np.argmax(escapes))
        raise ValidationError(
            f"subgroup is not normal: conjugation by {a} escapes", witness=a
        )
    return ActionTable(g, n_embedding.source, rows)


# ----------------------------------------------------------------- hom search

# Upper bound on candidates x |source| cells in one propagation block.
_SEARCH_BLOCK_CELLS = 1 << 16


def _bfs_words(g: FiniteGroup, gens: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Discovery list [(element, parent, generator position)] covering G \\ {e}."""
    seen = np.zeros(g.order, dtype=bool)
    seen[0] = True
    out: List[Tuple[int, int, int]] = []
    frontier = [0]
    while frontier:
        nxt = []
        for a in frontier:
            for gi, s in enumerate(gens):
                b = int(g.table[a, s])
                if not seen[b]:
                    seen[b] = True
                    out.append((b, a, gi))
                    nxt.append(b)
        frontier = nxt
    return out


def _search_generator_images(
    source: FiniteGroup,
    target: FiniteGroup,
    cands: Sequence[Sequence[int]],
    action: Optional[ActionTable] = None,
    offset: Optional[np.ndarray] = None,
    gens: Optional[Sequence[int]] = None,
) -> Iterator[np.ndarray]:
    """Value tables of the maps phi(xy) = phi(x) (x . phi(y)) offset(x, y)^-1
    with phi(gens[i]) in cands[i]; gens is a generating tuple of the source,
    source.generators when None; x . m = m when action is None, and the
    offset (a source x source table of target elements, a normalized
    2-cocycle into an abelian target) is the identity when None.

    Candidate tuples run in itertools.product order, propagated along the BFS
    words in the generators of `gens`, in blocks of at most
    _SEARCH_BLOCK_CELLS cells, each built only when the caller asks for more.
    A row is kept when it sends each gens[i] to its candidate and passes the
    certificate `_hom_rows`, which proves the law on all pairs.
    """
    gens = tuple(source.generators if gens is None else gens)
    cands = [np.asarray(c, dtype=np.int64) for c in cands]
    total = math.prod(len(c) for c in cands)
    bfs = _bfs_words(source, gens)
    tt = target.table
    # [x, i] = offset(x, s_i)^-1, applied after each propagation step
    undo = None if offset is None else target.inverse[offset[:, list(gens)]]
    block = max(1, _SEARCH_BLOCK_CELLS // source.order)
    start = 0
    while start < total:
        rows = min(block, total - start)
        # mixed-radix digits of start .. start + rows - 1, last position fastest
        carry = np.arange(rows, dtype=np.int64)
        rest = start
        imgs: List[np.ndarray] = []
        for c in reversed(cands):
            rest, digit = divmod(rest, len(c))
            carry = carry + digit
            imgs.append(c[carry % len(c)])
            carry = carry // len(c)
        imgs.reverse()
        vals = np.zeros((rows, source.order), dtype=np.int64)
        for elem, parent, gi in bfs:
            step = imgs[gi] if action is None else action.table[parent, imgs[gi]]
            vals[:, elem] = tt[vals[:, parent], step]
            if undo is not None:
                vals[:, elem] = tt[vals[:, elem], undo[parent, gi]]
        ok = _hom_rows(source, target, vals, action, offset)
        for s, img in zip(gens, imgs):
            ok &= vals[:, s] == img
        yield from vals[ok]
        start += rows


class TableIndex:
    """Positions of value tables that differ at `positions`, as maps fixed by
    their values on generators do.

    The index is a prefix trie over the key positions (Knuth, TAOCP vol. 3,
    6.3, digital searching) with a dense transition table per level:
    `levels[j]` holds (prefix nodes + 1) * radix cells, and cell node * radix
    + v holds the node of that prefix extended by value v; at the last level
    it holds the member position itself.  A missing extension leads to the
    extra sink row of the next level, all of whose cells lead on to the next
    sink and, at the last level, read -1.  `find` walks the trie and then
    compares the full row, so agreeing at `positions` alone is not a hit.
    `find_keys` walks the trie alone; a caller may use it only where it has
    proved that the table behind each key is a member, for then the key
    names it.
    """

    def __init__(self, tables, positions: Sequence[int], radix: int):
        self.tables = np.asarray(tables, dtype=np.int64)
        self.positions = np.asarray(positions, dtype=np.int64)
        self.radix = radix
        self.keys = self.tables[:, self.positions]
        if self.tables.size and (self.tables.min() < 0 or self.tables.max() >= radix):
            raise ValidationError(f"indexed table values must lie in [0, {radix})")
        members, width = self.keys.shape
        if members == 0:
            raise ValidationError("an index needs at least one table")
        if width == 0 and members > 1:
            raise ValidationError("indexed tables agree on every key position")
        self.levels: List[np.ndarray] = []
        node = np.zeros(members, dtype=np.int64)  # prefix node of each member
        nodes = 1
        for j in range(width):
            cell = node * radix + self.keys[:, j]
            order = np.argsort(cell, kind="stable")
            cell = cell[order]
            fresh = np.ones(members, dtype=bool)
            fresh[1:] = cell[1:] != cell[:-1]
            last = j == width - 1
            if last and not fresh.all():
                raise ValidationError("indexed tables agree on every key position")
            # sort-and-cumsum ids number the extended prefixes
            ids = order if last else np.cumsum(fresh) - 1
            sink = -1 if last else int(fresh.sum())
            level = np.full((nodes + 1) * radix, sink, dtype=np.int64)
            level[cell] = ids
            node[order] = ids
            nodes = sink
            self.levels.append(level)

    def find_keys(self, keys) -> np.ndarray:
        """Member position of each key (last axis: the values at `positions`,
        each in [0, radix)), -1 where no member has that key: one gather per
        key position."""
        keys = np.asarray(keys, dtype=np.int64)
        if not self.levels:  # the empty key names the only member
            return np.zeros(keys.shape[:-1], dtype=np.int64)
        node = np.take(self.levels[0], keys[..., 0])
        for j in range(1, len(self.levels)):
            node *= self.radix
            node += keys[..., j]
            node = np.take(self.levels[j], node)
        return node

    def find(self, rows) -> np.ndarray:
        """Member position of each table in `rows` (last axis), -1 where absent."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[-1:] != self.tables.shape[1:]:
            return np.full(rows.shape[:-1], -1, dtype=np.int64)
        # a value outside [0, radix) is clipped to a key the full compare refuses
        hit = self.find_keys(np.clip(rows[..., self.positions], 0, self.radix - 1))
        return np.where((hit >= 0) & (self.tables[hit] == rows).all(axis=-1), hit, -1)

    def find_pairs(self, pair_keys) -> np.ndarray:
        """The member table [a, b] = find_keys(key of the pair (a, b)), under
        the proof obligation of `find_keys`.  pair_keys(rows) returns the keys
        of the pairs whose a lies in the slice `rows`, shaped [len(rows),
        members, len(positions)]; the blocks of rows keep each key array
        within _SEARCH_BLOCK_CELLS cells."""
        n = len(self.tables)
        out = np.empty((n, n), dtype=np.int64)
        step = max(1, _SEARCH_BLOCK_CELLS // max(1, n * len(self.positions)))
        for start in range(0, n, step):
            rows = slice(start, start + step)
            out[rows] = self.find_keys(pair_keys(rows))
        return out


def hom_make(source: FiniteGroup, target: FiniteGroup, generator_images: Sequence[int]) -> GroupHom:
    """The unique homomorphism sending source.generators to the given images."""
    images = [int(v) for v in generator_images]
    if len(images) != len(source.generators):
        raise ValidationError(
            f"need {len(source.generators)} generator images, got {len(images)}"
        )
    if any(v < 0 or v >= target.order for v in images):
        raise ValidationError("generator image out of range")
    for vals in _search_generator_images(source, target, [[v] for v in images]):
        return GroupHom(source, target, vals, validate=False)
    raise ValidationError(
        f"generator images {images} are inconsistent with the relations of the source",
        witness=images,
    )


def _gated_hom_tables(source: FiniteGroup, target: FiniteGroup, cands, gens) -> List[np.ndarray]:
    """Value tables, in lexicographic order, of the homomorphisms sending the
    generating tuple gens into cands, within `endo_scan_candidates`."""
    limit = current_budgets().endo_scan_candidates
    total = math.prod(len(c) for c in cands)
    if total > limit:
        raise BudgetExceeded(f"hom search needs {total} candidates, budget {limit}")
    return sorted(_search_generator_images(source, target, cands, gens=gens),
                  key=lambda vals: tuple(vals.tolist()))


def enumerate_homs(source: FiniteGroup, target: FiniteGroup) -> List[GroupHom]:
    """All homomorphisms source -> target, by search over the images of the
    core generators."""
    src_orders = source.element_orders()
    tgt_orders = target.element_orders()
    gens = source.core_generators
    cands = [np.flatnonzero(src_orders[s] % tgt_orders == 0) for s in gens]
    return [GroupHom(source, target, vals, validate=False)
            for vals in _gated_hom_tables(source, target, cands, gens)]


def enumerate_endos(g: FiniteGroup) -> List[GroupHom]:
    return enumerate_homs(g, g)


def enumerate_automorphisms(g: FiniteGroup) -> List[GroupHom]:
    return [h for h in enumerate_homs(g, g) if h.is_bijective()]


def aut_group(g: FiniteGroup) -> Tuple[FiniteGroup, List[Tuple[int, ...]]]:
    """The automorphism group as a table group.

    Returns (A, perms) where perms[k] is the value tuple of automorphism k and
    A.table is composition: (a*b)(x) = a(b(x)).  The identity sits at index 0.
    """
    auts = sorted(tuple(h.values.tolist()) for h in enumerate_automorphisms(g))
    tables = np.asarray(auts, dtype=np.int64).reshape(len(auts), g.order)
    index = TableIndex(tables, g.core_generators, g.order)
    table = np.stack([index.find(row[tables]) for row in tables])
    grp = FiniteGroup(table, None, labels=[f"a{i}" for i in range(len(auts))],
                      name=f"Aut({g.name or g.order})")
    return grp, auts


def action_from_hom(actor: FiniteGroup, module: FiniteGroup, hom_to_aut: GroupHom,
                    perms: Sequence[Tuple[int, ...]]) -> ActionTable:
    table = np.stack([np.asarray(perms[int(hom_to_aut.values[a])]) for a in range(actor.order)])
    return ActionTable(actor, module, table)


def enumerate_actions(actor: FiniteGroup, module: FiniteGroup) -> List[ActionTable]:
    """All actions of `actor` on `module`, i.e. all homs actor -> Aut(module)."""
    aut, perms = aut_group(module)
    homs = enumerate_homs(actor, aut)
    return [action_from_hom(actor, module, h, perms) for h in homs]


def find_isomorphism(a: FiniteGroup, b: FiniteGroup) -> Optional[GroupHom]:
    """Brute-force isomorphism search by generator images; None if not isomorphic."""
    cap = current_budgets().iso_search_max_order
    if max(a.order, b.order) > cap:
        raise BudgetExceeded(f"isomorphism search capped at order {cap}")
    if a.order != b.order or a.is_abelian() != b.is_abelian():
        return None
    if sorted(a.element_orders().tolist()) != sorted(b.element_orders().tolist()):
        return None
    orders_a = a.element_orders()
    orders_b = b.element_orders()
    cands = [
        [h for h in range(b.order) if int(orders_b[h]) == int(orders_a[s])]
        for s in a.generators
    ]
    for vals in _search_generator_images(a, b, cands):
        if _is_bijective(vals):
            return GroupHom(a, b, vals, validate=False)
    return None


# ----------------------------------------------------------------- JSON format


def group_to_json(g: FiniteGroup) -> dict:
    return {
        "order": g.order,
        "table": g.table.tolist(),
        "generators": list(g.generators),
        "labels": list(g.labels),
    }


def group_from_json(data: dict, name: str = "") -> FiniteGroup:
    try:
        table = data["table"]
        generators = data["generators"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"group JSON needs 'table' and 'generators': {exc}") from exc
    if generators is not None:
        generators = _as_int_array(generators, "group generators")
        if generators.ndim != 1:
            raise ValidationError(
                f"group generators must be a list of integers, got {data['generators']!r}")
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, list):
        raise ValidationError(f"group labels must be a list, got {labels!r}")
    g = FiniteGroup(table, generators, labels=labels, name=name or str(data.get("name", "")))
    if "order" in data and _as_int(data["order"], "declared order") != g.order:
        raise ValidationError(f"declared order {data['order']} != table order {g.order}")
    return g
