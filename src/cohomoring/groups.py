"""Finite groups as multiplication tables, with 0-based element indices.

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

The additive groups of the two rings that `_coset_tables` walks keep the
walk instead of a table: a `_WalkTable` composes each cell read from the
walk's generator rows, and their certificate, `FiniteGroup._certify_walk`,
reads n cells per check plus the walk's own proof of an abelian group.

Two private primitives serve every derived action, section and coset:
`_conjugation_rows` builds the table a m a^-1 over a member list in one
gather, and `_descend` picks the least element of each fiber of a
surjection and reports where a table fails to be constant on fibers.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .budgets import gate
from .errors import ValidationError, _json_name

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
    """`data` as an int64 array, refused as `_integer_input` refuses it."""
    return _integer_input(data, what).astype(np.int64, copy=False)


def _integer_input(data, what: str) -> np.ndarray:
    """`data` as an array in its own integer dtype.  Ragged input, and
    non-empty input whose own dtype is not an integer dtype that int64 holds
    (floats, booleans, text), is a ValidationError, so that 1.5 or true is
    never read as 1.  numpy promotes [0, True] to integers, so nested lists
    are also scanned for booleans; ndarray input skips the scan."""
    try:
        arr = np.asarray(data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"{what} must be a rectangular array of integers") from exc
    if arr.size and not (arr.dtype.kind in "iu" and np.can_cast(arr.dtype, np.int64)
                         and (isinstance(data, np.ndarray) or not _holds_bool(data))):
        raise ValidationError(f"{what} must be a rectangular array of integers")
    return arr


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
    """A square integer table, in its own dtype until `_index_table` has
    range-checked it."""
    arr = _integer_input(table, what)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{what} must be a square table, got shape {arr.shape}")
    return arr


# Order from which element-index tables are stored narrow; see _table_dtype.
_NARROW_FROM_ORDER = 256
_INT16, _INT32, _INT64 = np.dtype(np.int16), np.dtype(np.int32), np.dtype(np.int64)
_INT16_MAX = int(np.iinfo(np.int16).max)


def _table_dtype(order: int) -> np.dtype:
    """The dtype of a table whose cells are element indices below `order`:
    int16 up to order 32767, int32 above, and int64 below _NARROW_FROM_ORDER.

    The n^2 certificates on these tables are bound by memory traffic: Light's
    test for one generator of a 576-element table takes 3.1 ms on int64 and
    0.55 ms on int16.  Small tables stay int64, because numpy casts a narrow
    fancy index to intp on every call: with every table narrowed, building a
    group of order <= 24 took a median 180 us instead of 145 us, and
    `verify --catalog` on the default catalog 0.50 s instead of 0.41 s (six
    alternating runs each; 2 CPUs, Python 3.11, numpy 2.4).  Index
    arithmetic on the cells of such a table, such as s * nr + r for a pair
    index below `order`, stays within this dtype.
    """
    if order < _NARROW_FROM_ORDER:
        return _INT64
    return _INT16 if order <= _INT16_MAX else _INT32


def _in_table_dtype(order: int, *tables: np.ndarray) -> Tuple[np.ndarray, ...]:
    """The element-index tables, each read in `_table_dtype(order)` (no
    copy where one already is), for building a table of `order` elements
    from their cells: that dtype holds every index below `order`, such as a
    pair index n * q_order + q, so the arithmetic and the result stay in it."""
    dt = _table_dtype(order)
    return tuple(t.astype(dt, copy=False) for t in tables)


def _index_table(arr: np.ndarray, order: int, error: str) -> np.ndarray:
    """The non-empty arr in `_table_dtype(order)`, once every entry is
    proved an element index below `order`; ValidationError(error)
    otherwise.  The check runs on the array as given, before the cast, so
    no entry out of range can wrap into range."""
    if arr.min() < 0 or arr.max() >= order:
        raise ValidationError(error)
    return arr.astype(_table_dtype(order), copy=False)


class FiniteGroup:
    """A finite group given by its multiplication table.

    table[a, b] is the index of a*b, stored in `_table_dtype(order)` once
    range-checked.  Index 0 must be the identity.  The additive group of a
    ring that `_coset_tables` walked keeps the walk's `_WalkTable` instead:
    it serves the cells that are read and materializes the whole table only
    on a whole-table read.
    generators=None picks a small generating set greedily, an element of
    largest order first.  `core_generators` is the greedy subset of the
    generators, in their order, that still generates; the certificates check
    their laws against it.  `supplied_laws` is ("associativity",) for a
    table that a walk proved (see `_certify`), else ().
    """

    _walk: Optional["_CosetWalk"] = None  # set by `_on_walk` before __init__

    def __init__(
        self,
        table,
        generators: Optional[Sequence[int]],
        labels: Optional[Sequence[str]] = None,
        name: str = "",
    ):
        walked = self._walk is not None and table is self._walk.add
        if not walked:
            table = _as_table(table, "group table")
        self.order = n = int(table.shape[0])
        self.name = name
        self._orders: Optional[np.ndarray] = None
        self._decomposition = None  # set by linalg.abelian_decomposition
        self._bfs: Dict[Tuple[int, ...], List[Tuple[int, int, int]]] = {}  # see _bfs_words
        if n == 0:
            raise ValidationError("group must be nonempty")
        # every cell of a walk's table is a member name by construction
        self.table = table if walked else _index_table(
            table, n, "group table entries must be element indices")
        idx = np.arange(n)
        first_row, first_col = self.table[0], self.table[:, 0]
        if not (first_row == idx).all() or not (first_col == idx).all():
            bad = int(np.argmax(first_row != idx)) if (first_row != idx).any() else int(
                np.argmax(first_col != idx)
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
        inverse (inverse[a] a = 0) is a group.  The table of a `_coset_tables`
        walk takes `_certify_walk` instead; where that fails, the walk is
        dropped and its table, materialized, is checked here as any table.
        """
        walk = self._walk
        if walk is not None and generators is None and self.table is walk.add \
                and self._certify_walk():
            return
        self._walk = None
        n = self.order
        t = self.table = np.asarray(self.table)
        idx = np.arange(n)
        # by blocks: argmin copies a read-only table whole
        self.inverse = np.empty(n, dtype=np.int64)
        for rows in _row_blocks(n, n):
            self.inverse[rows] = t[rows].argmin(axis=1)
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
        self._set_generators(gens, core)
        self._check_associativity()
        self.supplied_laws = ()

    def _set_generators(self, gens: Tuple[int, ...], core: Sequence[int]) -> None:
        self.generators = gens
        self.core_generators = tuple(core)
        # [j, x] = x s_j for the core generators s_j, read by every certificate
        self._core_right = self.table[:, np.asarray(core, dtype=np.intp)].T

    def _certify_walk(self) -> bool:
        """Whether the walk's table is an abelian group, proved on its cells;
        if so, set the inverses and the greedy generators.

        The inverse of a member is the member holding its negated map, one
        `TableIndex` lookup (`_CosetWalk.negatives`), confirmed by n cells.
        Commuting generator rows prove associativity and commutativity
        (`_walk_commutes`), and in an abelian group the greedy span grows by
        coset doubling (`_coset_span`), which picks what `_greedy_span` picks.
        """
        n = self.order
        inverse = self._walk.negatives()
        if (inverse < 0).any() or self.table[inverse, np.arange(n)].any() \
                or not self._walk_commutes():
            return False
        self.inverse = inverse
        if n == 1:
            gens = (0,)
        else:
            best = int(np.argmax(self.element_orders()))
            gens = tuple(_coset_span(self._walk, np.concatenate(([best], np.arange(1, n))))[0])
        self._set_generators(gens, [g for g in gens if g])
        self.supplied_laws = ("associativity",)
        return True

    def _walk_commutes(self) -> bool:
        """Whether the generator rows of the walk that filled the table
        commute: the proof of associativity in `_coset_tables`."""
        rows = self.table[self._walk.closing[:, 0]]  # [l, b] = R_l(b)
        turns = rows[:, rows]  # [l, m, b] = R_l(R_m(b))
        return bool((turns == turns.transpose(1, 0, 2)).all())

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
        and the core generators generate, so it proves every triple.  Each
        generator is checked over blocks of rows x of at most
        _SEARCH_BLOCK_CELLS cells, in row order, so the first witness is the
        first failing (x, z) in row-major order.
        """
        t = self.table
        blocks = _row_blocks(self.order, self.order)
        for s, right in zip(self.core_generators, self._core_right):
            ts = t[s]
            for rows in blocks:
                bad = t[right[rows]] != t[rows, ts]  # [x, z]: (x s) z against x (s z)
                if bad.any():
                    a, c = map(int, np.argwhere(bad)[0])
                    a += rows.start
                    raise ValidationError(
                        f"associativity fails at ({a},{s},{c})", witness=(a, s, c))

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
        elements that do form a subgroup, so this is commutativity.  A walk
        group is abelian by the proof that `_certify_walk` checked."""
        if self._walk is not None:
            return True
        core = np.asarray(self.core_generators, dtype=np.intp)
        return bool((self._core_right == self.table[core]).all())

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


def _proved(cls, **fields):
    """An instance of cls with these attributes and no check, for values
    that their construction proves: composites, inverses, and the rows that
    a generator search certified.  The public constructors always check."""
    obj = cls.__new__(cls)
    obj.__dict__.update(fields)
    return obj


class GroupHom:
    """A homomorphism between table groups, stored as a value array.

    The law on all pairs is proved by the certificate `_hom_rows`; the sweep
    of all pairs runs only on failure, to name the first bad pair.
    """

    def __init__(self, source: FiniteGroup, target: FiniteGroup, values):
        self.source = source
        self.target = target
        self.values = np.asarray(values, dtype=np.int64)
        if self.values.shape != (source.order,):
            raise ValidationError(
                f"hom needs {source.order} values, got shape {self.values.shape}"
            )
        if self.values.min() < 0 or self.values.max() >= target.order:
            raise ValidationError("hom values out of range")
        if not _hom_rows(source, target, self.values[None])[0]:
            raise _hom_error(source, target, self.values)

    def apply(self, a: int) -> int:
        return int(self.values[a])

    def __call__(self, a: int) -> int:
        return int(self.values[a])

    def compose(self, other: "GroupHom") -> "GroupHom":
        """self after other (self.source must be other.target)."""
        if other.target is not self.source:
            raise ValidationError("hom composition mismatch")
        return _proved(GroupHom, source=other.source, target=self.target,
                       values=self.values[other.values])

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
        return _proved(GroupHom, source=self.target, target=self.source, values=inv)

    def same_values(self, other: "GroupHom") -> bool:
        return bool((self.values == other.values).all())

    def __repr__(self) -> str:
        return f"GroupHom({self.source!r} -> {self.target!r})"


def identity_hom(g: FiniteGroup) -> GroupHom:
    return _proved(GroupHom, source=g, target=g, values=np.arange(g.order, dtype=np.int64))


class ActionTable:
    """A left action of `actor` on `module` by automorphisms.

    table[a, m] is the index of a acting on m.  The module is not required to
    be abelian here; operations that need abelian coefficients check at their
    own boundary.  The action law is proved against each core generator of
    the actor, and the rows of those generators are certified automorphisms
    by `_hom_rows`; together these prove both laws everywhere.
    """

    def __init__(self, actor: FiniteGroup, module: FiniteGroup, table):
        self.actor = actor
        self.module = module
        self.table = _as_int_array(table, "action table")
        if self.table.shape != (actor.order, module.order):
            raise ValidationError(
                f"action table must be {actor.order}x{module.order}, got {self.table.shape}"
            )
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
    idx = np.arange(n, dtype=_table_dtype(n))
    # row a is 0..n-1 rotated left by a
    table = np.lib.stride_tricks.sliding_window_view(np.concatenate((idx, idx)), n)[:n].copy()
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
    tn, tq = _in_table_dtype(nn * qq, n_group.table, q_group.table)
    table = np.zeros((nn * qq, nn * qq), dtype=tn.dtype)
    for n1 in range(nn):
        for q1 in range(qq):
            a = enc(n1, q1)
            moved = tn[n1, action.table[q1]]  # n1 + q1.n2 for all n2
            table[a] = (moved[:, None] * qq + tq[q1][None, :]).reshape(-1)
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
    table = np.tile(np.arange(module.order, dtype=np.int64), (actor.order, 1))
    return _proved(ActionTable, actor=actor, module=module, table=table)


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


def _equivariant_rows(maps: np.ndarray, action: "ActionTable") -> np.ndarray:
    """Mask of the rows of `maps` ([k, m] = image of module element m) that
    commute with the action on the core generators of the actor: the actor
    elements a map commutes with are closed under products."""
    act = action.table
    ok = np.ones(len(maps), dtype=bool)
    for s in action.actor.core_generators:
        ok &= (maps[:, act[s]] == act[s][maps]).all(axis=1)
    return ok


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

# Upper bound on the cells of one block: candidates x |source| in one
# propagation block, rows x row length in one slice of `_row_blocks`.
_SEARCH_BLOCK_CELLS = 1 << 16


def _row_blocks(count: int, cells: int) -> Sequence[slice]:
    """Consecutive slices of range(count) whose rows, of `cells` cells each,
    stay within _SEARCH_BLOCK_CELLS cells per slice.  Small tables, the
    common case, take one slice without a loop."""
    if count * cells <= _SEARCH_BLOCK_CELLS:
        return (slice(0, count),) if count else ()
    step = max(1, _SEARCH_BLOCK_CELLS // cells)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _bfs_words(g: FiniteGroup, gens: Sequence[int]) -> List[Tuple[int, int, int]]:
    """Discovery list [(element, parent, generator position)] covering G \\ {e}.

    `_search_generator_images` keeps it on the group per generator tuple,
    so each (group, gens) builds it once."""
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
    certificate `_hom_rows`, which proves the law on all pairs.  Each block
    with a kept row yields them whole, one [b, x] array in candidate order.
    """
    gens = tuple(int(s) for s in (source.generators if gens is None else gens))
    cands = [np.asarray(c, dtype=np.int64) for c in cands]
    total = math.prod(len(c) for c in cands)
    bfs = source._bfs.get(gens)
    if bfs is None:
        bfs = source._bfs[gens] = _bfs_words(source, gens)
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
        if ok.any():
            yield vals[ok]
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
        node = self.levels[0].take(keys[..., 0])
        for j in range(1, len(self.levels)):
            node *= self.radix
            node += keys[..., j]
            node = self.levels[j].take(node)
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
        the proof obligation of `find_keys`, in `_table_dtype(members)`: each
        cell is a member position or -1.  pair_keys(rows) returns the keys
        of the pairs whose a lies in the slice `rows`, shaped [len(rows),
        members, len(positions)]; the blocks of rows keep each key array
        within _SEARCH_BLOCK_CELLS cells.  It serves only the witness of a
        failed closure in `_coset_tables`, which otherwise builds no n^2
        table."""
        n = len(self.tables)
        out = np.empty((n, n), dtype=_table_dtype(n))
        for rows in _row_blocks(n, n * len(self.positions)):
            out[rows] = self.find_keys(pair_keys(rows))
        return out


class _WalkTable:
    """The sum or product table of a `_CosetWalk`, read-only.

    Indexing it as a 2-d numpy array, by integers, slices and integer index
    arrays that numpy broadcasts, composes just the cells read from the
    walk's rows.  Any other read (`np.asarray`, `tolist`, `.T`, another
    ndarray attribute or index) materializes the whole table once, through
    `_fill`, and keeps it for every later read.
    """

    __slots__ = ("_cells", "shape", "dtype", "_full", "_idx")
    ndim = 2

    def __init__(self, cells, order: int, dtype: np.dtype):
        self._cells = cells  # (rows, cols) -> the cells at those broadcast indices
        self.shape = (order, order)
        self.dtype = dtype
        self._full: Optional[np.ndarray] = None
        self._idx = np.arange(order)

    def __len__(self) -> int:
        return self.shape[0]

    def __getitem__(self, key):
        if self._full is None:
            grid = _grid(key, self._idx)
            if grid is not None:
                return self._cells(*grid)
        return np.asarray(self)[key]

    def __setitem__(self, key, value):
        raise ValueError("assignment destination is read-only")

    def __array__(self, dtype=None, copy=None):
        if self._full is None:
            self._full = self._fill()
        return self._full if dtype is None and not copy else np.array(self._full, dtype=dtype)

    def _fill(self) -> np.ndarray:
        """The whole table, read-only, composed over blocks of rows."""
        n, idx = self.shape[0], self._idx
        full = np.empty(self.shape, dtype=self.dtype)
        for rows in _row_blocks(n, n):
            full[rows] = self._cells(idx[rows, None], idx)
        full.flags.writeable = False
        return full

    def __getattr__(self, name):
        if name.startswith("__"):  # numpy's own probes, such as __array_interface__
            raise AttributeError(name)
        return getattr(np.asarray(self), name)

    def __iter__(self):
        return iter(np.asarray(self))

    def __eq__(self, other):
        return np.asarray(self) == other

    def __ne__(self, other):
        return np.asarray(self) != other


def _grid(key, idx: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The row and column indices that the numpy index `key` reads from a
    table with the places `idx` = arange(n), shaped to broadcast to the
    shape of the read; None for an index that is not one or two of
    integers, slices and integer arrays.  Columns are read through `idx`,
    which raises on one out of range and turns a negative one into its
    place, as numpy does; the walk's row gathers do both for the rows."""
    if type(key) is not tuple:
        a, b = key, slice(None)
    elif len(key) == 2:
        a, b = key
    elif len(key) == 1:
        a, b = key[0], slice(None)
    else:
        return None
    if a is None or b is None or a is Ellipsis or b is Ellipsis:
        return None
    rows = idx[a] if type(a) is slice else np.asarray(a)
    cols = b if type(b) is slice else np.asarray(b)
    if rows.dtype.kind not in "iu" or (type(b) is not slice and cols.dtype.kind not in "iu"):
        return None
    cols = idx[cols]
    if type(b) is slice:  # numpy puts the sliced axis last ...
        rows = rows[..., None]
    elif type(a) is slice:  # ... or first, when only the rows are sliced
        rows = rows.reshape(rows.shape + (1,) * cols.ndim)
    return rows, cols


class _CosetWalk:
    """The sum and product tables of the members of a `TableIndex`, kept as
    the coset walk of `_coset_tables`, which also proves their laws.

    For walk generator l, of order r_l modulo the span of those before it,
    `_powers` holds the powers R_l^j of its looked-up sum row and
    `_multiples` the multiples j P_l of its looked-up product row, j < r_l.
    Member a sits at the walk place sum_l j_l(a) h_l, h_l the order of the
    span before generator l, and `_at[l][a]` is the flat start of the rows
    for j_l(a).  With k walk generators,

        add[a, b] = R_{k-1}^{j_{k-1}(a)}( ... R_0^{j_0(a)}(b))
        mul[a, b] = j_{k-1}P_{k-1}(b) + ( ... + (j_1 P_1(b) + j_0 P_0(b)))

    the sums read from add: the rows R^j o add[h] and j P + mul[h] that the
    walk gives the member at place j of the walk from h in H.  `add` and
    `mul` serve these cells as `_WalkTable`s, and closing[l] = (g, (r - 1)g,
    rg) for generator g = R_l(0).
    """

    __slots__ = ("order", "closing", "add", "mul", "_at", "_powers", "_multiples",
                 "_index", "_neg")

    def __init__(self, names: np.ndarray, powers: List[np.ndarray], products: List[np.ndarray],
                 closing: list, index: TableIndex, neg: np.ndarray):
        self.order = n = len(names)
        self.closing = np.array(closing, dtype=np.int64).reshape(-1, 3)
        self._index, self._neg = index, neg
        dt = names.dtype
        if not powers:  # the zero ring: one generator of order 1
            powers, products = [np.zeros((1, 1), dtype=dt)], [np.zeros(1, dtype=dt)]
        place = np.argsort(names)  # the place of each member, as `_coset_tables` sorted its rows
        self._powers = np.concatenate(powers).reshape(-1)
        at, starts, span, start = [], [], 1, 0
        for power in powers:  # the digit of each member for each generator, as a row start
            r = len(power)
            at.append((place // span % r + start) * n)
            starts.append(start)
            span, start = span * r, start + r
        self._at = tuple(at)
        multiples = np.zeros((start, n), dtype=dt)
        self._multiples = multiples.reshape(-1)
        for s, power, row in zip(starts, powers, products):
            r = len(power)
            if r > 1:
                multiples[s + 1] = row
            # with t = 2, 4, ...: (t + i)P = tP + iP for i < min(t, r - t)
            t = 2
            while t < r:
                row = self.sums(row, row)
                m = min(t, r - t)
                multiples[s + t:s + t + m] = self.sums(row[None, :], multiples[s:s + m])
                t *= 2
        self.add = _WalkTable(self.sums, n, dt)
        self.mul = _WalkTable(self.products, n, dt)

    def sums(self, a, b) -> np.ndarray:
        """add[a, b] for broadcast member indices a and b."""
        powers = self._powers
        for at in self._at:
            b = powers.take(at.take(a) + b)
        return b

    def products(self, a, b) -> np.ndarray:
        """mul[a, b] for broadcast member indices a and b: the sum, read as
        in `sums`, of the multiples j_l P_l(b) from the last l down."""
        powers, multiples = self._powers, self._multiples
        first, *rest = self._at
        x = multiples.take(first.take(a) + b)
        for at in rest:
            row = multiples.take(at.take(a) + b)
            for level in self._at:
                x = powers.take(level.take(row) + x)
        return x

    def negatives(self) -> np.ndarray:
        """The member holding the negated map of each member, -1 where the
        index holds none: the keys negated in the module, looked up once."""
        return self._index.find_keys(self._neg[self._index.keys])


def _coset_span(walk: _CosetWalk, candidates: np.ndarray) -> Tuple[List[int], np.ndarray]:
    """`_greedy_span` in the group of `walk.add`, once it is proved abelian:
    each pick a, the least candidate outside the span H so far, grows H to
    H + <a> by coset doubling.  With S = H + {0, .., t - 1}a and t = 1, 2,
    4, ..., one gather adds S + ta and gives 2ta, until 2ta lies in S: then
    (2t - j)a lies in H for some j < 2t, so S is H + <a>."""
    reached = np.zeros(walk.order, dtype=bool)
    reached[0] = True
    span = np.zeros(walk.order + 1, dtype=np.int64)  # span[:size] lists S; then ta
    size = 1
    kept: List[int] = []
    while True:
        rest = candidates[~reached[candidates]]
        if not rest.size:
            return kept, reached
        step = span[size] = int(rest[0])
        kept.append(step)
        while not reached[step]:
            moved = walk.sums(step, span[:size + 1])  # S + ta, then 2ta
            fresh = moved[:size][~reached[moved[:size]]]
            span[size:size + len(fresh)] = fresh
            reached[fresh] = True
            size += len(fresh)
            step = span[size] = moved[-1]


def _on_walk(cls, walk: _CosetWalk, *args, **kwargs):
    """cls(*args, **kwargs) with `walk` set first, for its checks to take
    the laws that the walk proves while their tables are the walk's own."""
    obj = cls.__new__(cls)
    obj._walk = walk
    obj.__init__(*args, **kwargs)
    return obj


def _ring_order_gate(n: int) -> None:
    """Refuse a ring of n members before its n^2 tables are built."""
    gate("ring_check_max_order", n, "ring order {used} exceeds check budget {limit}")


def _coset_tables(index: TableIndex, table: np.ndarray, maps: np.ndarray
                  ) -> Tuple[Optional[_CosetWalk], Optional[Tuple[int, int]]]:
    """The sum and product tables [a, b] of the members of `index`, as a
    `_CosetWalk`, and None; or None and the first pair (a, b), in row-major
    order, whose sum or product is no member.

    The members are maps into an abelian group with table `table`, member 0
    the zero map; a + b is the pointwise sum and ab is maps[a] o b, where
    maps[a] is a read through a fixed map, so that maps[a + c] = maps[a] +
    maps[c].  Keys are read off the keys of a and b, under the proof
    obligation of `TableIndex.find_keys`.

    The walk spans the members coset by coset, as a Schreier tree spans a
    group (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
    2005, ch. 4).  With H the subgroup spanned so far, at first {0}, the
    least member g outside H is the next generator; only its sum and
    product rows R and P are looked up, `size` keys each, and each coset jg
    + H of H in <H, g> takes its rows from rows already built:

        add[jg + x] = R^j o add[x]        ((g + y) + b = g + (y + b))
        mul[jg + x] = jP + mul[x]         ((g + y)b = gb + yb)

    No n^2 table is built: `_CosetWalk` keeps R^j and jP for j < r, the
    order of g modulo H, and composes each cell read from them.

    Closure needs no scan.  When every generator row is found, g + S lies in
    the member set S for each generator g, so S, which they span, is closed
    under the sum, and each product xb, a sum of generator products gb, is a
    member.  When a generator row misses, `TableIndex.find_pairs` builds
    both tables to name the first missing pair.

    Laws of the tables as built, whatever the lookups return.  The member at
    place j < r of the walk from h in H gets the rows R^j o add[h] and j P +
    mul[h], and is named by its sum row at 0: g = R(0), (r - 1)g = R^(r -
    1)(0) and rg = R^r(0), which lies in H.  Once `FiniteGroup` has found the
    names distinct, the rows, compositions of generator rows, send 0 to
    every member.  If the generator rows commute, they generate an abelian
    transitive, hence regular, permutation group of order n, and the n rows,
    distinct at 0, are all of it: add[add[a, b]] = add[a] o add[b], so the
    sum is associative and commutative.  Then a -> mul[a] is additive on <H,
    g> iff it is on H and mul[rg] = r P = add[mul[(r - 1)g], P]: for j + j'
    >= r, jg + h plus j'g + h' is (j + j' - r)g + (rg + h + h').  So the
    generator rows prove associativity (`FiniteGroup._certify_walk`, k^2 n
    cells for k generators) and the closing cells (g, (r - 1)g, rg) right
    distributivity (`rings.FiniteRing._validate`, k n cells).  The tables
    are read-only, so that no later change keeps that proof.  A looked-up
    sum row whose powers do not reach H within n / h steps, which would
    write past place n, raises `ValidationError`.  More than
    `ring_check_max_order` members are refused by `_ring_order_gate` first.
    """
    n = len(index.tables)
    _ring_order_gate(n)
    keys = index.keys
    dt = _table_dtype(n)
    names = np.zeros(n, dtype=dt)  # names[p]: the member at place p of the walk
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    powers, products = [], []  # R^j for j < r, and P, per generator
    closing = []  # (g, (r - 1)g, rg) per generator g
    h, g = 1, 1  # places 0..h-1 hold the members of H; g is the least member outside
    while h < n:
        rows = index.find_keys(np.concatenate((table[keys[g], keys], maps[g, keys])))
        if rows.min() < 0:
            add = index.find_pairs(lambda s: table[keys[s, None, :], keys[None, :, :]])
            mul = index.find_pairs(lambda s: maps[s][:, keys])
            missing = (add < 0) | (mul < 0)
            a = int(np.argmax(missing.any(axis=1)))
            return None, (a, int(np.argmax(missing[a])))
        row = rows[:n].astype(dt, copy=False)
        # r: the order of g modulo H, at most n / h; names run from 0 through row
        first = int(row[0])
        r, last, x = 2, first, int(row[first])
        while not reached[x] and h * r <= n:
            r, last, x = r + 1, x, int(row[x])
        if h * r > n:
            raise ValidationError(f"the sum row of member {g} is no coset walk", witness=g)
        closing.append((first, last, x))  # (g, (r - 1)g, rg)
        # with t = 2, 4, ...: R^(t + i) = R^t o R^i for i < min(t, r - t)
        power = np.empty((r, n), dtype=dt)
        power[0], power[1] = np.arange(n), row
        t = 2
        while t < r:
            row = row[row]
            m = min(t, r - t)
            row.take(power[:m], out=power[t:t + m], mode="clip")  # cells are in range
            t *= 2
        names[h:h * r] = power[1:, names[:h]].reshape(-1)
        powers.append(power)
        products.append(rows[n:].astype(dt, copy=False))
        if h * r < n:
            reached[names[h:h * r]] = True
            g = int(reached.argmin())
        h *= r
    return _CosetWalk(names, powers, products, closing, index, table.argmin(axis=1)), None


def hom_make(source: FiniteGroup, target: FiniteGroup, generator_images: Sequence[int]) -> GroupHom:
    """The unique homomorphism sending source.generators to the given images."""
    images = [int(v) for v in generator_images]
    if len(images) != len(source.generators):
        raise ValidationError(
            f"need {len(source.generators)} generator images, got {len(images)}"
        )
    if any(v < 0 or v >= target.order for v in images):
        raise ValidationError("generator image out of range")
    for block in _search_generator_images(source, target, [[v] for v in images]):
        return _proved(GroupHom, source=source, target=target, values=block[0])
    raise ValidationError(
        f"generator images {images} are inconsistent with the relations of the source",
        witness=images,
    )


def _gated_hom_tables(source: FiniteGroup, target: FiniteGroup, cands, gens,
                      action: Optional[ActionTable] = None,
                      refusal: str = "hom search needs {used} candidates, budget {limit}"
                      ) -> np.ndarray:
    """[b, x]: every table that `_search_generator_images` certifies with the
    generating tuple gens sent into cands, homomorphisms or, under `action`,
    crossed homomorphisms, its blocks joined, in lexicographic order.  The
    candidate count is gated by `search_candidates`, refused with `refusal`."""
    gate("search_candidates", math.prod(len(c) for c in cands), refusal)
    blocks = list(_search_generator_images(source, target, cands, action, gens=gens))
    tables = np.concatenate(blocks) if blocks else np.zeros((0, source.order), dtype=np.int64)
    # lexsort keys on its last row first
    return tables[np.lexsort(tables.T[::-1])]


def _hom_tables(source: FiniteGroup, target: FiniteGroup) -> np.ndarray:
    """[b, x]: the value tables of all homomorphisms source -> target, in
    lexicographic order, by search over the images of the core generators."""
    src_orders = source.element_orders()
    tgt_orders = target.element_orders()
    gens = source.core_generators
    cands = [np.flatnonzero(src_orders[s] % tgt_orders == 0) for s in gens]
    return _gated_hom_tables(source, target, cands, gens)


def enumerate_homs(source: FiniteGroup, target: FiniteGroup) -> List[GroupHom]:
    """All homomorphisms source -> target, in the order of `_hom_tables`."""
    return [_proved(GroupHom, source=source, target=target, values=vals)
            for vals in _hom_tables(source, target)]


def enumerate_endos(g: FiniteGroup) -> List[GroupHom]:
    return enumerate_homs(g, g)


def enumerate_automorphisms(g: FiniteGroup) -> List[GroupHom]:
    return [h for h in enumerate_homs(g, g) if h.is_bijective()]


def aut_group(g: FiniteGroup) -> Tuple[FiniteGroup, np.ndarray]:
    """The automorphism group as a table group.

    Returns (A, perms), perms[k] the value table of automorphism k in
    lexicographic order, and A.table composition: (a*b)(x) = a(b(x)).
    A has an order^2 table, so its order is gated by `ring_check_max_order`,
    the budget of every other order^2 table, before the table is built.
    """
    endos = _hom_tables(g, g)
    tables = endos[_is_bijective(endos)]
    gate("ring_check_max_order", len(tables),
         "automorphism group order {used} exceeds check budget {limit}")
    index = TableIndex(tables, g.core_generators, g.order)
    table = np.stack([index.find(row[tables]) for row in tables])
    grp = FiniteGroup(table, None, labels=[f"a{i}" for i in range(len(tables))],
                      name=f"Aut({g.name or g.order})")
    return grp, tables


def action_from_hom(actor: FiniteGroup, module: FiniteGroup, hom_to_aut: GroupHom,
                    perms) -> ActionTable:
    return ActionTable(actor, module, np.asarray(perms)[hom_to_aut.values])


def enumerate_actions(actor: FiniteGroup, module: FiniteGroup) -> List[ActionTable]:
    """All actions of `actor` on `module`, i.e. all homs actor -> Aut(module)."""
    aut, perms = aut_group(module)
    homs = enumerate_homs(actor, aut)
    return [action_from_hom(actor, module, h, perms) for h in homs]


def find_isomorphism(a: FiniteGroup, b: FiniteGroup) -> Optional[GroupHom]:
    """The first isomorphism a -> b, in the lexicographic order of value
    tables, by search over the images of the core generators of a within
    `search_candidates`; None if the groups are not isomorphic."""
    if a.order != b.order or a.is_abelian() != b.is_abelian():
        return None
    orders_a, orders_b = a.element_orders(), b.element_orders()
    if sorted(orders_a.tolist()) != sorted(orders_b.tolist()):
        return None
    gens = a.core_generators
    cands = [np.flatnonzero(orders_b == orders_a[s]) for s in gens]
    tables = _gated_hom_tables(a, b, cands, gens)
    hit = np.flatnonzero(_is_bijective(tables))
    return _proved(GroupHom, source=a, target=b, values=tables[hit[0]]) if hit.size else None


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
    loaded = _json_name(data)
    g = FiniteGroup(table, generators, labels=labels, name=name or loaded)
    if "order" in data and _as_int(data["order"], "declared order") != g.order:
        raise ValidationError(f"declared order {data['order']} != table order {g.order}")
    return g
