"""The group and ring table validators as they were before their certificates
were trimmed, kept as oracles.

The package now accepts a group table on the identity, two-sided inverses,
generation and Light's test, and sorts rows and columns only once one of
those has failed; it derives each generator span once; and it checks left
distributivity on the generator rows only.  These functions run every check
in the old order, with the old breadth-first closure, so that a test can
require the same outcome, error text and witness from both.
"""

import numpy as np

from cohomoring import ValidationError
from cohomoring.groups import _as_int, _as_int_array, _as_table


def _old_closure(table, seeds):
    seeds = np.unique(np.fromiter(seeds, dtype=np.int64))
    reached = np.zeros(table.shape[0], dtype=bool)
    reached[0] = True
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        nxt = np.concatenate((table[np.ix_(frontier, seeds)].ravel(),
                              table[np.ix_(seeds, frontier)].ravel()))
        frontier = np.unique(nxt[~reached[nxt]])
        reached[frontier] = True
    return reached


def _old_greedy_span(table, candidates, start=()):
    kept = [int(a) for a in start]
    reached = _old_closure(table, kept)
    for a in candidates:
        if not reached[a]:
            kept.append(int(a))
            reached = _old_closure(table, kept)
    return kept, reached


def _old_element_orders(table):
    n = table.shape[0]
    orders = np.ones(n, dtype=np.int64)
    power = np.arange(n, dtype=np.int64)
    live = np.flatnonzero(power)
    while live.size:
        power[live] = table[power[live], live]
        orders[live] += 1
        live = live[power[live] != 0]
    return orders


def _old_greedy_generators(table, members):
    members = sorted(int(m) for m in members)
    if members == [0]:
        return [0]
    orders = _old_element_orders(table)
    best = max((int(orders[m]), -m) for m in members if m != 0)
    return _old_greedy_span(table, members, start=[-best[1]])[0]


def old_group_outcome(table, generators):
    """("ok", generators, core generators, inverses) for a table the old
    `FiniteGroup` accepted, else (error text, witness)."""
    try:
        t = _as_table(table, "group table")
        n = int(t.shape[0])
        if n == 0:
            raise ValidationError("group must be nonempty")
        if t.min() < 0 or t.max() >= n:
            raise ValidationError("group table entries must be element indices")
        idx = np.arange(n)
        if not (t[0] == idx).all() or not (t[:, 0] == idx).all():
            bad = int(np.argmax(t[0] != idx)) if (t[0] != idx).any() else int(
                np.argmax(t[:, 0] != idx))
            raise ValidationError(
                f"element 0 must be the identity (fails at element {bad})", witness=bad)
        if not (np.sort(t, axis=1) == idx).all():
            raise ValidationError("some row of the group table is not a permutation")
        if not (np.sort(t, axis=0) == idx[:, None]).all():
            raise ValidationError("some column of the group table is not a permutation")
        inverse = np.argmin(t, axis=1).astype(np.int64)
        bad = np.flatnonzero(t[inverse, idx] != 0)
        if bad.size:
            a = int(bad[0])
            raise ValidationError(f"element {a} has no two-sided inverse", witness=a)
        if generators is None:
            gens = tuple(_old_greedy_generators(t, range(n)))
        else:
            gens = tuple(int(g) for g in generators)
        if not gens:
            raise ValidationError("generator list must be nonempty")
        if any(g < 0 or g >= n for g in gens):
            raise ValidationError(f"generator out of range: {gens}")
        core, reached = _old_greedy_span(t, gens)
        if not reached.all():
            raise ValidationError(
                f"generators {gens} generate only {int(reached.sum())} of {n} elements")
        for s in core:
            bad = t[t[:, s]] != t[:, t[s]]
            if bad.any():
                a, c = map(int, np.argwhere(bad)[0])
                raise ValidationError(f"associativity fails at ({a},{s},{c})",
                                      witness=(a, s, c))
    except ValidationError as exc:
        return str(exc), exc.witness
    return "ok", gens, tuple(core), inverse.tolist()


def old_ring_outcome(add_table, mul_table, one=None):
    """("ok", additive outcome) for tables the old `FiniteRing` accepted,
    else (error text, witness).  Budgets are not consulted."""
    try:
        add = _as_table(add_table, "ring addition table")
        mul = _as_int_array(mul_table, "ring multiplication table")
        n = add.shape[0]
        one = None if one is None else _as_int(one, "ring identity index")
    except ValidationError as exc:
        return str(exc), exc.witness
    group = old_group_outcome(add, None)
    if group[0] != "ok":
        return group
    gens = group[2]
    try:
        if mul.shape != (n, n):
            raise ValidationError(f"multiplication table must be {n}x{n}")
        if mul.min() < 0 or mul.max() >= n:
            raise ValidationError("multiplication table entries out of range")
        if not (add == add.T).all():
            raise ValidationError("ring addition must be commutative")
        if (mul[0] != 0).any() or (mul[:, 0] != 0).any():
            raise ValidationError("zero must annihilate the ring on both sides")
        for g in gens:
            left = mul[:, add[:, g]] != add[mul, mul[:, g][:, None]]
            if left.any():
                a, b = map(int, np.argwhere(left)[0])
                raise ValidationError(
                    f"left distributivity fails at ({a}, {b}, {g})", witness=(a, b, g))
            right = mul[add[:, g]] != add[mul, mul[g][None, :]]
            if right.any():
                a, c = map(int, np.argwhere(right)[0])
                raise ValidationError(
                    f"right distributivity fails at ({a}, {g}, {c})", witness=(a, g, c))
        k = np.asarray(gens, dtype=np.int64)
        ab = mul[np.ix_(k, k)]
        bad = mul[ab[:, :, None], k[None, None, :]] != mul[k[:, None, None], ab[None, :, :]]
        if bad.any():
            a, b, c = (int(k[i]) for i in np.argwhere(bad)[0])
            raise ValidationError(
                f"multiplication not associative at ({a}, {b}, {c})", witness=(a, b, c))
        if one is not None:
            if not 0 <= one < n:
                raise ValidationError(f"declared identity {one} outside the ring of order {n}")
            if not (mul[one] == np.arange(n)).all() or not (mul[:, one] == np.arange(n)).all():
                raise ValidationError(f"declared identity {one} is not two-sided")
    except ValidationError as exc:
        return str(exc), exc.witness
    return "ok", group
