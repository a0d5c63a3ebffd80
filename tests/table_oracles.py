"""The group, ring and map validators as they were before their certificates
were trimmed, kept as oracles.

The package now accepts a group table on the identity, two-sided inverses,
generation and Light's test, and sorts rows and columns only once one of
those has failed; it derives each generator span once; it checks left
distributivity on the generator rows only; and it proves the laws of
`GroupHom`, `CrossedHom`, `RingHom` and `BimoduleAction` against
generators.  These functions
run every check in the old order, on all pairs, with the old breadth-first
closure, so that a test can require the same outcome, error text and
witness from both.

`eager_coset_tables` is the coset walk as it was when it filled both n^2
tables, kept as the oracle of the walk that now serves their cells.
"""

import numpy as np

from cohomoring import ValidationError
from cohomoring.groups import _as_int, _as_int_array, _as_table, _row_blocks, _table_dtype


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


def old_group_hom_outcome(source, target, values):
    """"ok" for a map the old all-pairs check of `GroupHom` accepted, else
    (error text, witness)."""
    v = np.asarray(values, dtype=np.int64)
    try:
        if v.shape != (source.order,):
            raise ValidationError(f"hom needs {source.order} values, got shape {v.shape}")
        if v.min() < 0 or v.max() >= target.order:
            raise ValidationError("hom values out of range")
        lhs = v[source.table]
        rhs = target.table[v[:, None], v[None, :]]
        if not (lhs == rhs).all():
            a, b = np.argwhere(lhs != rhs)[0]
            raise ValidationError(f"not a homomorphism at pair ({int(a)},{int(b)})",
                                  witness=(int(a), int(b)))
        if int(v[0]) != 0:
            raise ValidationError("homomorphism must send identity to identity")
    except ValidationError as exc:
        return str(exc), exc.witness
    return "ok"


def old_crossed_hom_outcome(source, module, action, values):
    """"ok" for a map the old all-pairs check of `CrossedHom` accepted, else
    (error text, witness)."""
    v = np.asarray(values, dtype=np.int64)
    try:
        if action.actor is not source or action.module is not module:
            raise ValidationError("action must be of the source group on the module")
        if v.shape != (source.order,):
            raise ValidationError(f"need {source.order} values, got shape {v.shape}")
        if v.min() < 0 or v.max() >= module.order:
            raise ValidationError("crossed homomorphism value out of range")
        if v[0] != 0:
            raise ValidationError("crossed homomorphism must send identity to identity")
        law = module.table[v[:, None], action.table[:, v]]
        if not (law == v[source.table]).all():
            x, y = map(int, np.argwhere(law != v[source.table])[0])
            raise ValidationError(f"crossed homomorphism law fails at ({x}, {y})",
                                  witness=(x, y))
    except ValidationError as exc:
        return str(exc), exc.witness
    return "ok"


def old_ring_hom_outcome(source, target, values):
    """"ok" for a map the old `RingHom` accepted, else (error text, witness)."""
    v = np.asarray(values, dtype=np.int64)
    try:
        if v.shape != (source.order,):
            raise ValidationError("ring map needs one value per source element")
        if v.min() < 0 or v.max() >= target.order:
            raise ValidationError("ring map value out of range")
        if not (v[source.add_table] == target.add_table[v[:, None], v[None, :]]).all():
            raise ValidationError("ring map is not additive")
        if not (v[source.mul_table] == target.mul_table[v[:, None], v[None, :]]).all():
            raise ValidationError("ring map is not multiplicative")
    except ValidationError as exc:
        return str(exc), exc.witness
    return "ok"


def old_bimodule_outcome(r_ring, s_group, left, right):
    """"ok" for tables the old `BimoduleAction` accepted, else (error text,
    witness)."""
    nr, ns = r_ring.order, s_group.order
    lt, rt = np.asarray(left, dtype=np.int64), np.asarray(right, dtype=np.int64)
    try:
        if lt.shape != (nr, ns) or rt.shape != (ns, nr):
            raise ValidationError("bimodule action tables have wrong shape")
        if not s_group.is_abelian():
            raise ValidationError("bimodule carrier must be abelian")
        add_s, add_r, mul_r = s_group.table, r_ring.add_table, r_ring.mul_table
        for r in range(nr):
            if not (lt[r][add_s] == add_s[np.ix_(lt[r], lt[r])]).all():
                raise ValidationError(f"left action of {r} is not additive")
            if not (rt[:, r][add_s] == add_s[np.ix_(rt[:, r], rt[:, r])]).all():
                raise ValidationError(f"right action of {r} is not additive")
        if not (lt[add_r] == add_s[lt[:, None, :], lt[None, :, :]]).all():
            raise ValidationError("left action is not additive in the ring argument")
        if not (rt[:, add_r] == add_s[rt[:, :, None], rt[:, None, :]]).all():
            raise ValidationError("right action is not additive in the ring argument")
        for r1 in range(nr):
            for r2 in range(nr):
                if not (lt[mul_r[r1, r2]] == lt[r1, lt[r2]]).all():
                    raise ValidationError(f"left action not multiplicative at ({r1}, {r2})")
                if not (rt[:, mul_r[r1, r2]] == rt[rt[:, r1], r2]).all():
                    raise ValidationError(f"right action not multiplicative at ({r1}, {r2})")
                if not (rt[lt[r1], r2] == lt[r1, rt[:, r2]]).all():
                    raise ValidationError(f"actions do not balance at ({r1}, {r2})")
    except ValidationError as exc:
        return str(exc), exc.witness
    return "ok"


def eager_coset_tables(index, table, maps):
    """(add, mul, closing) as the coset walk filled them, row by row into two
    n^2 tables, for the members of `index`, maps into the abelian group of
    `table` read through `maps`; None when a generator row has a member
    missing.  The walk must be a walk: rows that write past place n raise
    IndexError here, where the package refuses them first."""
    n = len(index.tables)
    keys = index.keys
    add = np.empty((n, n), dtype=_table_dtype(n))  # row p: sum row of the member add[p, 0]
    mul = np.empty_like(add)  # row p: the product row of that member
    add[0] = np.arange(n)
    mul[0] = 0
    reached = np.zeros(n, dtype=bool)
    reached[0] = True
    levels = []  # (blocks, product row of g) per generator g
    closing = []  # (g, (r - 1)g, rg) per generator g
    h, g = 1, 1  # rows 0..h-1 hold the members of H; g is the least member outside
    while h < n:
        rows = index.find_keys(np.concatenate((table[keys[g], keys], maps[g, keys])))
        if rows.min() < 0:
            return None
        row = rows[:n].astype(add.dtype, copy=False)
        first = int(row[0])
        r, last, x = 2, first, int(row[first])
        while not reached[x]:
            r, last, x = r + 1, x, int(row[x])
        closing.append((first, last, x))
        # (first row, rows) of t = jg plus cosets 0..j-1, for j = 1, 2, 4, ... below r
        blocks = [(j * h, min(j, r - j) * h)
                  for j in (1 << e for e in range((r - 1).bit_length()))]
        for lo, m in blocks:
            if lo > h:
                row = row[row]  # the sum row of t = (lo / h)g
            add[lo:lo + m] = row[add[:m]]
        levels.append((blocks, rows[n:]))
        if h * r < n:
            reached[add[h:h * r, 0]] = True
            g = int(reached.argmin())
        h *= r
    pos = np.argsort(add[:, 0])
    add = add[pos]
    flat = add.reshape(-1)
    wide = np.int64(n)
    for blocks, row in levels:
        for lo, m in blocks:
            if lo > blocks[0][0]:
                row = flat[shift + row]  # the product row of t = (lo / h)g
            shift = row * wide  # in int64, where n * n overflows the table dtype
            for s in _row_blocks(m, n):
                mul[lo + s.start:lo + s.stop] = flat[shift + mul[s]]
    return add, mul[pos], np.asarray(closing, dtype=np.int64).reshape(-1, 3)
