"""The per-row route of the generator-image search, as it ran before the
search yielded whole blocks and its consumers kept one stacked table.

`row_search` propagates and certifies one candidate tuple at a time, in
`itertools.product` order, and yields each certified value table as its own
row; the consumers below sort those rows with `sorted(key=tuple)` and filter
them one map at a time, each on every element where the package reads core
generators.  `oracle_z1` builds `CrossedHom` objects and orders them by
their value tables, as `enumerate_z1` did.  No budget gates any of them.
"""

import itertools

import numpy as np

from cohomoring.cocycles import CrossedHom
from cohomoring.groups import _bfs_words, _hom_rows, _proved


def row_search(source, target, cands, action=None, offset=None, gens=None):
    """Each value table phi with phi(gens[i]) in cands[i] that the
    generator-image search certifies, one row per candidate tuple, in
    `itertools.product` order."""
    gens = tuple(int(s) for s in (source.generators if gens is None else gens))
    words = _bfs_words(source, gens)
    tt = target.table
    for imgs in itertools.product(*cands):
        vals = np.zeros(source.order, dtype=np.int64)
        for elem, parent, gi in words:
            step = imgs[gi] if action is None else action.table[parent, imgs[gi]]
            vals[elem] = tt[vals[parent], step]
            if offset is not None:
                vals[elem] = tt[vals[elem], target.inverse[offset[parent, gens[gi]]]]
        kept = all(vals[s] == img for s, img in zip(gens, imgs))
        if kept and _hom_rows(source, target, vals[None], action, offset)[0]:
            yield vals


def sorted_rows(rows):
    return sorted(rows, key=lambda vals: tuple(vals.tolist()))


def oracle_z1(source, module, action):
    """`enumerate_z1` as objects: each found crossed homomorphism built as a
    `CrossedHom`, then ordered by its value table."""
    cands = [range(module.order)] * len(source.core_generators)
    found = [_proved(CrossedHom, source=source, module=module, action=action, values=vals)
             for vals in row_search(source, module, cands, action, gens=source.core_generators)]
    return sorted(found, key=lambda z: tuple(z.values.tolist()))


def oracle_endos(g):
    """Every endomorphism of g, each core generator ranging over the elements
    whose order divides its own."""
    orders = g.element_orders()
    gens = g.core_generators
    cands = [np.flatnonzero(orders[s] % orders == 0) for s in gens]
    return sorted_rows(row_search(g, g, cands, gens=gens))


def oracle_equivariant_endos(module, action):
    act = action.table
    return [v for v in oracle_endos(module) if (v[act] == act[:, v]).all()]


def oracle_action_preserving_quotient_endos(ext):
    act = ext.action.table
    return [v for v in oracle_endos(ext.q_group) if (act[v] == act).all()]


def oracle_automorphisms(g):
    """The value tuples of the automorphisms of g, as `aut_group` listed them."""
    return sorted(tuple(v.tolist()) for v in oracle_endos(g) if len(set(v.tolist())) == g.order)


def oracle_kernel_fixing_endos(ext):
    g = ext.g_group
    kernel = [int(ext.i.values[n]) for n in ext.n_group.core_generators]
    lifts = [int(ext.section[s]) for s in ext.q_group.core_generators]
    orders = g.element_orders()
    cands = [[x] for x in kernel] + [np.flatnonzero(orders[u] % orders == 0) for u in lifts]
    return sorted_rows(row_search(g, g, cands, gens=kernel + lifts))


def oracle_first_isomorphism(a, b):
    """The value table of the first bijective homomorphism a -> b in the
    sorted rows, each core generator of a ranging over the elements of b of
    its order; None when there is none."""
    orders_a, orders_b = a.element_orders(), b.element_orders()
    gens = a.core_generators
    cands = [np.flatnonzero(orders_b == orders_a[s]) for s in gens]
    for vals in sorted_rows(row_search(a, b, cands, gens=gens)):
        if len(set(vals.tolist())) == b.order:
            return vals
    return None


def oracle_coboundary_preimage(f):
    """The first cochain, in candidate order, whose coboundary is f."""
    g, n = f.q_group, f.n_group
    cands = [range(n.order)] * len(g.core_generators)
    return next(row_search(g, n, cands, f.action, offset=f.values, gens=g.core_generators),
                None)
