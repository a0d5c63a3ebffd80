"""Full-row oracles for the ring tables of the crossed-homomorphism, fiber and
module endomorphism rings.

The package locates each sum and product by its values on the core
generators, under a proof that it is a member.  These builders do what it did
before: form every sum and product on the full value table and look it up
with full-row confirmation, so they prove nothing and assume nothing.
`oracle_kernel_fixing_endos` filters all of End(G), where the package
searches with the kernel images pinned, and `oracle_fiber_endos` searches
the quotient-identity endomorphisms directly, where the package integrates
crossed homomorphisms.
"""

import numpy as np

from cohomoring import ValidationError
from cohomoring.endo_rings import fiber_endo_ring
from cohomoring.groups import TableIndex, _search_generator_images, enumerate_endos
from cohomoring.rings import FiniteRing


def oracle_kernel_fixing_endos(ext):
    """Every endomorphism of the middle group, kept when it fixes the
    embedded kernel pointwise, in the order of `enumerate_endos`."""
    em = ext.i.values
    return [h.values for h in enumerate_endos(ext.g_group) if (h.values[em] == em).all()]


def oracle_fiber_endos(ext):
    """Every endomorphism of the middle group inducing the identity on the
    quotient, by a generator-image search of its own: each core generator s
    ranges over its fiber p^-1(p(s)), |N|^k candidates in all, the count the
    package's crossed-homomorphism search runs through alpha(s) = i(psi(s)) s.
    No budget gates it."""
    g = ext.g_group
    pv = ext.p.values
    gens = g.core_generators
    cands = [ext.fiber(int(pv[s])) for s in gens]
    return [vals for vals in _search_generator_images(g, g, cands, gens=gens)
            if (pv[vals] == pv).all()]


def full_row_cocycle_tables(stacked, source, module, embedding):
    """(add, dia) over the crossed homomorphisms `stacked`, -1 where a sum or
    product is not among them."""
    index = TableIndex(stacked, source.generators, module.order)
    tm = module.table
    moved = embedding.values[stacked]
    add = np.stack([index.find(tm[va[None, :], stacked]) for va in stacked])
    dia = np.stack([index.find(va[moved]) for va in stacked])
    return add, dia


def full_row_cocycle_outcome(elements, source, module, embedding):
    """What the full-row construction of the crossed-homomorphism ring gives:
    its (add, mul) tables as lists, or the text of the error it raises."""
    stacked = np.stack([e.values for e in elements])
    add, dia = full_row_cocycle_tables(stacked, source, module, embedding)
    missing = (add < 0) | (dia < 0)
    if missing.any():
        a = int(np.argmax(missing.any(axis=1)))
        return ("crossed homomorphisms not closed under the ring operations at "
                f"({a}, {int(np.argmax(missing[a]))})")
    try:
        FiniteRing(add, dia, one=None, name="Z1")
    except ValidationError as exc:
        return str(exc)
    return add.tolist(), dia.tolist()


def full_row_fiber_tables(fe):
    """(add2, mul2): the twisted sum alpha(x) x^-1 beta(x) and the twisted
    product on the endomorphism tables of a fiber ring, -1 where absent."""
    g = fe.ext.g_group
    tg, ginv = g.table, g.inverse
    arange = np.arange(g.order)
    stacked = np.stack(fe.endos)
    index = TableIndex(stacked, g.generators, g.order)
    ivals = fe.ext.i.values
    add2 = np.stack([index.find(tg[tg[va, ginv[arange]][None, :], stacked])
                     for va in stacked])
    mul2 = np.zeros_like(add2)
    for b in range(fe.size):
        moved = ivals[fe.displacement(b).values]
        mul2[:, b] = index.find(tg[tg[stacked[:, moved], ginv[moved][None, :]], arange[None, :]])
    return add2, mul2


def full_row_module_tables(mr):
    """(add, mul) of the equivariant endomorphisms of a module ring, -1 where
    absent."""
    stacked = np.stack(mr.elements)
    index = TableIndex(stacked, mr.module.generators, mr.module.order)
    tm = mr.module.table
    add = np.stack([index.find(tm[va[None, :], stacked]) for va in stacked])
    mul = np.stack([index.find(va[stacked]) for va in stacked])
    return add, mul


def assert_ring_tables_match_full_rows(ext):
    """The fiber ring of `ext`, its displacement ring and its module ring
    have exactly the tables of the full-row oracles."""
    fe = fiber_endo_ring(ext)
    cring = fe.cocycles
    stacked = np.stack([e.values for e in cring.elements])
    for got, want in zip((cring.ring.add_table, cring.ring.mul_table),
                         full_row_cocycle_tables(stacked, ext.g_group, ext.n_group, ext.i)):
        assert (got == want).all(), ext.name
    for got, want in zip((fe.ring.add_table, fe.ring.mul_table), full_row_fiber_tables(fe)):
        assert (got == want).all(), ext.name
    mr = fe.module_ring
    for got, want in zip((mr.ring.add_table, mr.ring.mul_table), full_row_module_tables(mr)):
        assert (got == want).all(), ext.name
    return fe
