"""The stacked search against its per-row route.

Every table that the generator-image search certifies reaches its consumers
as one [b, x] array, blocks joined and lexsorted.  `search_oracles` keeps
the route before that: one row per candidate tuple, `sorted(key=tuple)`,
filters one map at a time and `enumerate_z1` built from objects.  Both must
give the same tables in the same order, also with blocks so small that a
search joins many of them.
"""

import numpy as np
import pytest

import search_oracles as so
from cohomoring import groups
from cohomoring.catalog import default_catalog, dihedral_extension
from cohomoring.cocycles import _z1_table, cocycle_ring, enumerate_z1
from cohomoring.cohomology2 import coboundary_preimage, compute_h2, inflation
from cohomoring.endo_rings import (action_preserving_quotient_endos, equivariant_endo_ring,
                                   kernel_fixing_endos)
from cohomoring.extension import build_extension, centralizer_extension
from cohomoring.groups import (aut_group, enumerate_actions, find_isomorphism, make_cyclic,
                               make_dihedral, make_direct_product, make_semidirect_group)
from ring_oracles import relabelled_extension

CELLS = [None, 256]  # the default block size, and blocks of a few rows


def _catalog():
    return [e.materialize() for e in default_catalog()]


def _split_extensions():
    """N x| Q for every action of V4 on C3, C4 and V4 and of D3 on C3: two
    quotient generators that act apart, so that a map may commute with
    the action of one and not of the other."""
    c2 = make_cyclic(2)
    v4 = make_direct_product(c2, c2, name="V4")[0]
    pairs = [(v4, make_cyclic(3)), (v4, make_cyclic(4)), (v4, make_direct_product(c2, c2)[0]),
             (make_dihedral(3), make_cyclic(3))]
    return [build_extension(*make_semidirect_group(n, q, action)[1:])
            for q, n in pairs for action in enumerate_actions(q, n)]


def _layers(ext):
    """(source, module, action) of the four layers whose Z^1 the package
    enumerates: Q on N, G on N, and Q on the centralizer and the central
    quotient layer."""
    cd = centralizer_extension(ext)
    q = ext.q_group
    return [(q, ext.n_group, ext.action), (ext.g_group, ext.n_group, ext.g_action),
            (q, cd.c_sub.group, cd.q_action_on_c), (q, cd.qbar_group, cd.q_action_on_qbar)]


def _block_cells(monkeypatch, cells):
    if cells is not None:
        monkeypatch.setattr(groups, "_SEARCH_BLOCK_CELLS", cells)


def _rows(tables):
    return [np.asarray(v).tolist() for v in tables]


@pytest.mark.parametrize("cells", CELLS)
def test_z1_tables_match_the_per_row_route(monkeypatch, cells):
    """Z^1 of every layer of the default catalog, of D13-D24 (D3-D12 are
    catalog entries) and of the split extensions: the stacked table, the
    object view and the cocycle ring's values all list the per-row route's
    tables in its order."""
    _block_cells(monkeypatch, cells)
    joined = 0
    for ext in _catalog() + [dihedral_extension(n) for n in range(13, 25)] + _split_extensions():
        for source, module, action in _layers(ext):
            want = [z.values.tolist() for z in so.oracle_z1(source, module, action)]
            assert _z1_table(source, module, action).tolist() == want, ext.name
            assert _rows(z.values for z in enumerate_z1(source, module, action)) == want
            joined += len(list(groups._search_generator_images(
                source, module, [range(module.order)] * len(source.core_generators),
                action, gens=source.core_generators))) > 1
        ring = cocycle_ring(ext.g_group, ext.n_group, ext.g_action, ext.i)
        assert ring.values.tolist() == _z1_table(ext.g_group, ext.n_group, ext.g_action).tolist()
    assert cells is None or joined >= 20


@pytest.mark.parametrize("cells", CELLS)
def test_filtered_hom_tables_match_the_per_row_route(monkeypatch, cells):
    """On every default-catalog extension, on D13-D24 and on the split
    extensions: the kernel-fixing
    endomorphisms, the equivariant endomorphisms of the kernel, the
    action-preserving quotient endomorphisms and the automorphisms of the
    kernel and quotient (and of the middle group in the catalog), each
    filtered from one stacked table by one mask, are the per-row route's
    tables in its order."""
    _block_cells(monkeypatch, cells)
    cases = [(ext, True) for ext in _catalog()]
    cases += [(dihedral_extension(n), False) for n in range(13, 25)]
    cases += [(ext, False) for ext in _split_extensions()]
    for ext, small in cases:
        n, q = ext.n_group, ext.q_group
        assert kernel_fixing_endos(ext).tolist() == _rows(so.oracle_kernel_fixing_endos(ext))
        assert (equivariant_endo_ring(n, ext.action).values.tolist()
                == _rows(so.oracle_equivariant_endos(n, ext.action))), ext.name
        assert (action_preserving_quotient_endos(ext).tolist()
                == _rows(so.oracle_action_preserving_quotient_endos(ext))), ext.name
        for g in (n, q) + ((ext.g_group,) if small else ()):
            assert aut_group(g)[1].tolist() == _rows(so.oracle_automorphisms(g)), ext.name


@pytest.mark.parametrize("cells", CELLS)
def test_first_isomorphism_and_coboundary_witness_match_the_per_row_route(monkeypatch, cells):
    """The first hit of `find_isomorphism` from each middle group of the
    catalog onto a relabelled copy, and onto itself, and the witness of
    `coboundary_preimage` for each classifying cocycle and for each class
    representative of H^2(Q,N) inflated to the middle group (a coboundary
    or not), are the per-row route's first tables."""
    _block_cells(monkeypatch, cells)
    witnesses = 0
    for seed, ext in enumerate(_catalog()):
        g = ext.g_group
        for other in (g, relabelled_extension(ext, seed).g_group):
            assert find_isomorphism(g, other).values.tolist() == so.oracle_first_isomorphism(
                g, other).tolist(), ext.name
        h2 = compute_h2(ext.q_group, ext.n_group, ext.action)
        cocycles = [ext.classifying_cocycle()]
        cocycles += [inflation(rep, ext.p, ext.g_action) for rep in h2.class_reps]
        for f in cocycles:
            got, want = coboundary_preimage(f), so.oracle_coboundary_preimage(f)
            assert (got is None) == (want is None), ext.name
            if got is not None:
                assert got.tolist() == want.tolist(), ext.name
                witnesses += 1
    assert witnesses > 20
