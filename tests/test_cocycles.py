"""Crossed homomorphisms: laws, enumeration routes, transport maps, the ring."""

import numpy as np
import pytest

from cohomoring import ValidationError
from cohomoring.catalog import dihedral_extension
from cohomoring.cocycles import (
    CrossedHom,
    cocycle_ring,
    enumerate_z1,
    inflate,
    post_compose,
    restrict_to_module,
    z1_add,
    z1_diamond,
    z1_neg,
    z1_zero,
)
from cohomoring.groups import (
    GroupHom,
    conjugation_action,
    inversion_action,
    make_cyclic,
    trivial_action,
)
from cocycle_oracles import _z1_full_scan


def _dihedral_layer(n):
    """Whole-group layer of the dihedral extension: G acts on its rotations."""
    ext = dihedral_extension(n)
    action = conjugation_action(ext.g_group, ext.i)
    return ext, action


def test_crossed_hom_law_is_enforced():
    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    act = inversion_action(c2, c4)
    CrossedHom(c2, c4, act, [0, 1])  # phi(x*x) = phi(e) = 0 = 1 + (x.1) = 1 - 1
    with pytest.raises(ValidationError):
        CrossedHom(c2, c4, act, [1, 0])  # identity must map to identity
    with pytest.raises(ValidationError):
        # under the trivial action the law is the plain hom law
        CrossedHom(c2, c4, trivial_action(c2, c4), [0, 1])


def test_trivial_action_crossed_homs_are_homs():
    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    zs = enumerate_z1(c2, c4, trivial_action(c2, c4))
    assert len(zs) == 2
    assert sorted(tuple(z.values.tolist()) for z in zs) == [(0, 0), (0, 2)]
    # the trivial group has one crossed hom, whatever its generator 0 is sent to
    c1 = make_cyclic(1)
    assert len(enumerate_z1(c1, c4, trivial_action(c1, c4))) == 1


def test_inversion_action_count():
    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    zs = enumerate_z1(c2, c4, inversion_action(c2, c4))
    # phi(x) can be any residue: phi(e) = phi(x) - phi(x) always holds
    assert len(zs) == 4


def test_generator_route_matches_full_scan():
    # kept to instances whose full scan |N|^|G| stays within its own budget
    cases = []
    for n in (3, 4):
        ext, action = _dihedral_layer(n)
        cases.append((ext.g_group, ext.n_group, action))
    for n in (3, 4, 6):
        ext = dihedral_extension(n)
        cases.append((ext.q_group, ext.n_group, ext.action))
    c3 = make_cyclic(3)
    c6 = make_cyclic(6)
    cases.append((c3, c6, trivial_action(c3, c6)))
    c1 = make_cyclic(1)
    cases.append((c1, c6, trivial_action(c1, c6)))
    for source, module, action in cases:
        fast = enumerate_z1(source, module, action)
        slow = _z1_full_scan(source, module, action)
        assert [z.values.tolist() for z in fast] == sorted(z.values.tolist() for z in slow)


def test_enumeration_is_sorted_and_zero_first():
    ext, action = _dihedral_layer(4)
    zs = enumerate_z1(ext.g_group, ext.n_group, action)
    assert not zs[0].values.any()
    keys = [z.key() for z in zs]
    assert keys == sorted(keys)


def test_abelian_group_structure():
    ext, action = _dihedral_layer(3)
    g, n = ext.g_group, ext.n_group
    zs = enumerate_z1(g, n, action)
    zero = z1_zero(g, n, action)
    for a in zs:
        assert z1_add(a, zero).key() == a.key()
        assert not z1_add(a, z1_neg(a)).values.any()
        for b in zs:
            assert z1_add(a, b).key() == z1_add(b, a).key()


def test_diamond_is_associative_and_distributes():
    ext, action = _dihedral_layer(3)
    g, n = ext.g_group, ext.n_group
    emb = ext.i
    zs = enumerate_z1(g, n, action)
    for a in zs:
        for b in zs:
            ab = z1_diamond(a, b, emb)
            for c in zs:
                assert z1_diamond(ab, c, emb).key() == z1_diamond(a, z1_diamond(b, c, emb), emb).key()
                lhs = z1_diamond(a, z1_add(b, c), emb)
                rhs = z1_add(z1_diamond(a, b, emb), z1_diamond(a, c, emb))
                assert lhs.key() == rhs.key()


def test_restrict_to_module_is_endo():
    ext, action = _dihedral_layer(4)
    zs = enumerate_z1(ext.g_group, ext.n_group, action)
    for z in zs:
        h = restrict_to_module(z, ext.i)
        assert h.source is ext.n_group and h.target is ext.n_group


def test_post_compose_requires_equivariance():
    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    act = inversion_action(c2, c4)
    z = enumerate_z1(c2, c4, act)[1]
    double = GroupHom(c4, c4, [0, 2, 0, 2])
    out = post_compose(z, double, act)
    assert (out.values == double.values[z.values]).all()
    with pytest.raises(ValidationError):
        # the identity of C4 does not intertwine inversion with the trivial action
        post_compose(z, GroupHom(c4, c4, [0, 1, 2, 3]), trivial_action(c2, c4))
    c2m = make_cyclic(2, name="C2 module")
    to_c2 = GroupHom(c4, c2m, [0, 1, 0, 1])
    out2 = post_compose(z, to_c2, trivial_action(c2, c2m))
    assert (out2.values == to_c2.values[z.values]).all()


def test_inflate_through_projection():
    ext = dihedral_extension(5)
    g_action = conjugation_action(ext.g_group, ext.i)
    for z in enumerate_z1(ext.q_group, ext.n_group, ext.action):
        up = inflate(z, ext.p, g_action)
        assert (up.values == z.values[ext.p.values]).all()


def test_inflate_requires_factoring_action():
    from cohomoring.groups import ActionTable

    c4 = make_cyclic(4)
    c2 = make_cyclic(2)
    proj = GroupHom(c4, c2, [0, 1, 0, 1])
    module = make_cyclic(5, name="module C5")
    z = enumerate_z1(c2, module, trivial_action(c2, module))[0]
    # a faithful action of C4 on C5 (x -> 2^a x) cannot factor through C2
    table = np.array([[(pow(2, a, 5) * x) % 5 for x in range(5)] for a in range(4)])
    faithful = ActionTable(c4, module, table)
    with pytest.raises(ValidationError):
        inflate(z, proj, faithful)


def test_cocycle_ring_structure():
    ext, action = _dihedral_layer(3)
    cr = cocycle_ring(ext.g_group, ext.n_group, action, ext.i)
    assert cr.ring.order == 9
    assert not cr.elements[0].values.any()
    assert cr.ring.one is None
    # locate is the inverse of the element listing
    for k, z in enumerate(cr.elements):
        assert cr.locate(z) == k
    foreign = z1_zero(ext.q_group, ext.n_group, ext.action)
    with pytest.raises(ValidationError):
        cr.locate(foreign)


def test_cocycle_ring_tables_match_operations():
    ext, action = _dihedral_layer(4)
    cr = cocycle_ring(ext.g_group, ext.n_group, action, ext.i)
    n = cr.ring.order
    for a in range(n):
        for b in range(n):
            s = z1_add(cr.elements[a], cr.elements[b])
            d = z1_diamond(cr.elements[a], cr.elements[b], ext.i)
            assert cr.ring.add_table[a, b] == cr.locate(s)
            assert cr.ring.mul_table[a, b] == cr.locate(d)
