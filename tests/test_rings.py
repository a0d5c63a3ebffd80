"""Finite rings: axioms, ideals, quotients, quasi-regular structure, JSON."""

import numpy as np
import pytest

from cohomoring import ValidationError, groups
from cohomoring.catalog import dihedral_extension
from cohomoring.endo_rings import fiber_endo_ring
from cohomoring.examples import dihedral_model_ring
from cohomoring.groups import find_isomorphism, make_cyclic
from cohomoring.rings import (
    BimoduleAction,
    FiniteRing,
    RingHom,
    check_ideal,
    is_square_zero_ideal,
    quasi_regular_group,
    quasi_regular_indices,
    quotient_ring,
    ring_from_json,
    ring_to_json,
    semidirect_ring,
    star_table,
    subring_from_indices,
    unit_group,
    zn_ring,
)


def test_zn_ring_structure():
    r = zn_ring(12)
    assert r.order == 12
    assert r.one == 1
    assert r.mul_table[3, 4] == 0
    assert r.add_table[7, 8] == 3
    assert zn_ring(1).order == 1


def test_ring_rejects_nonassociative_multiplication():
    # a bilinear but non-associative product on the Klein group:
    # e1*e1 = e2, e1*e2 = e1, e2*anything = 0, extended bilinearly
    klein = make_cyclic(2)
    from cohomoring.groups import make_direct_product

    v4, _, _ = make_direct_product(klein, make_cyclic(2))
    mul = np.array([[0, 0, 0, 0], [0, 2, 1, 3], [0, 0, 0, 0], [0, 2, 1, 3]])
    with pytest.raises(ValidationError):
        FiniteRing(v4.table, mul)


def test_ring_rejects_broken_distributivity():
    c4 = make_cyclic(4)
    mul = np.zeros((4, 4), dtype=np.int64)
    mul[1, 1] = 1  # 1*1 = 1 but 1*(1+1) = 0 != 1*1 + 1*1 = 2
    with pytest.raises(ValidationError):
        FiniteRing(c4.table, mul)


def test_zero_row_and_column_annihilate():
    r = zn_ring(9)
    assert not r.mul_table[0].any()
    assert not r.mul_table[:, 0].any()


def test_declared_one_is_checked():
    r = zn_ring(6)
    with pytest.raises(ValidationError):
        FiniteRing(r.add_table, r.mul_table, one=2)


def test_subring_of_even_residues():
    sub, vals = subring_from_indices(zn_ring(12), [0, 2, 4, 6, 8, 10])
    assert sub.order == 6
    assert vals.tolist() == [0, 2, 4, 6, 8, 10]
    assert sub.one is None  # no left identity among the even residues
    # operations transport: index arithmetic matches residue arithmetic
    for a in range(6):
        for b in range(6):
            assert vals[sub.add_table[a, b]] == (vals[a] + vals[b]) % 12
            assert vals[sub.mul_table[a, b]] == (vals[a] * vals[b]) % 12
    with pytest.raises(ValidationError):
        subring_from_indices(zn_ring(12), [0, 2, 3])  # not closed under product


def test_check_ideal_and_square_zero():
    r = zn_ring(12)
    arr = check_ideal(r, [0, 6])
    assert arr.tolist() == [0, 6]
    assert is_square_zero_ideal(r, arr)
    arr2 = check_ideal(r, [0, 4, 8])
    assert not is_square_zero_ideal(r, arr2)
    with pytest.raises(ValidationError):
        check_ideal(r, [0, 1])  # not additively closed
    with pytest.raises(ValidationError):
        check_ideal(r, [6])  # zero must be present


def test_quotient_ring_of_zn():
    r = zn_ring(12)
    quo, proj = quotient_ring(r, check_ideal(r, [0, 6]))
    assert quo.order == 6
    assert proj.is_surjective()
    assert quo.one == proj(1)
    # transported tables agree with mod-6 arithmetic through the projection
    for a in range(12):
        for b in range(12):
            assert proj(r.add_table[a, b]) == quo.add_table[proj(a), proj(b)]
            assert proj(r.mul_table[a, b]) == quo.mul_table[proj(a), proj(b)]
    quo2, proj2 = quotient_ring(r, check_ideal(r, [0, 4, 8]))
    assert quo2.order == 4
    assert proj2(5) == proj2(1)  # 5 - 1 = 4 lies in the ideal


def test_star_operation_and_quasi_regulars_of_z12():
    r = zn_ring(12)
    t = star_table(r)
    assert (t[0] == np.arange(12)).all()
    for a in range(12):
        for b in range(12):
            assert t[a, b] == (a + b + a * b) % 12
    assert quasi_regular_indices(r) == [0, 4, 6, 10]


def test_quasi_regular_group_is_group_and_matches_units():
    r = zn_ring(12)
    qr_group, qr_arr = quasi_regular_group(r)
    assert qr_group.order == 4
    u_group, u_arr = unit_group(r)
    assert u_group.order == 4
    assert sorted(((1 + x) % 12) for x in qr_arr.tolist()) == sorted(u_arr.tolist())
    # r -> 1 + r intertwines circle with multiplication
    pos = {int(u): k for k, u in enumerate(u_arr)}
    shift = [pos[(1 + int(x)) % 12] for x in qr_arr]
    t = star_table(r)
    for a in range(4):
        for b in range(4):
            circ = t[qr_arr[a], qr_arr[b]]
            prod = r.mul_table[u_arr[shift[a]], u_arr[shift[b]]]
            assert (1 + int(circ)) % 12 == int(prod)
    # both are the Klein group here
    assert qr_group.element_orders().max() == 2
    assert find_isomorphism(qr_group, u_group) is not None


def test_unit_group_requires_identity():
    sub, _ = subring_from_indices(zn_ring(12), [0, 2, 4, 6, 8, 10])
    with pytest.raises(ValidationError):
        unit_group(sub)


def test_quasi_regulars_of_nonunital_subring():
    sub, vals = subring_from_indices(zn_ring(12), [0, 2, 4, 6, 8, 10])
    qr = quasi_regular_indices(sub)
    assert [int(vals[k]) for k in qr] == [0, 4, 6, 10]
    grp, _ = quasi_regular_group(sub)
    assert grp.order == 4


def test_quasi_regular_group_of_nilpotent_ring():
    # on a square-zero ring every element is quasi-regular: a ° (-a) = 0
    c9 = make_cyclic(9)
    zero_mul = np.zeros((9, 9), dtype=np.int64)
    r = FiniteRing(c9.table, zero_mul, name="null9")
    assert quasi_regular_indices(r) == list(range(9))
    grp, _ = quasi_regular_group(r)
    assert grp.order == 9
    assert find_isomorphism(grp, c9) is not None


def test_ring_hom_validation():
    r12 = zn_ring(12)
    r6 = zn_ring(6)
    proj = RingHom(r12, r6, [k % 6 for k in range(12)])
    assert proj.is_surjective() and not proj.is_injective()
    with pytest.raises(ValidationError):
        # k -> k mod 3 into the mod-6 ring is not additive: 2 + 2 = 4 there
        RingHom(r12, r6, [k % 3 for k in range(12)])
    with pytest.raises(ValidationError):
        # doubling is additive on the mod-6 ring but not multiplicative
        RingHom(r6, r6, [(2 * k) % 6 for k in range(6)])


def test_bimodule_action_validation():
    r = zn_ring(3)
    s = make_cyclic(3)
    mul = np.array([[(a * b) % 3 for b in range(3)] for a in range(3)])
    act = BimoduleAction(r_ring=r, s_group=s, left=mul,
                         right=np.zeros((3, 3), dtype=np.int64))
    assert act.left.shape == (3, 3)
    bad_left = mul.copy()
    bad_left[2, 1] = 0
    with pytest.raises(ValidationError):
        BimoduleAction(r_ring=r, s_group=s, left=bad_left,
                       right=np.zeros((3, 3), dtype=np.int64))


def test_semidirect_ring_structure():
    r = zn_ring(3)
    s = make_cyclic(3)
    mul = np.array([[(a * b) % 3 for b in range(3)] for a in range(3)])
    act = BimoduleAction(r_ring=r, s_group=s, left=mul,
                         right=np.zeros((3, 3), dtype=np.int64))
    semi = semidirect_ring(act, name="S3R3")
    ring = semi.ring
    assert ring.order == 9
    assert ring.one is None
    # pairs multiply by acting on the carrier and multiplying ring parts
    for s1 in range(3):
        for r1 in range(3):
            for s2 in range(3):
                for r2 in range(3):
                    a = semi.pair_index(s1, r1)
                    b = semi.pair_index(s2, r2)
                    want_s = ((r1 * s2) % 3 + 0) % 3
                    want = semi.pair_index(want_s, (r1 * r2) % 3)
                    assert ring.mul_table[a, b] == want
    # the carrier embeds as a square-zero ideal
    arr = check_ideal(ring, semi.s_indices.tolist())
    assert is_square_zero_ideal(ring, arr)


def test_ring_json_round_trip():
    r = zn_ring(6)
    data = ring_to_json(r)
    back = ring_from_json(data)
    assert back.order == 6
    assert back.one == 1
    assert (back.add_table == r.add_table).all()
    assert (back.mul_table == r.mul_table).all()
    data["mul_table"][2][3] = 1
    with pytest.raises(ValidationError):
        ring_from_json(data)


def test_ring_json_nonunital():
    sub, _ = subring_from_indices(zn_ring(12), [0, 2, 4, 6, 8, 10])
    back = ring_from_json(ring_to_json(sub))
    assert back.one is None
    assert back.order == 6


def test_ring_range_check_runs_before_the_narrowing_cast():
    n = groups._NARROW_FROM_ORDER
    r = zn_ring(n)
    assert r.mul_table.dtype == groups._table_dtype(n) == np.int16
    mul = r.mul_table.astype(np.int64)
    mul[3, 5] += 65536  # wraps in int16 to the true product, so only the check can refuse it
    with pytest.raises(ValidationError, match="multiplication table entries out of range"):
        FiniteRing(r.add_table, mul, one=1)


def test_order_squared_tables_are_stored_in_the_table_dtype():
    model = dihedral_model_ring(24).ring
    fe = fiber_endo_ring(dihedral_extension(24))
    for ring in (model, fe.ring):
        dtype = groups._table_dtype(ring.order)
        assert dtype == np.int16
        assert ring.add_table is ring.add_group.table
        assert ring.add_table.dtype == ring.mul_table.dtype == dtype
        assert star_table(ring).dtype == dtype
    index, module = fe.cocycles.index, fe.ext.n_group
    sums = index.find_pairs(
        lambda rows: module.table[index.keys[rows, None, :], index.keys[None, :, :]])
    assert sums.dtype == groups._table_dtype(fe.ring.order)
    assert (sums == fe.ring.add_table).all()
