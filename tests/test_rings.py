"""Finite rings: axioms, ideals, quotients, quasi-regular structure, JSON."""

import dataclasses
from functools import partial

import numpy as np
import pytest

from cohomoring import ValidationError, examples, groups
from cohomoring.catalog import dihedral_extension
from cohomoring.endo_rings import fiber_endo_ring
from cohomoring.examples import _coordinate_laws, dihedral_report, ring432_construct
from cohomoring.groups import TableIndex, find_isomorphism, make_cyclic
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
from cohomoring.verify import ExtensionData

from ring_oracles import (dihedral_model_ring, oracle_coordinate_laws, oracle_pair_model,
                          oracle_pair_rows, oracle_quotient_mul_table)


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


def test_quotient_table_matches_the_scatter_gather_oracle():
    cases = [(zn_ring(12), [0, 6]), (zn_ring(12), [0, 4, 8])]
    semi = ring432_construct()[0]
    # the zero ideal of a non-commutative ring: the quotient is the ring
    cases += [(semi.ring, semi.s_indices), (semi.ring, [0])]
    for n in (3, 4, 5, 6):
        fe = fiber_endo_ring(dihedral_extension(n))
        assert is_square_zero_ideal(fe.ring, fe.ideal_indices)
        cases.append((fe.ring, fe.ideal_indices))
    for ring, ideal in cases:
        quo, proj = quotient_ring(ring, ideal)
        want = oracle_quotient_mul_table(ring, proj.values, quo.order)
        assert (quo.mul_table == want).all(), ring.name
    # a subset that is not an ideal still fails check_ideal, with its text
    with pytest.raises(ValidationError, match="subset not closed under addition"):
        quotient_ring(zn_ring(12), [0, 1])
    with pytest.raises(ValidationError, match="does not absorb right multiplication"):
        quotient_ring(semi.ring, semi.r_indices)  # the embedded residues


def _relabelled(ring, u, v):
    """The same ring with the members u and v trading indices."""
    perm = np.arange(ring.order)
    perm[[u, v]] = [v, u]
    return _relabelled_by(ring, perm)


def _relabelled_by(ring, perm):
    """The same ring with new member j the old member perm[j]."""
    back = np.argsort(perm)
    return FiniteRing(back[ring.add_table[np.ix_(perm, perm)]],
                      back[ring.mul_table[np.ix_(perm, perm)]])


def test_coordinate_laws_match_the_full_table_oracle():
    semi, pairs, pos, rvals = ring432_construct()
    laws = _coordinate_laws(semi.ring, pairs, pos, rvals)
    assert laws == oracle_coordinate_laws(semi.ring, pairs, pos, rvals)
    assert laws == [(True, None), (True, None)]
    # a relabelled copy is a valid ring on which both laws fail
    for u, v in ((1, 7), (6, 12), (2, 431), (13, 50)):
        ring = _relabelled(semi.ring, u, v)
        laws = _coordinate_laws(ring, pairs, pos, rvals)
        assert laws == oracle_coordinate_laws(ring, pairs, pos, rvals), (u, v)
        assert all(not ok and wit is not None for ok, wit in laws), (u, v)


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


PAIR_MODEL_ROW = "fiber ring matches the mod-n pair model"


def _pair_model_row(report):
    (row,) = [c for c in report.checks if c.position == PAIR_MODEL_ROW]
    return row


def test_pair_model_row_matches_the_full_table_oracle():
    """The pair-model row, read off the two pair-formula rows, gives the
    verdict of comparing both tables of the model ring on every cell."""
    for n in range(3, 13):
        row = _pair_model_row(dihedral_report(n))
        want = oracle_pair_model(fiber_endo_ring(dihedral_extension(n)),
                                 dihedral_model_ring(n).ring, n)
        assert want and row.status == "pass", n


def _reindexed(fe, perm):
    """`fe` with its displacements reordered so that the member f(k,l) reads
    as perm[f(k,l)]; its ring, endomorphisms and everything the verifiers
    read stay as they are."""
    cring = fe.cocycles
    back = np.argsort(perm)
    elements = tuple(cring.elements[m] for m in back)
    index = TableIndex(cring.index.tables[back], cring.index.positions, cring.index.radix)
    return dataclasses.replace(
        fe, cocycles=dataclasses.replace(cring, elements=elements, index=index))


def _reindexed_data(perm, ext):
    """The `ExtensionData` of `ext` with its fiber ring `_reindexed` by perm."""
    data = ExtensionData(ext)
    data.fe = _reindexed(data.fe, perm)
    return data


def test_a_fiber_ring_off_the_pair_model_gives_the_oracle_verdict(monkeypatch):
    """On D3-D8 the pair-model row gives the verdict of the full-table
    compare with the model ring when the displacement indexing f(k,l) of
    the fiber ring is tampered, and the report is still built.  The tampers
    are those of the pair-formula row test: f read through the additive
    negation and two seeded permutations fixing 0, f(0,0) trading members
    with f(1,1) and f(1,2) with f(2,2), and f(k,l) read at (k + l^2, l) or
    at (k, l + k^2).  For prime n, f(k,l) read at (l s(l^-1 k), l) for l != 0,
    with s swapping 0 and 1, keeps the product formula and moves the sum,
    so neither row alone decides the match."""
    statuses = set()
    for n in range(3, 9):
        fe = fiber_endo_ring(dihedral_extension(n))
        f_index = _f_index(fe, n)
        model = dihedral_model_ring(n).ring
        rng = np.random.default_rng(n)
        cases = [np.arange(fe.size), np.argmin(fe.ring.add_table, axis=1)]
        cases += [np.concatenate([[0], 1 + rng.permutation(fe.size - 1)]) for _ in range(2)]
        for u, v in (((0, 0), (1, 1)), ((1, 2), (2, 2))):
            swap = np.arange(fe.size)
            swap[[f_index[u], f_index[v]]] = f_index[v], f_index[u]
            cases.append(swap)
        k, l = np.indices((n, n))
        reads = [f_index[(k + l * l) % n, l], f_index[k, (l + k * k) % n]]
        if n in (3, 5, 7):
            inv = np.array([0] + [pow(a, -1, n) for a in range(1, n)])
            swap = np.arange(n)
            swap[[0, 1]] = 1, 0
            reads.append(f_index[(l * swap[(inv[l] * k) % n]) % n, l])
            reads[-1][:, 0] = f_index[:, 0]
        for read in reads:
            shift = np.empty(fe.size, dtype=np.int64)
            shift[f_index] = read
            cases.append(shift)
        for perm in cases:
            monkeypatch.setattr(examples, "ExtensionData", partial(_reindexed_data, perm))
            report = dihedral_report(n)
            assert len(report.reports) == 2, n
            want = oracle_pair_model(_reindexed(fe, perm), model, n)
            assert _pair_model_row(report).status == ("pass" if want else "fail"), n
            statuses.add((_pair_model_row(report).status, report.ok))
    assert statuses == {("pass", True), ("fail", False)}


def _swapped(fe, u, v):
    """`fe` with the members u and v trading places in the f(k,l) indexing."""
    perm = np.arange(fe.size)
    perm[[u, v]] = v, u
    return _reindexed(fe, perm)


def _tampered_data(tamper, ext):
    """The `ExtensionData` of `ext` with its fiber ring `tamper`ed."""
    data = ExtensionData(ext)
    data.fe = tamper(data.fe)
    return data


@pytest.mark.parametrize(
    "tamper", [lambda fe: _swapped(fe, 1, fe.size - 1),
               lambda fe: dataclasses.replace(
                   fe, ring=FiniteRing(fe.ring.add_table, fe.ring.mul_table.T))],
    ids=["label swap", "transposed product"])
def test_a_pair_model_the_fiber_ring_does_not_match_gives_a_fail_row(monkeypatch, tamper):
    """A fiber ring whose f(k,l) indexing or product table is off the pair
    model fails the row, as the oracle says, and the report is still built."""
    n = 5
    monkeypatch.setattr(examples, "ExtensionData", partial(_tampered_data, tamper))
    report = dihedral_report(n)
    assert _pair_model_row(report).status == "fail"
    assert not report.ok
    assert len(report.reports) == 2
    tampered = tamper(fiber_endo_ring(dihedral_extension(n)))
    assert not oracle_pair_model(tampered, dihedral_model_ring(n).ring, n)


PAIR_ROWS = ("sum of f(k,l) and f(p,q) is f(k+p,l+q)",
             "product of f(k,l) and f(p,q) is f(lp,lq)")


def _f_index(fe, n):
    """[k, l]: the member of the fiber ring of D(n) with displacement k at
    the reflection and l at the rotation."""
    f_index = np.full((n, n), -1, dtype=np.int64)
    for m, psi in enumerate(fe.cocycles.elements):
        f_index[psi.values[1], psi.values[2]] = m
    return f_index


def test_pair_formula_rows_pass_without_the_all_pairs_compare(monkeypatch):
    """On D3-D12 the report's sum and product rows pass from the generator
    checks alone, as the compare on every index pair says."""
    def refused(*args):
        raise AssertionError("all-pairs compare on the success path")

    monkeypatch.setattr(examples, "_all_pairs_row", refused)
    for n in range(3, 13):
        report = dihedral_report(n)
        rows = [(c.status, c.witness) for c in report.checks if c.position in PAIR_ROWS]
        assert rows == [("pass", None)] * 2, n
        fe = fiber_endo_ring(dihedral_extension(n))
        assert oracle_pair_rows(fe.ring, _f_index(fe, n)) == [(True, None)] * 2, n


def _pair_product_ring(ring, f_index, product):
    """`ring` with its sum and the product f(x) f(y) = f(product(x, y)) on
    the pairs x = (k, l), y = (p, q)."""
    n = len(f_index)
    k, l = (a.reshape(-1, 1) for a in np.indices((n, n)))  # pair k*n + l
    members = f_index.reshape(-1)
    mul = np.empty_like(ring.mul_table)
    mul[np.ix_(members, members)] = f_index[product(k, l, k.T, l.T, n)]
    return FiniteRing(ring.add_table, mul)


def test_pair_formula_rows_give_the_full_compare_verdict_and_witness():
    """Where the formulas fail, the rows give the verdict and the first
    witness of the compare on every index pair.  Per n:
    - the fiber ring relabelled by its additive negation (the sum row holds,
      the product row does not) and by two seeded permutations fixing 0;
    - the true ring with f(0,0) and f(1,1) trading members, so that f(0,0)
      is not zero, and with f(1,2) and f(2,2) trading members, which keeps
      the products with f(1,0) and f(0,1) but not the sum;
    - f(k,l) read at (k + l^2, l) or at (k, l + k^2), which keeps the sum
      with f(1,0), respectively f(0,1), and moves the other;
    - the products (k,l)(p,q) = (0, lq) and (lp + kq, lq), valid rings on
      the same sum that keep the product with f(0,1), respectively f(1,0),
      and move the other."""
    patterns = set()
    for n in range(3, 13):
        fe = fiber_endo_ring(dihedral_extension(n))
        f_index = _f_index(fe, n)
        rng = np.random.default_rng(n)
        perms = [np.argmin(fe.ring.add_table, axis=1)]  # a + (-a) = 0 sits first
        perms += [np.concatenate([[0], 1 + rng.permutation(fe.size - 1)]) for _ in range(2)]
        cases = [(_relabelled_by(fe.ring, perm), f_index) for perm in perms]
        for u, v in (((0, 0), (1, 1)), ((1, 2), (2, 2))):
            swapped = f_index.copy()
            swapped[u], swapped[v] = f_index[v], f_index[u]
            cases.append((fe.ring, swapped))
        k, l = np.indices((n, n))
        cases += [(fe.ring, f_index[(k + l * l) % n, l]),
                  (fe.ring, f_index[k, (l + k * k) % n])]
        for product in (lambda k, l, p, q, n: (0 * (k + p), l * q % n),
                        lambda k, l, p, q, n: ((l * p + k * q) % n, l * q % n)):
            cases.append((_pair_product_ring(fe.ring, f_index, product), f_index))
        for ring, fi in cases:
            rows = examples._pair_formula_rows(ring, fi)
            assert rows == oracle_pair_rows(ring, fi), n
            patterns.add(tuple(ok for ok, _ in rows))
    assert patterns == {(True, False), (False, False)}
