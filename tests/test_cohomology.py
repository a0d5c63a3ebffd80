"""Second cohomology: cocycle laws, both computation routes, transport maps."""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cocycle_oracles import oracle_coboundary_columns, oracle_equations
from cohomoring import ValidationError, cohomology2, current_budgets
from cohomoring.catalog import default_catalog, dihedral_extension
from cohomoring.cocycles import enumerate_z1
from cohomoring.cohomology2 import (
    TwoCocycle,
    coboundary_cocycle,
    coboundary_preimage,
    compute_h2,
    connecting_cocycle,
    h2_order,
    inflation,
    pushforward,
)
from cohomoring.extension import centralizer_extension, extension_from_cocycle
from cohomoring.groups import (
    _NARROW_FROM_ORDER,
    conjugation_action,
    enumerate_actions,
    inversion_action,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    trivial_action,
)
from cohomoring.linalg import _unique_rows, abelian_decomposition, action_matrices


def test_two_cocycle_validation():
    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    act = trivial_action(c2, c4)
    TwoCocycle(c2, c4, act, [[0, 0], [0, 1]])
    with pytest.raises(ValidationError):
        TwoCocycle(c2, c4, act, [[0, 1], [0, 1]])  # not normalized
    with pytest.raises(ValidationError):
        TwoCocycle(c2, c4, act, [[0, 0], [0, 4]])  # out of range
    c9 = make_cyclic(9)
    act9 = trivial_action(make_cyclic(3), c9)
    with pytest.raises(ValidationError):
        # fails the cocycle identity
        TwoCocycle(make_cyclic(3), c9, act9, [[0, 0, 0], [0, 1, 0], [0, 0, 0]])


def test_cocycle_abelian_operations():
    ext = dihedral_extension(3)
    f = ext.classifying_cocycle()
    assert f.add(f.neg()).is_zero()
    assert f.scaled(2).same_values(f.add(f))
    assert f.scaled(0).is_zero()
    assert f.scaled(-1).same_values(f.neg())


def test_coboundary_is_cocycle_and_reduces_to_zero():
    c4 = make_cyclic(4)
    c6 = make_cyclic(6)
    act = trivial_action(c4, c6)
    h2 = compute_h2(c4, c6, act)
    for chain in ([0, 1, 2, 3], [0, 5, 1, 4], [0, 0, 3, 0]):
        f = coboundary_cocycle(c4, c6, act, np.array(chain))
        assert h2.is_coboundary(f)
        w = coboundary_preimage(f)
        assert w is not None
        assert coboundary_cocycle(c4, c6, act, w).same_values(f)


def _preimage_cases():
    """(linear H^2, brute-force H^2 or None when it does not fit) for every
    action of a few small pair groups on small modules."""
    v4, _, _ = make_direct_product(make_cyclic(2), make_cyclic(2), name="V4")
    pairs = [(make_cyclic(2), make_cyclic(4)), (make_cyclic(3), make_cyclic(3)),
             (make_cyclic(4), make_cyclic(2)), (make_cyclic(2), v4),
             (v4, make_cyclic(2)), (make_cyclic(3), v4),
             (make_dihedral(3), make_cyclic(2)), (make_dihedral(3), make_cyclic(3))]
    cap = current_budgets().search_candidates
    cases = []
    for q, n in pairs:
        for action in enumerate_actions(q, n):
            brute = None
            if n.order ** ((q.order - 1) ** 2) <= cap:
                brute = compute_h2(q, n, action, method="bruteforce")
            cases.append((compute_h2(q, n, action, method="linear"), brute))
    return cases


_PREIMAGE_CASES = _preimage_cases()


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.data())
def test_coboundary_preimage_agrees_with_both_reductions(data):
    """f = (a random combination of class representatives) + delta(c) for a
    random normalized 1-cochain c: the generator search finds a preimage
    exactly when the linear reduction of f is zero, and exactly when the
    brute-force one is wherever it fits; every preimage has coboundary f."""
    lin, brute = data.draw(st.sampled_from(_PREIMAGE_CASES))
    q, n, action = lin.q_group, lin.n_group, lin.action
    coeffs = [data.draw(st.integers(0, f - 1)) for f in lin.invariant_factors]
    chain = [0] + [data.draw(st.integers(0, n.order - 1)) for _ in range(q.order - 1)]
    f = lin.rep_from_coeffs(coeffs).add(coboundary_cocycle(q, n, action, chain))
    found = coboundary_preimage(f)
    assert (found is not None) == (lin.reduce(f) == lin.zero())
    if brute is not None:
        assert (found is not None) == (brute.reduce(f) == brute.zero())
    if found is not None:
        assert coboundary_cocycle(q, n, action, found).same_values(f)


def test_trivial_action_cyclic_pairs_give_gcd():
    for m in (2, 3, 4, 6):
        for n in (2, 3, 4, 8, 12):
            qg = make_cyclic(m)
            ng = make_cyclic(n)
            h2 = compute_h2(qg, ng, trivial_action(qg, ng))
            assert h2.order == gcd(m, n), (m, n)


def test_klein_quotient_over_c2_has_eight_classes():
    v4, _, _ = make_direct_product(make_cyclic(2), make_cyclic(2), name="V4")
    c2 = make_cyclic(2)
    h2 = compute_h2(v4, c2, trivial_action(v4, c2))
    assert h2.order == 8
    assert sorted(h2.invariant_factors) == [2, 2, 2]
    seen = set()
    for coeffs, rep in h2.classes():
        assert h2.reduce(rep) == coeffs
        seen.add(coeffs)
    assert len(seen) == 8


def test_inverted_kernel_class_group():
    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    h2 = compute_h2(c2, c4, inversion_action(c2, c4))
    assert h2.invariant_factors == (2,)
    c3 = make_cyclic(3)
    h2b = compute_h2(c2, c3, inversion_action(c2, c3))
    assert h2b.order == 1


def test_linear_and_bruteforce_routes_agree():
    from cohomoring import current_budgets

    cap = current_budgets().search_candidates
    for q_ord in (2, 3, 4):
        qg = make_cyclic(q_ord)
        # the last kernel has the smallest order whose table is stored narrow
        for n_ord in (2, 3, 4, 6, _NARROW_FROM_ORDER):
            if n_ord ** ((q_ord - 1) ** 2) > cap:
                continue
            ng = make_cyclic(n_ord)
            for action in enumerate_actions(qg, ng):
                lin = compute_h2(qg, ng, action, method="linear")
                bru = compute_h2(qg, ng, action, method="bruteforce")
                assert lin.invariant_factors == bru.invariant_factors
                # each route may pick different generators; the reductions
                # must still be related by a group isomorphism
                factors = lin.invariant_factors
                mapping = {}
                reps = {}
                for coeffs, rep in lin.classes():
                    mapping[coeffs] = bru.reduce(rep)
                    reps[coeffs] = rep
                assert len(set(mapping.values())) == lin.order
                assert mapping[lin.zero()] == bru.zero()
                for a in mapping:
                    for b in mapping:
                        ab = tuple((x + y) % f for x, y, f in zip(a, b, factors))
                        want = tuple((x + y) % f for x, y, f
                                     in zip(mapping[a], mapping[b], factors))
                        assert mapping[ab] == want
                        assert bru.reduce(reps[a].add(reps[b])) == want


def _linear_cases():
    """(Q, N, action) of the 34 default-catalog extensions and of every
    action of C2, C3, C4, V4 and D3 on V4, C2 x C4, C4 and C6."""
    exts = [e.materialize() for e in default_catalog() if e.kind == "extension"]
    cases = [(ext.q_group, ext.n_group, ext.action) for ext in exts]
    c2, c4 = make_cyclic(2), make_cyclic(4)
    v4 = make_direct_product(c2, c2)[0]
    for q in (c2, make_cyclic(3), c4, v4, make_dihedral(3)):
        for n in (v4, make_direct_product(c2, c4)[0], c4, make_cyclic(6)):
            cases += [(q, n, action) for action in enumerate_actions(q, n)]
    return cases


def test_linear_system_matches_the_oracle_builders(monkeypatch):
    """`_h2_linear` hands `kernel_mod` the nonzero rows of the oracle's
    cocycle equations, as a set mod L, and `quotient_snf` the oracle's
    coboundary columns in kernel coordinates: kern.vinv, the inverse of
    kern.v mod L^2 with L > 1, is nonsingular, so the columns themselves are
    equal.  Every case here has L > 1."""
    seen = {}

    def spy(name):
        original = getattr(cohomology2, name)

        def recorded(matrix, *args):
            seen[name] = (matrix, original(matrix, *args))
            return seen[name][1]
        monkeypatch.setattr(cohomology2, name, recorded)

    spy("kernel_mod")
    spy("quotient_snf")
    cases = _linear_cases()
    assert len(cases) == 136
    for q, n, action in cases:
        compute_h2(q, n, action, method="linear")
        dec = abelian_decomposition(n)
        mats = action_matrices(action, dec)
        L = dec.exponent
        assert L > 1
        rows, kern = seen["kernel_mod"]
        want = oracle_equations(q, dec, mats) % L
        assert rows.shape[0] <= want.shape[0]
        assert np.array_equal(_unique_rows(rows[rows.any(axis=1)] % L),
                              _unique_rows(want[want.any(axis=1)]))
        lam = np.diag(np.tile(np.asarray(dec.factors, dtype=np.int64), (q.order - 1) ** 2))
        cols = kern.vinv @ np.concatenate([oracle_coboundary_columns(q, dec, mats), lam], axis=1)
        assert np.array_equal(seen["quotient_snf"][0], cols // kern.mu[:, None])


def test_h2_order_of_small_dihedral_groups():
    """|H^2(D(n), C(n))| for the middle group of `dihedral_extension(n)`."""
    got = {}
    for n in range(3, 13):
        ext = dihedral_extension(n)
        g, m, act = ext.g_group, ext.n_group, ext.g_action
        got[n] = h2_order(g, m, act, len(enumerate_z1(g, m, act)))
    assert got == {3: 3, 4: 16, 5: 5, 6: 24, 7: 7, 8: 32, 9: 9, 10: 40, 11: 11, 12: 48}


def test_reduce_is_additive():
    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    act = inversion_action(c2, c4)
    h2 = compute_h2(c2, c4, act)
    reps = dict(h2.classes())
    f = reps[(1,)]
    assert h2.reduce(f.add(f)) == (0,)
    g = f.add(coboundary_cocycle(c2, c4, act, np.array([0, 3])))
    assert h2.reduce(g) == (1,)


def test_reduce_rejects_foreign_cocycle():
    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    h2 = compute_h2(c2, c4, trivial_action(c2, c4))
    other = dihedral_extension(3).classifying_cocycle()
    with pytest.raises(ValidationError):
        h2.reduce(other)


def test_pushforward_by_equivariant_endo():
    ext = dihedral_extension(4)
    f = ext.classifying_cocycle()
    doubled = pushforward(f, [(2 * k) % 4 for k in range(4)])
    assert doubled.same_values(f.scaled(2))
    with pytest.raises(ValidationError):
        pushforward(f, [0, 1, 1, 0])  # not additive


def test_inflation_of_classifying_cocycle():
    ext = dihedral_extension(3)
    g_action = conjugation_action(ext.g_group, ext.i)
    f = ext.classifying_cocycle()
    up = inflation(f, ext.p, g_action)
    assert up.q_group is ext.g_group
    assert (up.values == f.values[np.ix_(ext.p.values, ext.p.values)]).all()
    h2g = compute_h2(ext.g_group, ext.n_group, g_action)
    # a split extension inflates to the zero class
    assert h2g.is_coboundary(up)


def test_nonsplit_inflation_dies_on_c4():
    # the middle group always splits over its own kernel copy
    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    action = trivial_action(c2, c4)
    h2 = compute_h2(c2, c4, action)
    rep = dict(h2.classes())[(1,)]
    ext = extension_from_cocycle(rep)
    g_action = conjugation_action(ext.g_group, ext.i)
    up = inflation(ext.classifying_cocycle(), ext.p, g_action)
    h2g = compute_h2(ext.g_group, ext.n_group, g_action)
    assert h2g.is_coboundary(up)


def test_connecting_cocycle_lift_independence():
    # the abelian product has a centralizer quotient of order 4, so the
    # obstruction admits many lifts
    prod, i, p = make_direct_product(make_cyclic(3), make_cyclic(4), name="C3xC4")
    from cohomoring.extension import build_extension

    ext = build_extension(i, p)
    cd = centralizer_extension(ext)
    q = ext.q_group
    pi = cd.pi
    c_grp = cd.c_sub.group
    # enumerate sections of pi and compare the obstruction class across lifts
    fibers = [np.flatnonzero(pi.values == t) for t in range(cd.qbar_group.order)]
    tau = np.zeros(q.order, dtype=np.int64)  # the zero crossed hom always maps in
    h2 = compute_h2(q, ext.n_group, ext.action)
    base = None
    count = 0
    for pick in range(min(int(np.prod([len(f) for f in fibers])), 16)):
        lift = []
        rem = pick
        ok = True
        for f in fibers:
            lift.append(int(f[rem % len(f)]))
            rem //= len(f)
        if lift[0] != 0:
            continue
        f = connecting_cocycle(q, tau, c_grp, pi, cd.n_in_c,
                               cd.q_action_on_c, ext.action, lift=lift)
        cls = h2.reduce(f)
        if base is None:
            base = cls
        assert cls == base
        count += 1
    assert count >= 2


def test_connecting_cocycle_rejects_bad_lift():
    ext = dihedral_extension(3)
    cd = centralizer_extension(ext)
    tau = np.zeros(ext.q_group.order, dtype=np.int64)
    with pytest.raises(ValidationError):
        connecting_cocycle(ext.q_group, tau, cd.c_sub.group, cd.pi, cd.n_in_c,
                           cd.q_action_on_c, ext.action,
                           lift=[1] * cd.qbar_group.order)


def test_methods_report_themselves():
    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    act = trivial_action(c2, c4)
    assert compute_h2(c2, c4, act, method="linear").method == "linear"
    assert compute_h2(c2, c4, act, method="bruteforce").method == "bruteforce"
    assert compute_h2(c2, c4, act, method="auto").method in ("linear", "bruteforce")
