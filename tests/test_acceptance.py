"""Acceptance gate: one test per acceptance criterion, each with its own
pass line and, where stated, a wall-clock bound."""

import itertools
import math
import time
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohomoring import ValidationError, current_budgets
from cohomoring import groups
from cohomoring.catalog import default_catalog, dihedral_extension
from cohomoring.cocycles import CrossedHom, cocycle_ring, enumerate_z1
from cohomoring.cohomology2 import (
    TwoCocycle,
    coboundary_cocycle,
    compute_h2,
    connecting_cocycle,
    inflation,
    pushforward,
)
from cohomoring.endo_rings import fiber_endo_ring
from cohomoring.examples import dihedral_model_ring, dihedral_report, ring432_construct, ring432_report
from cohomoring.extension import (
    build_extension,
    centralizer_extension,
    extension_from_cocycle,
)
from cohomoring.groups import (
    ActionTable,
    FiniteGroup,
    TableIndex,
    conjugation_action,
    enumerate_actions,
    inversion_action,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    trivial_action,
)
from cohomoring.rings import (
    FiniteRing,
    check_ideal,
    is_square_zero_ideal,
    quasi_regular_group,
    quasi_regular_indices,
    quotient_ring,
    star_table,
    subring_from_indices,
    unit_group,
    zn_ring,
)
from cohomoring.verify import (
    verify_aut_centralizer_sequence,
    verify_aut_five_term,
    verify_centralizer_sequence,
    verify_crossed_hom_sequence,
    verify_five_term,
    verify_qr_sequence,
)
from cocycle_oracles import _z1_full_scan
from table_oracles import old_crossed_hom_outcome, old_group_hom_outcome


def _extensions():
    return [e.materialize() for e in default_catalog() if e.kind == "extension"]


def _brute_force_images(source, target, action=None):
    """Every generator-image tuple, in itertools.product order, whose table
    propagated along the BFS words sends each generator to its image and
    obeys the full pairwise law of the old validators, which share no code
    with the search's certificate."""
    bfs = groups._bfs_words(source, source.generators)
    out = []
    for imgs in itertools.product(range(target.order), repeat=len(source.generators)):
        vals = np.zeros(source.order, dtype=np.int64)
        for elem, parent, gi in bfs:
            step = imgs[gi] if action is None else action.table[parent, imgs[gi]]
            vals[elem] = target.table[vals[parent], step]
        if vals[list(source.generators)].tolist() != list(imgs):
            continue
        if action is None:
            verdict = old_group_hom_outcome(source, target, vals)
        else:
            verdict = old_crossed_hom_outcome(source, target, action, vals)
        if verdict == "ok":
            out.append(vals)
    return out


# ------------------------------------------------------------ cubic oracles
# The exhaustive n^3 sweeps that the construction-time certificates replace,
# kept here to judge the same tables by a second route.


def _sweep_group_ok(table, gens) -> bool:
    """Identity at 0, latin rows and columns, every triple associative, and
    `gens` reaching every element."""
    t = np.asarray(table, dtype=np.int64)
    idx = np.arange(len(t))
    if not ((t[0] == idx).all() and (t[:, 0] == idx).all()):
        return False
    if not ((np.sort(t, axis=1) == idx).all() and (np.sort(t, axis=0) == idx[:, None]).all()):
        return False
    if not all((t[t[a]] == t[a][t]).all() for a in idx):
        return False
    reached, frontier = {0}, [0]
    while frontier:
        frontier = [int(t[a, s]) for a in frontier for s in gens if int(t[a, s]) not in reached]
        reached.update(frontier)
    return len(reached) == len(t)


def _sweep_ring_ok(add, mul, one=None) -> bool:
    """An abelian group under `add`, zero annihilating, and associativity and
    both distributive laws on every triple."""
    add, mul = np.asarray(add, dtype=np.int64), np.asarray(mul, dtype=np.int64)
    n = len(add)
    if not _sweep_group_ok(add, range(n)) or not (add == add.T).all():
        return False
    if mul.min() < 0 or mul.max() >= n or mul[0].any() or mul[:, 0].any():
        return False
    for a in range(n):
        if not (mul[mul[a]] == mul[a][mul]).all():
            return False
        if not (mul[a][add] == add[np.ix_(mul[a], mul[a])]).all():
            return False
        if not (mul[add[a]] == add[mul[a][None, :], mul]).all():
            return False
    idx = np.arange(n)
    return one is None or bool((mul[one] == idx).all() and (mul[:, one] == idx).all())


def _sweep_action_ok(actor, module, t) -> bool:
    """Identity acts trivially, and every row is a module automorphism
    composing with the actor's multiplication on every pair."""
    idx = np.arange(module.order)
    if t.min() < 0 or t.max() >= module.order or not (t[0] == idx).all():
        return False
    if not (np.sort(t, axis=1) == idx).all():
        return False
    mt = module.table
    for a in range(actor.order):
        if not (t[actor.table[a]] == t[a][t]).all():
            return False
        if not (t[a][mt] == mt[t[a][:, None], t[a][None, :]]).all():
            return False
    return True


def _sweep_cocycle_ok(q_group, n_group, action, v) -> bool:
    """Normalized, and x.f(y, z) + f(x, yz) = f(x, y) + f(xy, z) on every triple."""
    if v[0].any() or v[:, 0].any():
        return False
    add, tq = n_group.table, q_group.table
    for y in range(q_group.order):
        lhs = add[action.table[:, v[y]], v[:, tq[y]]]
        rhs = add[v[:, y][:, None], v[tq[:, y]]]
        if not (lhs == rhs).all():
            return False
    return True


def _certificate_verdict(build):
    """(accepted, error) of a constructor run, error None when accepted."""
    try:
        build()
    except ValidationError as exc:
        return False, exc
    return True, None


def _abelian_tables(moduli):
    """Addition table and coordinates of Z/m1 x ... x Z/mk, last factor fastest."""
    coords = np.array(list(itertools.product(*(range(m) for m in moduli))), dtype=np.int64)
    m = np.asarray(moduli, dtype=np.int64)
    weights = np.array([math.prod(moduli[i + 1:]) for i in range(len(moduli))], dtype=np.int64)
    add = ((coords[:, None, :] + coords[None, :, :]) % m) @ weights
    return add, coords, weights


def _cyclic_product(*orders):
    g = make_cyclic(orders[0])
    for k in orders[1:]:
        g = make_direct_product(g, make_cyclic(k))[0]
    return g


_C2, _C2XC4 = make_cyclic(2), _cyclic_product(2, 4)
_SMALL_GROUPS = [make_cyclic(n) for n in (1, 2, 3, 4, 5, 6, 8)] + \
    [make_dihedral(3), make_dihedral(4), _C2XC4] + \
    [_cyclic_product(*orders) for orders in ((2, 2), (3, 3), (2, 2, 2))]
_SMALL_RINGS = [zn_ring(n) for n in range(2, 10)] + \
    [subring_from_indices(zn_ring(12), [0, 2, 4, 6, 8, 10])[0],
     dihedral_model_ring(3).ring]
_SMALL_ACTIONS = [inversion_action(_C2, make_cyclic(n)) for n in (3, 4, 5, 6)] + \
    [conjugation_action(g, groups.identity_hom(g))
     for g in (make_dihedral(3), make_dihedral(4))] + \
    enumerate_actions(make_cyclic(3), _cyclic_product(2, 2)) + enumerate_actions(_C2, _C2XC4)
_ORACLE_SETTINGS = settings(derandomize=True, database=None, max_examples=150,
                            deadline=timedelta(seconds=2))


@_ORACLE_SETTINGS
@given(st.data())
def _group_certificate_matches_sweep(data):
    g = data.draw(st.sampled_from(_SMALL_GROUPS))
    t = g.table.copy()
    n = g.order
    switches = [(r1, r2, c1, c2) for r1, r2 in itertools.combinations(range(1, n), 2)
                for c1, c2 in itertools.combinations(range(1, n), 2)
                if t[r1, c1] == t[r2, c2] and t[r1, c2] == t[r2, c1]]
    if switches and data.draw(st.integers(0, 3)):
        # swap two entries in each of two rows: an intercalate switch keeps
        # the table latin with identity 0, so only associativity can fail
        r1, r2, c1, c2 = data.draw(st.sampled_from(switches))
        t[[r1, r2], c1], t[[r1, r2], c2] = t[[r1, r2], c2].copy(), t[[r1, r2], c1].copy()
    else:
        a1, b1, a2, b2 = (data.draw(st.integers(min(1, n - 1), n - 1)) for _ in range(4))
        t[a1, b1], t[a2, b2] = t[a2, b2], t[a1, b1]
    gens = list(range(n)) if data.draw(st.booleans()) else list(g.generators)
    accepted, exc = _certificate_verdict(lambda: FiniteGroup(t, gens))
    assert accepted == _sweep_group_ok(t, gens)
    if exc is not None and str(exc).startswith("associativity fails"):
        a, b, c = exc.witness
        assert t[t[a, b], c] != t[a, t[b, c]]


def _check_ring_verdict(add, mul, one=None):
    accepted, exc = _certificate_verdict(lambda: FiniteRing(add, mul, one=one))
    assert accepted == _sweep_ring_ok(add, mul, one)
    if exc is None or exc.witness is None:
        return accepted
    a, b, c = exc.witness
    message = str(exc)
    if message.startswith("left distributivity"):
        assert mul[a, add[b, c]] != add[mul[a, b], mul[a, c]]
    elif message.startswith("right distributivity"):
        assert mul[add[a, b], c] != add[mul[a, c], mul[b, c]]
    else:
        assert message.startswith("multiplication not associative")
        assert mul[mul[a, b], c] != mul[a, mul[b, c]]
    return accepted


@_ORACLE_SETTINGS
@given(st.sampled_from([(2,), (3,), (4,), (6,), (2, 2), (2, 4), (4, 2), (3, 3), (2, 2, 2)]),
       st.sampled_from(["both", "left", "right"]), st.integers(0, 2 ** 32 - 1))
def _product_certificate_matches_sweep(moduli, additive_in, seed):
    """Products on Z/m1 x ... x Z/mk from random structure constants: additive
    in both arguments (bilinear), or in the left or the right one only."""
    rng = np.random.default_rng(seed)
    add, coords, weights = _abelian_tables(moduli)
    m = np.asarray(moduli, dtype=np.int64)
    k, n = len(moduli), len(add)

    def killed_by(orders, count):
        """count random elements per order o, each with o * v = 0, about a
        quarter of them zero."""
        step = (m // np.gcd(m, np.asarray(orders)[:, None]))[:, None, :]
        vals = rng.integers(0, m, size=(len(orders), count, k)) * step % m
        return vals * (rng.random((len(orders), count, 1)) < 0.75)

    if additive_in == "both":
        consts = killed_by([math.gcd(a, b) for a in moduli for b in moduli], 1)
        prod = np.einsum("xi,yj,ijl->xyl", coords, coords, consts.reshape(k, k, k))
    else:
        # row j holds the image of generator j, as a function of the other side
        images = killed_by(moduli, n)
        images[:, 0] = 0
        spec = "yj,jxl->xyl" if additive_in == "right" else "xi,iyl->xyl"
        prod = np.einsum(spec, coords, images)
    _check_ring_verdict(add, (prod % m) @ weights)


@_ORACLE_SETTINGS
@given(st.data())
def _perturbed_ring_certificate_matches_sweep(data):
    ring = data.draw(st.sampled_from(_SMALL_RINGS))
    n = ring.order
    mul = ring.mul_table.copy()
    a, b = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    mul[a, b] = (mul[a, b] + data.draw(st.integers(1, n - 1))) % n
    _check_ring_verdict(ring.add_table, mul, ring.one)


@_ORACLE_SETTINGS
@given(st.data())
def _action_certificate_matches_sweep(data):
    if data.draw(st.booleans()):
        action = data.draw(st.sampled_from(_SMALL_ACTIONS))
        actor, module = action.actor, action.module
        t = action.table.copy()
        row = data.draw(st.integers(0, actor.order - 1))
        x, y = (data.draw(st.integers(0, module.order - 1)) for _ in range(2))
        t[row, x], t[row, y] = t[row, y], t[row, x]
    else:
        # C2 acting on C2 x C4 by an involution (u, v) -> (u + f(v), g(v)):
        # additive along (1, 0), an automorphism only when f and g are additive
        actor, module = _C2, _C2XC4
        g = data.draw(st.sampled_from([[0, 1, 2, 3], [0, 2, 1, 3], [0, 3, 2, 1], [0, 1, 3, 2]]))
        f = [0] + [data.draw(st.integers(0, 1)) for _ in range(3)]
        f = [f[min(v, g[v])] for v in range(4)]
        t = np.array([range(8), [(u + f[v]) % 2 * 4 + g[v] for u in range(2) for v in range(4)]])
    accepted, exc = _certificate_verdict(lambda: ActionTable(actor, module, t))
    assert accepted == _sweep_action_ok(actor, module, t)
    if exc is not None and str(exc).startswith("action law fails"):
        a, s, m = exc.witness
        assert t[actor.table[a, s], m] != t[a, t[s, m]]
    elif exc is not None and "automorphism" in str(exc):
        r = t[exc.witness]
        assert (r[module.table] != module.table[r[:, None], r[None, :]]).any()


_COCYCLE_CASES = [compute_h2(q, n, act) for q, n in ((make_cyclic(4), make_cyclic(2)),
                                                      (make_cyclic(3), make_cyclic(3)),
                                                      (make_dihedral(3), make_cyclic(2)),
                                                      (make_cyclic(3), _cyclic_product(2, 2)),
                                                      (_cyclic_product(2, 2), make_cyclic(4)),
                                                      (_C2, _C2XC4))
                  for act in enumerate_actions(q, n)]


@_ORACLE_SETTINGS
@given(st.data())
def _cocycle_certificate_matches_sweep(data):
    """A class representative plus a random coboundary, with one entry moved
    (away from the identity row and column, or onto it)."""
    h2 = data.draw(st.sampled_from(_COCYCLE_CASES))
    q, n, action = h2.q_group, h2.n_group, h2.action
    coeffs = [data.draw(st.integers(0, f - 1)) for f in h2.invariant_factors]
    chain = [0] + [data.draw(st.integers(0, n.order - 1)) for _ in range(q.order - 1)]
    v = h2.rep_from_coeffs(coeffs).add(coboundary_cocycle(q, n, action, chain)).values.copy()
    if data.draw(st.integers(0, 3)):
        low = 0 if data.draw(st.integers(0, 4)) == 0 else 1
        x, y = (data.draw(st.integers(low, q.order - 1)) for _ in range(2))
        v[x, y] = n.table[v[x, y], data.draw(st.integers(1, n.order - 1))]
    accepted, exc = _certificate_verdict(lambda: TwoCocycle(q, n, action, v))
    assert accepted == _sweep_cocycle_ok(q, n, action, v)
    if exc is not None and str(exc).startswith("cocycle identity fails"):
        x, s, z = exc.witness
        assert (n.table[action.table[x, v[s, z]], v[x, q.table[s, z]]]
                != n.table[v[x, s], v[q.table[x, s], z]])


def _product_parts(a, b):
    prod, i_a, p_b = make_direct_product(make_cyclic(a), make_cyclic(b),
                                         name=f"C{a}xC{b}")
    return i_a, p_b


def test_criterion_1_dihedral_family_formulas():
    start = time.monotonic()
    for n in (3, 4, 5, 6, 12):
        report = dihedral_report(n)
        assert report.ok, f"dihedral instance n={n} failed:\n" + "\n".join(report.lines())
        positions = [c.position for c in report.checks]
        assert any("sum of f(k,l)" in p for p in positions)
        assert any("product of f(k,l)" in p for p in positions)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"dihedral family took {elapsed:.2f}s, bound is 10s"
    print(f"[PASS] criterion 1: dihedral family n in (3,4,5,6,12), "
          f"all member pairs, {elapsed:.2f}s < 10s")


def test_criterion_2_432_ring():
    start = time.monotonic()
    report = ring432_report()
    assert report.ok, "\n".join(report.lines())
    positions = [c.position for c in report.checks]
    assert any("square-zero" in p for p in positions)
    assert any("sum" in p for p in positions)
    assert any("product" in p for p in positions)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"432-ring run took {elapsed:.2f}s, bound is 60s"
    print(f"[PASS] criterion 2: 432-element ring axioms, square-zero part and "
          f"both composition laws on all pairs, {elapsed:.2f}s < 60s")


def test_criterion_3_five_term_over_catalog():
    start = time.monotonic()
    exts = _extensions()
    assert len(exts) >= 12
    assert all(e.g_group.order <= 48 for e in exts)
    nonsplit = [e for e in exts if not e.is_split()]
    assert len(nonsplit) >= 2
    for ext in exts:
        rep = verify_five_term(ext)
        assert rep.ok, f"{ext.name}:\n" + "\n".join(rep.lines())
    elapsed = time.monotonic() - start
    assert elapsed < 300.0, f"catalog run took {elapsed:.2f}s, bound is 300s"
    print(f"[PASS] criterion 3: five-term ring sequence on {len(exts)} catalog "
          f"extensions ({len(nonsplit)} non-split), {elapsed:.2f}s < 300s")


def test_criterion_4_ring_axioms_bijection_star():
    checked = 0
    for ext in _extensions():
        fe = fiber_endo_ring(ext)
        if fe.ring.order > 256:
            continue
        assert _sweep_ring_ok(fe.ring.add_table, fe.ring.mul_table)  # every triple
        g = ext.g_group
        act_g = conjugation_action(g, ext.i)
        zr = cocycle_ring(g, ext.n_group, act_g, ext.i)
        assert _sweep_ring_ok(zr.ring.add_table, zr.ring.mul_table)  # that ring too
        # the displacement bijection intertwines both structures elementwise
        to_z1 = np.array([zr.locate(fe.displacement(k)) for k in range(fe.size)])
        assert len(set(to_z1.tolist())) == fe.size == zr.ring.order
        st = star_table(fe.ring)
        arange = np.arange(g.order)
        inv = g.inverse
        for a in range(fe.size):
            va = fe.endos[a]
            da = g.table[va, inv[arange]]
            for b in range(fe.size):
                vb = fe.endos[b]
                s = g.table[g.table[da, g.table[vb, inv[arange]]], arange]
                assert fe.ring.add_table[a, b] == fe.locate(s)
                p = g.table[da[g.table[vb, inv[arange]]], arange]
                assert fe.ring.mul_table[a, b] == fe.locate(p)
                assert to_z1[fe.ring.add_table[a, b]] == \
                    zr.ring.add_table[to_z1[a], to_z1[b]]
                assert to_z1[fe.ring.mul_table[a, b]] == \
                    zr.ring.mul_table[to_z1[a], to_z1[b]]
                assert st[a, b] == fe.locate(va[vb])
        checked += 1
    assert checked >= 10
    print(f"[PASS] criterion 4: ring axioms on all triples for both the "
          f"endomorphism and crossed-homomorphism rings, intertwining "
          f"bijection and star-equals-composition on all pairs, {checked} instances")


def test_criterion_5_quasi_regular_groups():
    rings = [zn_ring(n) for n in (2, 3, 4, 6, 8, 9, 12)]
    semi432 = ring432_construct()[0]
    rings.append(semi432.ring)
    model_rings = []
    for n in (3, 4, 5, 6, 12):
        mr = dihedral_model_ring(n)
        model_rings.append(mr)
        rings.append(mr.ring)
    fiber_pairs = []
    for ext in _extensions():
        fe = fiber_endo_ring(ext)
        rings.append(fe.ring)
        rings.append(fe.module_ring.ring)
        fiber_pairs.append((fe.ring, fe.ideal_indices))
    for ring in rings:
        grp, arr = quasi_regular_group(ring)  # closure and inverses validated
        assert grp.order == len(quasi_regular_indices(ring))
        if ring.one is not None:
            ugrp, u_arr = unit_group(ring)
            one = ring.one
            add = ring.add_table
            shifted = sorted(int(add[one, r]) for r in arr)
            assert shifted == sorted(int(u) for u in u_arr)
            st = star_table(ring)
            for a in arr:
                for b in arr:
                    assert add[one, st[a, b]] == ring.mul_table[add[one, a], add[one, b]]
    # the quasi-regular sequence over every available square-zero pair
    pairs = [(zn_ring(12), [0, 6]), (semi432.ring, semi432.s_indices.tolist())]
    pairs += [(mr.ring, mr.s_indices.tolist()) for mr in model_rings]
    pairs += [(ring, idx.tolist()) for ring, idx in fiber_pairs]
    for ring, ideal in pairs:
        arr = check_ideal(ring, ideal)
        assert is_square_zero_ideal(ring, arr)
        quo, proj = quotient_ring(ring, arr)
        rep = verify_qr_sequence(ring, arr, proj)
        assert rep.ok, "\n".join(rep.lines())
    print(f"[PASS] criterion 5: quasi-regular groups on {len(rings)} rings, "
          f"unit-group match on the unital ones, extension sequence on "
          f"{len(pairs)} square-zero pairs")


def test_criterion_6_remaining_sequences_exhaustive():
    exts = _extensions()
    for ext in exts:
        aut = verify_aut_five_term(ext)
        assert aut.ok, f"{ext.name}:\n" + "\n".join(aut.lines())
        dual = [c for c in aut.checks if "quasi-regular route" in c.position]
        assert dual and all(c.status == "pass" for c in dual)
        assert verify_centralizer_sequence(ext).ok, ext.name
        assert verify_aut_centralizer_sequence(ext).ok, ext.name
        assert verify_crossed_hom_sequence(ext).ok, ext.name
    print(f"[PASS] criterion 6: invertible five-term (with its quasi-regular "
          f"dual route), centralizer and crossed-homomorphism sequences on "
          f"{len(exts)} extensions")


def test_criterion_7_dual_route_oracles(monkeypatch):
    budget = current_budgets()
    # second cohomology: the linear route against the enumerative route
    h2_pairs = 0
    for q_ord in (2, 3, 4):
        qg = make_cyclic(q_ord)
        for n_ord in range(2, 13):
            if n_ord ** ((q_ord - 1) ** 2) > budget.h2_brute_candidates:
                continue
            ng = make_cyclic(n_ord)
            for action in enumerate_actions(qg, ng):
                lin = compute_h2(qg, ng, action, method="linear")
                bru = compute_h2(qg, ng, action, method="bruteforce")
                assert lin.invariant_factors == bru.invariant_factors
                factors = lin.invariant_factors
                mapping = {}
                for coeffs, rep in lin.classes():
                    mapping[coeffs] = bru.reduce(rep)
                assert len(set(mapping.values())) == lin.order
                assert mapping[lin.zero()] == bru.zero()
                for a in mapping:
                    for b in mapping:
                        ab = tuple((x + y) % f for x, y, f in zip(a, b, factors))
                        want = tuple((x + y) % f for x, y, f
                                     in zip(mapping[a], mapping[b], factors))
                        assert mapping[ab] == want
                h2_pairs += 1
    assert h2_pairs >= 20

    # crossed homomorphisms: generator propagation against the full scan
    z1_cases = []
    for n in (3, 4, 5, 6, 12):
        ext = dihedral_extension(n)
        z1_cases.append((ext.q_group, ext.n_group, ext.action))
    for n in (3, 4):
        ext = dihedral_extension(n)
        z1_cases.append((ext.g_group, ext.n_group,
                         conjugation_action(ext.g_group, ext.i)))
    prod, i_a, p_b = make_direct_product(make_cyclic(3), make_cyclic(4), name="C3xC4")
    pext = build_extension(i_a, p_b)
    z1_cases.append((pext.q_group, pext.n_group, pext.action))
    for source, module, action in z1_cases:
        fast = enumerate_z1(source, module, action)
        slow = _z1_full_scan(source, module, action)
        assert [z.values.tolist() for z in fast] == sorted(z.values.tolist() for z in slow)

    # the generator-image search against the pairwise laws on every candidate
    # tuple, with the default block size and with blocks of a row or two
    c1, c4 = make_cyclic(1), make_cyclic(4)
    search_cases = z1_cases + [(make_dihedral(3), make_dihedral(3), None),
                     (make_dihedral(4), make_dihedral(4), None),
                     (make_cyclic(2), c4, None),
                     (FiniteGroup(c4.table, [1, 1]), c4, None),
                     (c1, c4, None),
                     (c1, c4, trivial_action(c1, c4))]
    for cells in (groups._SEARCH_BLOCK_CELLS, 7):
        monkeypatch.setattr(groups, "_SEARCH_BLOCK_CELLS", cells)
        for source, target, action in search_cases:
            cands = [range(target.order)] * len(source.generators)
            found = groups._search_generator_images(source, target, cands, action)
            want = _brute_force_images(source, target, action)
            assert [v.tolist() for v in found] == [v.tolist() for v in want]
    monkeypatch.undo()

    # value-table lookups confirm the full row, not just the generator values
    fe = fiber_endo_ring(dihedral_extension(3))
    g, n = fe.ext.g_group, fe.ext.n_group
    for locate, member, source, target in (
            (fe.locate, fe.endos[1], g, g),
            (fe.module_ring.locate, fe.module_ring.elements[1], n, n),
            (lambda v: fe.cocycles.locate(CrossedHom(
                g, n, fe.cocycles.elements[0].action, v, validate=False)),
             fe.displacement(1).values, g, n)):
        assert locate(member) == 1
        off = max(set(range(source.order)) - set(source.generators))
        forged = member.copy()
        forged[off] = (forged[off] + 1) % target.order
        with pytest.raises(ValidationError):
            locate(forged)
    # 3^40 keys overflow int64 codes; the trie needs no code and finds the member
    wide = TableIndex(np.zeros((1, 40), dtype=np.int64), range(40), 3)
    assert wide.find(np.zeros(40, dtype=np.int64)) == 0
    assert wide.find(np.eye(40, dtype=np.int64)).tolist() == [-1] * 40

    # table certificates against the cubic sweeps: same verdict on random
    # small tables, and every reported witness is a real failing triple
    _group_certificate_matches_sweep()
    _product_certificate_matches_sweep()
    _perturbed_ring_certificate_matches_sweep()
    _action_certificate_matches_sweep()
    _cocycle_certificate_matches_sweep()

    # the obstruction map: class independent of the chosen lift
    lift_runs = 0
    for make in ((lambda: build_extension(*_product_parts(3, 4))),
                 (lambda: build_extension(*_product_parts(6, 2)))):
        ext = make()
        cd = centralizer_extension(ext)
        q = ext.q_group
        h2 = compute_h2(q, ext.n_group, ext.action)
        fibers = [np.flatnonzero(cd.pi.values == t)
                  for t in range(cd.qbar_group.order)]
        total = int(np.prod([len(f) for f in fibers[1:]])) if len(fibers) > 1 else 1
        assert 2 <= total <= 10_000  # every lift is scanned below
        taus = enumerate_z1(q, cd.qbar_group, cd.q_action_on_qbar)
        for tau in taus:
            base = None
            for pick in range(total):
                lift = [0]
                rem = pick
                for f in fibers[1:]:
                    lift.append(int(f[rem % len(f)]))
                    rem //= len(f)
                coc = connecting_cocycle(q, tau.values, cd.c_sub.group, cd.pi,
                                         cd.n_in_c, cd.q_action_on_c, ext.action,
                                         lift=lift)
                cls = h2.reduce(coc)
                if base is None:
                    base = cls
                assert cls == base
                lift_runs += 1
    assert lift_runs >= 30
    print(f"[PASS] criterion 7: dual-route agreement on {h2_pairs} cohomology "
          f"instances, {len(z1_cases)} crossed-homomorphism instances, "
          f"{lift_runs} obstruction lifts, and random group, ring and action tables")


def test_criterion_8_minimal_transgression_story():
    c2 = make_cyclic(2)
    c2n = make_cyclic(2, name="kernel C2")
    act = trivial_action(c2, c2n)
    h2 = compute_h2(c2, c2n, act)
    assert h2.invariant_factors == (2,)
    reps = dict(h2.classes())

    # the nonzero class is realized by the cyclic group of order 4
    ext = extension_from_cocycle(reps[(1,)], name="C4 over C2")
    assert not ext.is_split()
    assert max(ext.g_group.element_orders().tolist()) == 4
    assert h2.reduce(ext.classifying_cocycle()) == (1,)

    # the transgression of the identity is the classifying class, hence nonzero
    f_ext = ext.classifying_cocycle()
    fe = fiber_endo_ring(ext)
    identity_endo = None
    eta_classes = []
    for values in fe.module_ring.elements:
        cls = h2.reduce(pushforward(f_ext, values))
        eta_classes.append(cls)
        if (values == np.arange(ext.n_group.order)).all():
            identity_endo = cls
    assert identity_endo == (1,)
    # eta is injective on this instance
    assert len(set(eta_classes)) == len(eta_classes)

    # inflation kills every class of the pair group here
    act_g = conjugation_action(ext.g_group, ext.i)
    h2g = compute_h2(ext.g_group, ext.n_group, act_g)
    for coeffs, rep in h2.classes():
        assert h2g.is_coboundary(inflation(rep, ext.p, act_g))

    # split extensions transgress to zero everywhere
    split_checked = 0
    for other in _extensions():
        if not other.is_split():
            continue
        h2o = compute_h2(other.q_group, other.n_group, other.action)
        f_o = other.classifying_cocycle()
        feo = fiber_endo_ring(other)
        for values in feo.module_ring.elements:
            assert h2o.reduce(pushforward(f_o, values)) == h2o.zero()
        split_checked += 1
    assert split_checked >= 5
    print(f"[PASS] criterion 8: two-element story (class group Z/2, order-4 "
          f"realization, nonzero injective transgression, vanishing inflation) "
          f"and zero transgression on {split_checked} split extensions")


def test_criterion_9_dihedral_48():
    start = time.monotonic()
    report = dihedral_report(48)
    assert report.ok, "\n".join(report.lines())
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"dihedral instance n=48 took {elapsed:.2f}s, bound is 60s"
    print(f"[PASS] criterion 9: dihedral instance n=48, ring of 2304 members, "
          f"{elapsed:.2f}s < 60s")


def test_supplementary_structure_facts():
    # the dihedral instance of order 24: invertible members and the
    # kernel-and-quotient-fixing line
    ext = dihedral_extension(12)
    fe = fiber_endo_ring(ext)
    assert len(fe.aut_indices) == 48
    ideal = [int(k) for k in fe.ideal_indices]
    assert len(ideal) == 12
    # under composition the line is cyclic of order 12
    st = star_table(fe.ring)
    line = st[np.ix_(ideal, ideal)]
    assert sorted(set(line.reshape(-1).tolist())) == sorted(ideal)
    k_of = {idx: int(fe.displacement(idx).values[1]) for idx in ideal}
    for a in ideal:
        for b in ideal:
            assert k_of[int(line[ideal.index(a), ideal.index(b)])] == (k_of[a] + k_of[b]) % 12

    # split extensions restrict invertibles onto all quasi-regular kernel endos
    for other in _extensions():
        if not other.is_split():
            continue
        feo = fiber_endo_ring(other)
        rv = feo.res.values
        im_aut = {int(rv[k]) for k in feo.aut_indices}
        assert im_aut == set(quasi_regular_indices(feo.module_ring.ring))

    # dihedral instances: restriction is onto the whole kernel endo ring
    for n in (3, 4, 5, 6, 12):
        fe_n = fiber_endo_ring(dihedral_extension(n))
        assert {int(v) for v in fe_n.res.values} == set(range(fe_n.module_ring.ring.order))
    print("[PASS] supplementary: order-24 dihedral invertible count 48, "
          "cyclic fixing line of order 12, split restriction surjectivity")
