"""Acceptance gate: one test per acceptance criterion, each with its own
pass line and, where stated, a wall-clock bound."""

import itertools
import time
from dataclasses import replace

import numpy as np
import pytest

from cohomoring import BudgetExceeded, ValidationError, current_budgets
from cohomoring import groups
from cohomoring.catalog import default_catalog, dihedral_extension
from cohomoring.cocycles import CrossedHom, cocycle_ring, enumerate_z1
from cohomoring.cohomology2 import compute_h2, connecting_cocycle, inflation, pushforward
from cohomoring.endo_rings import fiber_endo_ring
from cohomoring.examples import dihedral_model_ring, dihedral_report, ring432_construct, ring432_report
from cohomoring.extension import (
    build_extension,
    centralizer_extension,
    extension_from_cocycle,
)
from cohomoring.groups import (
    FiniteGroup,
    TableIndex,
    conjugation_action,
    enumerate_actions,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    trivial_action,
)
from cohomoring.rings import (
    check_ideal,
    is_square_zero_ideal,
    quasi_regular_group,
    quasi_regular_indices,
    quotient_ring,
    star_table,
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


def _extensions():
    return [e.materialize() for e in default_catalog() if e.kind == "extension"]


def _brute_force_images(source, target, action=None):
    """Every generator-image tuple, in itertools.product order, whose table
    propagated along the BFS words sends each generator to its image and
    obeys the full pairwise law."""
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
            if groups._is_hom(source, target, vals):
                out.append(vals)
            continue
        try:
            CrossedHom(source, target, action, vals)
        except ValidationError:
            continue
        out.append(vals)
    return out


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
        fe.ring._validate()  # all triples rechecked explicitly
        g = ext.g_group
        act_g = conjugation_action(g, ext.i, on="group")
        zr = cocycle_ring(g, ext.n_group, act_g, ext.i)
        zr.ring._validate()  # the crossed-homomorphism ring too
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
    scan_budget = replace(budget, z1_generator_candidates=0)
    z1_cases = []
    for n in (3, 4, 5, 6, 12):
        ext = dihedral_extension(n)
        z1_cases.append((ext.q_group, ext.n_group, ext.action))
    for n in (3, 4):
        ext = dihedral_extension(n)
        z1_cases.append((ext.g_group, ext.n_group,
                         conjugation_action(ext.g_group, ext.i, on="group")))
    prod, i_a, p_b = make_direct_product(make_cyclic(3), make_cyclic(4), name="C3xC4")
    pext = build_extension(i_a, p_b)
    z1_cases.append((pext.q_group, pext.n_group, pext.action))
    for source, module, action in z1_cases:
        fast = enumerate_z1(source, module, action)
        slow = enumerate_z1(source, module, action, budget=scan_budget)
        assert [z.key() for z in fast] == [z.key() for z in slow]

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
    with pytest.raises(BudgetExceeded):
        TableIndex(np.zeros((1, 40), dtype=np.int64), range(40), 3)

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
        assert 2 <= total <= budget.delta_lift_scan
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
          f"instances, {len(z1_cases)} crossed-homomorphism instances, and "
          f"{lift_runs} obstruction lifts")


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
    act_g = conjugation_action(ext.g_group, ext.i, on="group")
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
