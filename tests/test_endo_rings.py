"""Endomorphism rings of extensions: twisted operations, ideals, restrictions."""

from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohomoring import ValidationError, endo_rings
from cohomoring.catalog import default_catalog, dihedral_extension
from cohomoring.cocycles import CocycleRing, CrossedHom, cocycle_ring, enumerate_z1
from cohomoring.endo_rings import (
    action_preserving_quotient_endos,
    centralizer_displacements,
    endos_from_centralizer_displacements,
    equivariant_endo_ring,
    fiber_endo_ring,
    induced_quotient_endos,
    kernel_fixing_endos,
    quotient_endo_displacements,
    quotient_endos_from_displacements,
)
from cohomoring.extension import build_extension, centralizer_extension
from cohomoring.groups import (
    GroupHom,
    TableIndex,
    enumerate_actions,
    enumerate_homs,
    inversion_action,
    make_cyclic,
    make_direct_product,
    make_semidirect_group,
    trivial_action,
)
from cohomoring.rings import FiniteRing, quasi_regular_indices
from cohomoring.verify import verify_all
from ring_oracles import (
    assert_ring_tables_match_full_rows,
    full_row_cocycle_outcome,
    oracle_centralizer_displacement,
    oracle_endo_from_centralizer_displacement,
    oracle_fiber_endos,
    oracle_induced_quotient_endo,
    oracle_kernel_fixing_endos,
    oracle_quotient_endo_displacement,
    oracle_quotient_endo_from_displacement,
)


def _product_extension():
    prod, i, p = make_direct_product(make_cyclic(3), make_cyclic(4), name="C3xC4")
    return build_extension(i, p)


def split_v4_by_a4():
    """The two split extensions of A4 by V4 whose action factors through
    A4 -> C3, one per nontrivial action (G of order 48)."""
    v4 = make_direct_product(make_cyclic(2), make_cyclic(2))[0]
    c3 = make_cyclic(3)
    rotate = [a for a in enumerate_actions(c3, v4) if not a.is_trivial()][0]
    a4 = make_semidirect_group(v4, c3, rotate, name="A4")[0]
    out = []
    for k, action in enumerate(a for a in enumerate_actions(a4, v4) if not a.is_trivial()):
        _, i, p = make_semidirect_group(v4, a4, action, name="V4:A4")
        out.append(build_extension(i, p, name=f"V4 by A4, action {k}, split"))
    return out


def test_equivariant_endo_ring_of_cyclic():
    c6 = make_cyclic(6)
    c1 = make_cyclic(1)
    mr = equivariant_endo_ring(c6, trivial_action(c1, c6))
    # endomorphisms of C6 are the six multiplication maps
    assert mr.ring.order == 6
    assert not mr.elements[0].any()
    assert mr.ring.one is not None
    one = mr.elements[mr.ring.one]
    assert (one == np.arange(6)).all()
    # locate round-trips and rejects non-endomorphisms
    for k, vals in enumerate(mr.elements):
        assert mr.locate(vals) == k
    with pytest.raises(ValidationError):
        mr.locate([0, 1, 1, 0, 0, 0])


def test_equivariant_constraint_filters_endos():
    c2 = make_cyclic(2)
    c8 = make_cyclic(8)
    full = equivariant_endo_ring(c8, trivial_action(c2, c8))
    inv = equivariant_endo_ring(c8, inversion_action(c2, c8))
    # inversion commutes with every multiplication map, so the two agree
    assert full.ring.order == inv.ring.order == 8
    v4, _, _ = make_direct_product(make_cyclic(2), make_cyclic(2), name="V4")
    c1 = make_cyclic(1)
    vr = equivariant_endo_ring(v4, trivial_action(c1, v4))
    # End(C2 x C2) is the ring of 2x2 matrices over the field with 2 elements
    assert vr.ring.order == 16


def test_fiber_endo_ring_sizes_on_dihedral():
    for n in (3, 4, 5):
        ext = dihedral_extension(n)
        fe = fiber_endo_ring(ext)
        assert fe.ring.order == n * n
        assert len(fe.ideal_indices) == n
        assert len(fe.aut_indices) == n * len([k for k in range(n) if gcd(k, n) == 1])
        assert fe.module_ring.ring.order == n


def test_identity_endo_is_ring_zero():
    ext = dihedral_extension(4)
    fe = fiber_endo_ring(ext)
    assert (fe.endos[0] == np.arange(ext.g_group.order)).all()
    assert not fe.displacement(0).values.any()
    # ring zero of a finite ring always sits at index 0
    assert (fe.ring.add_table[0] == np.arange(fe.ring.order)).all()


def test_members_are_exactly_quotient_identity_endos():
    ext = dihedral_extension(3)
    fe = fiber_endo_ring(ext)
    g = ext.g_group
    for vals in fe.endos:
        GroupHom(g, g, vals)  # is an endomorphism
        assert (ext.p.values[vals] == ext.p.values).all()
    # count against an independent generator-image enumeration
    from cohomoring.groups import enumerate_endos

    direct = [h for h in enumerate_endos(g)
              if (ext.p.values[h.values] == ext.p.values).all()]
    assert len(direct) == fe.ring.order


def test_twisted_sum_and_product_against_definitions():
    ext = dihedral_extension(4)
    fe = fiber_endo_ring(ext)
    g = ext.g_group
    arange = np.arange(g.order)
    inv = g.inverse
    for a in range(fe.size):
        va = fe.endos[a]
        da = g.table[va, inv[arange]]  # displacement of a on the whole group
        for b in range(fe.size):
            vb = fe.endos[b]
            # twisted sum: apply both displacements, then the element
            s = g.table[g.table[da, g.table[vb, inv[arange]]], arange]
            assert fe.ring.add_table[a, b] == fe.locate(s)
            # twisted product: displacement of a evaluated on displacement of b
            p = g.table[da[g.table[vb, inv[arange]]], arange]
            assert fe.ring.mul_table[a, b] == fe.locate(p)


def test_ideal_members_fix_kernel_and_square_to_zero():
    ext = dihedral_extension(6)
    fe = fiber_endo_ring(ext)
    em = ext.i.values
    for k in fe.ideal_indices:
        assert (fe.endos[k][em] == em).all()
    ideal = set(int(k) for k in fe.ideal_indices)
    non_ideal = [k for k in range(fe.size) if k not in ideal]
    for k in non_ideal:
        assert not (fe.endos[k][em] == em).all()
    for a in fe.ideal_indices:
        for b in fe.ideal_indices:
            assert fe.ring.mul_table[a, b] == 0


def test_fiber_endo_ring_looks_members_up_as_one_stack(monkeypatch):
    """`fiber_endo_ring` makes as many `TableIndex.find` calls on D3 as on
    D12: the kernel restrictions of all members are located at once."""
    calls = []
    real = TableIndex.find

    def counting(self, rows):
        calls.append(1)
        return real(self, rows)

    monkeypatch.setattr(TableIndex, "find", counting)
    counts, sizes = [], []
    for n in (3, 12):
        calls.clear()
        sizes.append(fiber_endo_ring(dihedral_extension(n)).size)
        counts.append(len(calls))
    assert sizes == [9, 144]
    assert counts[0] == counts[1], counts


def test_invertibles_are_quasi_regulars_and_automorphisms():
    ext = dihedral_extension(6)
    fe = fiber_endo_ring(ext)
    assert sorted(int(k) for k in fe.aut_indices) == quasi_regular_indices(fe.ring)
    g = ext.g_group
    for k in fe.aut_indices:
        assert len(set(fe.endos[k].tolist())) == g.order
    others = set(range(fe.size)) - set(int(k) for k in fe.aut_indices)
    for k in others:
        assert len(set(fe.endos[k].tolist())) < g.order


def test_restriction_is_ring_hom_into_module_ring():
    ext = dihedral_extension(5)
    fe = fiber_endo_ring(ext)
    res = fe.res
    assert res.source is fe.ring and res.target is fe.module_ring.ring
    n = ext.n_group
    arange = np.arange(n.order)
    for k in range(fe.size):
        # res carries the displacement; the plain restriction is shifted by
        # the identity: alpha(m) = psi(m) + m on the kernel
        psi_on_n = fe.module_ring.elements[int(res.values[k])]
        disp = fe.displacement(k).values[ext.i.values]
        assert (psi_on_n == disp).all()
        plain = fe.restriction_values(k)
        assert (plain == n.table[psi_on_n, arange]).all()
        assert fe.restriction_index(k) == fe.module_ring.locate(plain)


def test_restriction_kernel_is_the_ideal():
    ext = dihedral_extension(4)
    fe = fiber_endo_ring(ext)
    # the identity restriction sits at the module ring zero under the shift
    zero_hits = [k for k in range(fe.size) if int(fe.res.values[k]) == 0]
    assert sorted(zero_hits) == sorted(int(k) for k in fe.ideal_indices)


def test_kernel_fixing_endos_monoid():
    ext = dihedral_extension(3)
    kf = kernel_fixing_endos(ext)
    em = ext.i.values
    keys = set()
    for vals in kf:
        assert (vals[em] == em).all()
        keys.add(vals.tobytes())
    # closed under composition
    for a in kf:
        for b in kf:
            assert a[b].tobytes() in keys


def test_kernel_fixing_endos_match_the_end_g_filter():
    exts = [e.materialize() for e in default_catalog() if e.kind == "extension"]
    exts += [dihedral_extension(n) for n in range(3, 13)]
    for ext in exts:
        got = [v.tolist() for v in kernel_fixing_endos(ext)]
        assert got == [v.tolist() for v in oracle_kernel_fixing_endos(ext)], ext.name


def test_split_v4_by_a4_fits_the_default_budgets():
    # the End(G) filter needs 2162688 candidates here, above
    # endo_scan_candidates; the search with the kernel pinned does not
    exts = split_v4_by_a4()
    assert len(exts) == 2
    for ext in exts:
        kf = kernel_fixing_endos(ext)
        assert len(kf) == 256, ext.name
        em = ext.i.values
        for vals in kf:
            GroupHom(ext.g_group, ext.g_group, vals)
            assert (vals[em] == em).all()
        reports = verify_all(ext)
        assert all(r.ok for r in reports), ext.name
        statuses = {c.status for r in reports for c in r.checks}
        assert statuses == {"pass"}, ext.name


def test_action_preserving_quotient_endos_monoid():
    ext = _product_extension()
    ap = action_preserving_quotient_endos(ext)
    act = ext.action.table
    keys = {vals.tobytes() for vals in ap}
    assert np.arange(ext.q_group.order).tobytes() in keys
    for vals in ap:
        assert (act[vals] == act).all()
        for other in ap:
            assert vals[other].tobytes() in keys


def test_centralizer_displacement_round_trip():
    ext = _product_extension()
    cd = centralizer_extension(ext)
    endos = np.stack(kernel_fixing_endos(ext))
    phis = centralizer_displacements(cd, endos)
    for phi in phis:
        CrossedHom(ext.q_group, cd.c_sub.group, cd.q_action_on_c, phi)
    assert (endos_from_centralizer_displacements(cd, phis) == endos).all()


def test_induced_quotient_endo_and_displacement_round_trip():
    ext = _product_extension()
    cd = centralizer_extension(ext)
    down = induced_quotient_endos(ext, kernel_fixing_endos(ext))
    for vals in down:
        GroupHom(ext.q_group, ext.q_group, vals)
    taus = quotient_endo_displacements(cd, down)
    assert (quotient_endos_from_displacements(cd, taus) == down).all()


def test_stacked_maps_take_empty_stacks():
    ext = _product_extension()
    cd = centralizer_extension(ext)
    q, g = ext.q_group.order, ext.g_group.order
    for stacked, width in ((centralizer_displacements(cd, []), q),
                           (endos_from_centralizer_displacements(cd, []), g),
                           (induced_quotient_endos(ext, []), q),
                           (quotient_endo_displacements(cd, []), q),
                           (quotient_endos_from_displacements(cd, []), q)):
        assert stacked.shape == (0, width) and stacked.dtype == np.int64


def test_induced_quotient_endo_rejects_non_descending_map():
    ext = _product_extension()
    g = ext.g_group
    # a cyclic shift of the element indices does not respect the projection
    with pytest.raises(ValidationError):
        induced_quotient_endos(ext, [np.roll(np.arange(g.order), 1)])


def test_displacement_escape_is_detected():
    ext = dihedral_extension(3)
    cd = centralizer_extension(ext)
    # sending the section reflection to a rotation gives a displacement that
    # is itself a reflection, outside the rotation centralizer
    alpha = np.arange(ext.g_group.order, dtype=np.int64)
    alpha[ext.section[1]] = 2
    with pytest.raises(ValidationError, match="escapes the kernel centralizer") as info:
        centralizer_displacements(cd, [np.arange(ext.g_group.order), alpha])
    assert info.value.witness == 1



def test_stacked_maps_raise_for_the_first_member_then_its_first_check():
    """A later member failing an earlier check does not mask an earlier
    member failing a later one: the error is the first member's, as looping
    the per-map form over the members gives."""
    ext = dihedral_extension(3)
    cd = centralizer_extension(ext)
    ident = np.arange(ext.g_group.order, dtype=np.int64)
    moves_e = ident.copy()
    moves_e[0] = ext.i.values[1]  # its displacement at e is a rotation: no crossed hom
    escapes = ident.copy()
    escapes[ext.section[1]] = 2
    with pytest.raises(ValidationError, match="must send identity to identity"):
        centralizer_displacements(cd, [ident, moves_e, escapes])
    with pytest.raises(ValidationError, match="escapes the kernel centralizer"):
        centralizer_displacements(cd, [ident, escapes, moves_e])


# ------------------------------------------------- full-row dual-route oracles


def test_ring_tables_match_full_row_oracles():
    """Generator-keyed sums and products equal the full-row route on every
    default-catalog extension and on D3-D12."""
    exts = [e.materialize() for e in default_catalog() if e.kind == "extension"]
    exts += [dihedral_extension(n) for n in range(3, 13)]
    for ext in exts:
        assert_ring_tables_match_full_rows(ext)


def test_fiber_endos_match_the_direct_fiber_search():
    """The integrated crossed homomorphisms are exactly the quotient-identity
    endomorphisms that a search over the generator fibers finds, on every
    default-catalog extension, on D3-D12 and on both split V4-by-A4."""
    exts = [e.materialize() for e in default_catalog() if e.kind == "extension"]
    exts += [dihedral_extension(n) for n in range(3, 13)] + split_v4_by_a4()
    for ext in exts:
        got = sorted(v.tolist() for v in fiber_endo_ring(ext).endos)
        assert got == sorted(v.tolist() for v in oracle_fiber_endos(ext)), ext.name


def _first_uncertified_member(elements, module, action, embedding):
    """First a with a o i no equivariant endomorphism of the module, checked
    on every pair, or None."""
    tm, act = module.table, action.table
    for k, z in enumerate(elements):
        f = z.values[embedding.values]
        if not ((f[tm] == tm[f[:, None], f[None, :]]).all()
                and (f[act] == act[:, f]).all()):
            return k
    return None


def test_cocycle_ring_refuses_members_it_cannot_certify():
    """Embeddings under which a o i is no additive equivariant endomorphism
    for some member a: its products need not be crossed, so the ring is
    refused at the first such member; every other case has the tables of the
    full-row route."""
    c4 = make_cyclic(4)
    v4, _, _ = make_direct_product(make_cyclic(2), make_cyclic(2), name="V4")
    trivial = trivial_action(c4, c4)
    families = (
        # not equivariant: C4 acting on V4, embedded by homomorphisms
        [(c4, v4, act, emb) for act in enumerate_actions(c4, v4)
         for emb in enumerate_homs(v4, c4)],
        # not additive: C4 on itself, trivially, through maps that are no homomorphism
        [(c4, c4, trivial, GroupHom(c4, c4, [0, x, y, z], validate=False))
         for x in range(4) for y in range(4) for z in range(4)],
    )
    for cases in families:
        refused = built = 0
        for source, module, action, emb in cases:
            elements = enumerate_z1(source, module, action)
            bad = _first_uncertified_member(elements, module, action, emb)
            if bad is None:
                cr = cocycle_ring(source, module, action, emb)
                want = full_row_cocycle_outcome(elements, source, module, emb)
                assert (cr.ring.add_table.tolist(), cr.ring.mul_table.tolist()) == want
                built += 1
            else:
                with pytest.raises(ValidationError, match=(
                        f"not closed under the ring operations: member {bad} ")):
                    cocycle_ring(source, module, action, emb)
                refused += 1
        assert refused >= 4 and built >= 4


def test_trivial_groups_give_one_element_rings():
    """A trivial kernel, module or source leaves no key positions or no
    additive generators; each ring still has its one element."""
    c1, c2, c4 = make_cyclic(1), make_cyclic(2), make_cyclic(4)
    ext = build_extension(GroupHom(c1, c2, [0]), GroupHom(c2, c2, [0, 1]), name="C1 by C2")
    fe = assert_ring_tables_match_full_rows(ext)
    assert fe.ring.order == fe.module_ring.ring.order == 1
    assert all(r.ok for r in verify_all(ext))
    assert equivariant_endo_ring(c1, trivial_action(c4, c1)).ring.order == 1
    assert equivariant_endo_ring(c1, trivial_action(c1, c1)).ring.order == 1
    assert cocycle_ring(c1, c4, trivial_action(c1, c4), GroupHom(c4, c1, [0] * 4)).ring.order == 1
    assert cocycle_ring(c1, c1, trivial_action(c1, c1), GroupHom(c1, c1, [0])).ring.order == 1


def _tampered_cocycle_ring(tamper):
    def build(source, module, action, embedding):
        cr = cocycle_ring(source, module, action, embedding)
        add, mul = tamper(cr.ring.add_table, cr.ring.mul_table)
        return CocycleRing(FiniteRing(add, mul, one=None, name="Z1"), cr.elements,
                           cr.index, cr.embedding)
    return build


def _swap_labels(add, mul):
    """The same ring with two elements of different additive order renamed."""
    orders = FiniteRing(add, mul).add_group.element_orders()
    u = 1
    v = int(np.flatnonzero(orders != orders[u])[-1])
    perm = np.arange(len(add))
    perm[[u, v]] = perm[[v, u]]
    return perm[add[np.ix_(perm, perm)]], perm[mul[np.ix_(perm, perm)]]


def test_fiber_endo_ring_rejects_a_displacement_ring_it_does_not_rederive(monkeypatch):
    """The endomorphism-table route is independent of the displacement ring:
    a valid ring on the same elements with other tables is refused."""
    ext = dihedral_extension(4)
    for tamper, error in ((_swap_labels, "twisted sum disagrees with displacement sum"),
                          (lambda add, mul: (add, mul.T),
                           "twisted product disagrees with displacement composition")):
        monkeypatch.setattr(endo_rings, "cocycle_ring", _tampered_cocycle_ring(tamper))
        with pytest.raises(ValidationError, match=error):
            fiber_endo_ring(ext)


def test_fiber_endo_ring_names_the_first_member_that_does_not_integrate(monkeypatch):
    """All members are certified in one call, and the error names the first
    displacement whose integral is no endomorphism, as a check per member
    in order would."""
    tampered = {}

    def build(source, module, action, embedding):
        cr = cocycle_ring(source, module, action, embedding)
        elements = list(cr.elements)
        for k in (5, 3):  # one changed value: two homs agree on a subgroup
            bad = elements[k].values.copy()
            bad[-1] = (bad[-1] + 1) % module.order
            elements[k] = CrossedHom(source, module, action, bad, validate=False)
            tampered[k] = bad.tolist()
        return CocycleRing(cr.ring, tuple(elements), cr.index, cr.embedding)

    monkeypatch.setattr(endo_rings, "cocycle_ring", build)
    with pytest.raises(ValidationError,
                       match="displacement does not integrate to an endomorphism") as exc:
        fiber_endo_ring(dihedral_extension(4))
    assert exc.value.witness.tolist() == tampered[3]


# ------------------------------------- stacked centralizer maps vs per-map oracles


def _z1_stack(source, module, action):
    return np.stack([phi.values for phi in enumerate_z1(source, module, action)])


def _centralizer_stacks(ext):
    """(cd, [(stacked form, per-map oracle, valid input stack)]) for the five
    maps of the centralizer layer, each on the member set it maps in
    `verify_centralizer_sequence`."""
    cd = centralizer_extension(ext)
    b_set = np.stack(kernel_fixing_endos(ext))
    c_set = np.stack(action_preserving_quotient_endos(ext))
    q = ext.q_group
    return cd, [
        (centralizer_displacements, oracle_centralizer_displacement, b_set),
        (endos_from_centralizer_displacements, oracle_endo_from_centralizer_displacement,
         _z1_stack(q, cd.c_sub.group, cd.q_action_on_c)),
        (lambda cd, maps: induced_quotient_endos(cd.ext, maps),
         lambda cd, v: oracle_induced_quotient_endo(cd.ext, v), b_set),
        (quotient_endo_displacements, oracle_quotient_endo_displacement, c_set),
        (quotient_endos_from_displacements, oracle_quotient_endo_from_displacement,
         _z1_stack(q, cd.qbar_group, cd.q_action_on_qbar)),
    ]


def test_stacked_centralizer_maps_match_the_per_map_oracles():
    """Each stacked form gives, on its whole member set, the table of the
    per-map oracle run member by member: on the default catalog, D3-D12 and
    both split V4-by-A4 extensions."""
    exts = [e.materialize() for e in default_catalog() if e.kind == "extension"]
    exts += [dihedral_extension(n) for n in range(3, 13)] + split_v4_by_a4()
    for ext in exts:
        cd, stacks = _centralizer_stacks(ext)
        for stacked, oracle, members in stacks:
            got = stacked(cd, members)
            assert got.dtype == np.int64, ext.name
            assert got.tolist() == [oracle(cd, v).tolist() for v in members], ext.name


def _outcome(call):
    """("ok", table) when call returns, else (text, witness) of its
    ValidationError, with array witnesses as lists."""
    try:
        return "ok", np.asarray(call()).tolist()
    except ValidationError as exc:
        w = exc.witness
        return str(exc), w.tolist() if isinstance(w, np.ndarray) else w


def _looped_outcome(oracle, cd, members):
    """What looping the per-map oracle over the members gives: the first
    member's error, or the stack of their tables."""
    tables = []
    for v in members:
        got = _outcome(lambda: oracle(cd, v))
        if got[0] != "ok":
            return got
        tables.append(got[1])
    return "ok", tables


_MUTATION_CASES = [_centralizer_stacks(ext) for ext in (
    dihedral_extension(3), dihedral_extension(4), _product_extension(),
    *(e.materialize() for e in default_catalog()
      if e.name in ("C2xD3 product", "C2 by C2xC2, class (1, 1, 1)",
                    "C4 by C2, action 0, class (1,)")))]


def _mutate(data, cd, form, row, target):
    """Change one value table in place: one cell, two swapped values, a value
    outside the centralizer or the action kernel, a row that does not
    descend, or a whole fiber moved to another coset; or leave it."""
    ext = cd.ext
    g, q, pv = ext.g_group, ext.q_group, ext.p.values
    x = data.draw(st.integers(0, len(row) - 1))
    kinds = ["none", "cell", "swap"] + {0: ["outside"], 2: ["descent", "fiber"],
                                        3: ["outside"]}.get(form, [])
    kind = data.draw(st.sampled_from(kinds))
    if kind == "cell":
        row[x] = data.draw(st.integers(0, target.order - 1))
    elif kind == "swap":
        y = data.draw(st.integers(0, len(row) - 1))
        row[x], row[y] = row[y], row[x]
    elif kind == "outside":
        # a value whose displacement leaves the centralizer (at x = u(q)) or
        # the kernel of the action (at x)
        grp, layer = (g, cd.c_sub.embedding.values) if form == 0 else (q, cd.qbar_in_q.values)
        if form == 0:
            x = int(ext.section[data.draw(st.integers(0, q.order - 1))])
        outside = [a for a in range(grp.order) if grp.table[a, grp.inverse[x]] not in layer]
        if outside:
            row[x] = data.draw(st.sampled_from(outside))
    elif kind == "descent":
        # another element of the fiber of x goes elsewhere in the quotient
        fiber = [a for a in ext.fiber(int(pv[x])) if a != x]
        moved = [a for a in range(g.order) if pv[a] != pv[row[x]]]
        if fiber and moved:
            row[data.draw(st.sampled_from(fiber))] = data.draw(st.sampled_from(moved))
    elif kind == "fiber":
        # the fiber of x goes, as a whole, into one other coset
        coset = ext.fiber(data.draw(st.integers(0, q.order - 1)))
        for a in ext.fiber(int(pv[x])):
            row[a] = data.draw(st.sampled_from(list(coset)))
    return kind


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_stacked_centralizer_maps_raise_the_per_map_first_error(data):
    """One member of a valid stack changed by `_mutate`, or two members (so
    that a later member may fail an earlier check), gives the stacked form
    the error text and witness that looping its per-map oracle over the
    members raises first."""
    cd, stacks = data.draw(st.sampled_from(_MUTATION_CASES))
    form = data.draw(st.integers(0, len(stacks) - 1))
    stacked, oracle, members = stacks[form]
    members = members.copy()
    ext = cd.ext
    target = (ext.g_group, cd.c_sub.group, ext.q_group, ext.q_group, cd.qbar_group)[form]
    rows = data.draw(st.lists(st.integers(0, len(members) - 1), min_size=1, max_size=2,
                              unique=True))
    kinds = [_mutate(data, cd, form, members[k], target) for k in rows]
    got = _outcome(lambda: stacked(cd, members))
    assert got == _looped_outcome(oracle, cd, members)
    if set(kinds) == {"none"}:
        assert got[0] == "ok"
