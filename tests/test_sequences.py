"""Sequence verifiers: every report passes on honest data and fails on broken data."""

import importlib.util
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohomoring import BudgetExceeded, ValidationError, groups, rings, verify
from cohomoring.catalog import (
    CatalogEntry,
    _verify_ring_entry,
    catalog_from_json,
    default_catalog,
    dihedral_extension,
    sweep,
)
from cohomoring.cocycles import enumerate_z1
from cohomoring.cohomology2 import (
    coboundary_cocycle,
    coboundary_preimage,
    compute_h2,
    h2_order,
    inflation,
)
from cohomoring.endo_rings import (action_preserving_quotient_endos, induced_quotient_endos,
                                   kernel_fixing_endos)
from cohomoring.extension import (
    build_extension,
    centralizer_extension,
    extension_from_cocycle,
    extension_to_json,
)
from cohomoring.groups import (
    FiniteGroup,
    GroupHom,
    TableIndex,
    enumerate_actions,
    make_cyclic,
    make_direct_product,
    make_semidirect_group,
    trivial_action,
)
from cohomoring.rings import check_ideal, quotient_ring, zn_ring
from cohomoring.verify import (
    ExtensionData,
    _closure_witness,
    _descent_witness,
    _first_pair,
    verify_all,
    verify_aut_centralizer_sequence,
    verify_aut_five_term,
    verify_centralizer_sequence,
    verify_crossed_hom_sequence,
    verify_five_term,
    verify_qr_sequence,
)
from cocycle_oracles import oracle_inflation_kernel
from ring_oracles import (assert_ring_tables_match_full_rows, oracle_closure_witness,
                          oracle_descent_witness)


def _c4_over_c2():
    c4 = make_cyclic(4)
    c2 = make_cyclic(2)
    i = GroupHom(c2, c4, [0, 2])
    p = GroupHom(c4, c2, [0, 1, 0, 1])
    return build_extension(i, p, name="C4 over 2C4")


def test_five_term_on_dihedral_node_sizes():
    rep = verify_five_term(ExtensionData(dihedral_extension(3)))
    assert rep.ok
    assert rep.nodes == [
        ("kernel-and-quotient-fixing endos", 3),
        ("quotient-identity endos", 9),
        ("equivariant kernel endos", 3),
        ("H2(Q,N)", 1),
        ("H2(G,N)", 3),
    ]
    statuses = {c.status for c in rep.checks}
    assert statuses == {"pass"}


def test_five_term_skip_marker():
    rep = verify_five_term(ExtensionData(dihedral_extension(4)), check_h2g=False)
    assert rep.ok
    assert rep.nodes[-1] == ("H2(G,N)", None)
    assert any(c.status == "skipped" for c in rep.checks)
    assert "not checked" in "\n".join(rep.lines())


def test_five_term_checks_inflation_above_the_node_gate():
    # |G| = 18 is above h2g_max_group_order: the node stays hidden, the
    # exactness check at H2(Q,N) still runs
    rep = verify_five_term(ExtensionData(dihedral_extension(9)))
    assert rep.ok
    assert rep.nodes[-1] == ("H2(G,N)", None)
    assert {c.status for c in rep.checks} == {"pass"}
    assert "H2(Q,N)" in {c.position for c in rep.checks}
    for n, order in ((9, 9), (10, 40)):
        rep = verify_five_term(ExtensionData(dihedral_extension(n)), check_h2g=True)
        assert rep.ok
        assert rep.nodes[-1] == ("H2(G,N)", order)


@lru_cache(maxsize=None)
def _inflation_case(k):
    """An extension, its H^2(G,N) in full and the classes of H^2(Q,N)."""
    v4 = make_direct_product(make_cyclic(2), make_cyclic(2))[0]
    if k < 2:
        ext = dihedral_extension(3 + k)
    elif k < 4:
        name = ("C4 by C2, action 1, class (1,)", "C2 by C2xC2, class (1, 1, 1)")[k - 2]
        ext = next(e for e in default_catalog() if e.name == name).materialize()
    elif k == 4:
        c3 = make_cyclic(3)
        action = [a for a in enumerate_actions(c3, v4) if not a.is_trivial()][0]
        _, i, p = make_semidirect_group(v4, c3, action, name="A4")
        ext = build_extension(i, p, name="A4 over V4")
    else:
        c2 = make_cyclic(2)
        h2 = compute_h2(c2, v4, trivial_action(c2, v4))
        ext = extension_from_cocycle(h2.class_reps[0], name="C2xC2 by C2, nonsplit")
    h2q = compute_h2(ext.q_group, ext.n_group, ext.action)
    full = compute_h2(ext.g_group, ext.n_group, ext.g_action)
    return ext, full, [klass for _, klass in h2q.classes()]


def test_generator_routes_match_full_middle_cohomology():
    """h2_order and coboundary_preimage against compute_h2 on G itself:
    every catalog extension with |G| <= 12, and two with kernel C2xC2."""
    exts = [e.materialize() for e in default_catalog() if e.kind == "extension"]
    cases = [(e, compute_h2(e.g_group, e.n_group, e.g_action))
             for e in exts if e.g_group.order <= 12]
    cases += [_inflation_case(k)[:2] for k in (4, 5)]
    assert len(cases) >= 25
    for ext, full in cases:
        rep = verify_five_term(ExtensionData(ext))
        assert rep.ok
        assert rep.nodes[-1] == ("H2(G,N)", full.order), ext.name
        z1 = len(enumerate_z1(ext.g_group, ext.n_group, ext.g_action))
        assert h2_order(ext.g_group, ext.n_group, ext.g_action, z1) == full.order
        h2q = compute_h2(ext.q_group, ext.n_group, ext.action)
        for _, klass in h2q.classes():
            up = inflation(klass, ext.p, ext.g_action)
            assert (coboundary_preimage(up) is not None) == full.is_coboundary(up), ext.name


def _relabelled_catalog(seed):
    """The default catalog with its groups relabelled by `seed`, as
    perfbench/catalog_gen.py writes it for the catalog_sweep workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "catalog_gen.py"
    spec = importlib.util.spec_from_file_location("catalog_gen", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return catalog_from_json(module.generate_catalog(seed))


def test_inflation_kernel_matches_the_per_class_search():
    """The kernel of inflation found as a subgroup is the one a search per
    class finds, on the default catalog and on its seed-1 and seed-7
    relabellings, and the one H^2(G,N) in full gives on the
    `_inflation_case`s."""
    exts = [e.materialize() for e in default_catalog()]
    for seed in (1, 7):
        exts += [e.materialize() for e in _relabelled_catalog(seed)]
    assert len(exts) == 3 * 34
    for ext in exts:
        h2q = compute_h2(ext.q_group, ext.n_group, ext.action)
        assert verify._inflation_kernel(ext, h2q) == oracle_inflation_kernel(ext, h2q), ext.name
    for k in range(6):
        ext, full, _ = _inflation_case(k)
        h2q = compute_h2(ext.q_group, ext.n_group, ext.action)
        assert verify._inflation_kernel(ext, h2q) == {
            coeffs for coeffs, rep in h2q.classes()
            if full.is_coboundary(inflation(rep, ext.p, ext.g_action))}, k


def test_inflation_kernel_reads_the_search_budget_before_any_search(monkeypatch):
    """The preimage search's budget gate, which the per-class search first
    reads on the zero class, refuses the kernel with the same message when
    H^2(Q,N) is trivial and no class is searched."""
    ext = dihedral_extension(3)
    h2q = compute_h2(ext.q_group, ext.n_group, ext.action)
    assert h2q.order == 1
    monkeypatch.setenv("COHOMORING_BUDGET", "0.000001")
    with pytest.raises(BudgetExceeded) as got:
        verify._inflation_kernel(ext, h2q)
    with pytest.raises(BudgetExceeded) as want:
        oracle_inflation_kernel(ext, h2q)
    assert str(got.value) == str(want.value) == "9 coboundary candidates exceeds budget 1"


@lru_cache(maxsize=None)
def _h2_of_pair(q_name, n_name):
    """H^2(Q,N) under each action of the named small group Q on the named
    module N."""
    def small(name):
        if name == "C2xC2":
            return make_direct_product(make_cyclic(2), make_cyclic(2), name=name)[0]
        return make_cyclic(int(name[1:]), name=name)

    q, n = small(q_name), small(n_name)
    return [compute_h2(q, n, action) for action in enumerate_actions(q, n)]


SMALL_GROUPS = ("C2", "C3", "C4", "C2xC2")


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_inflation_kernel_property_on_small_extensions(data):
    """For a drawn Q, N, action and class, the kernel of inflation to the
    extension of the class is the per-class search's, and holds the class."""
    h2qs = _h2_of_pair(data.draw(st.sampled_from(SMALL_GROUPS)),
                       data.draw(st.sampled_from(SMALL_GROUPS)))
    h2q = h2qs[data.draw(st.integers(0, len(h2qs) - 1))]
    coeffs = tuple(data.draw(st.integers(0, d - 1)) for d in h2q.invariant_factors)
    ext = extension_from_cocycle(h2q.rep_from_coeffs(coeffs))
    assert ext.q_group is h2q.q_group and ext.n_group is h2q.n_group
    kernel = verify._inflation_kernel(ext, h2q)
    assert kernel == oracle_inflation_kernel(ext, h2q)
    assert coeffs in kernel


@pytest.mark.parametrize("n, order", [(32, 128), (48, 192), (64, 256)])
def test_h2_order_of_large_dihedral_groups(n, order):
    """The H2(G,N) node of `examples dihedral n`, whose Light's equations
    exceed one block of `groups._SEARCH_BLOCK_CELLS` cells."""
    ext = dihedral_extension(n)
    g, m, act = ext.g_group, ext.n_group, ext.g_action
    k = len(g.core_generators)  # N is cyclic: one coordinate
    assert g.order ** 2 * k * (g.order - 1) * k > groups._SEARCH_BLOCK_CELLS
    assert h2_order(g, m, act, len(enumerate_z1(g, m, act))) == order


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.data())
def test_coboundary_search_decides_like_full_cohomology(data):
    """delta(c) for a random normalized 1-cochain c is found to be a
    coboundary, and delta(c) + inf(f) is one exactly when the full H^2(G,N)
    says so; every preimage found is checked."""
    ext, full, classes = _inflation_case(data.draw(st.integers(0, 5)))
    g, n, act = ext.g_group, ext.n_group, ext.g_action
    chain = [0] + [data.draw(st.integers(0, n.order - 1)) for _ in range(g.order - 1)]
    delta = coboundary_cocycle(g, n, act, chain)
    f = delta.add(inflation(data.draw(st.sampled_from(classes)), ext.p, act))
    for cocycle, want in ((delta, True), (f, full.is_coboundary(f))):
        found = coboundary_preimage(cocycle)
        assert (found is not None) == want
        if found is not None:
            assert coboundary_cocycle(g, n, act, found).same_values(cocycle)


def test_five_term_nonsplit_transgression_is_nontrivial():
    ext = _c4_over_c2()
    rep = verify_five_term(ExtensionData(ext))
    assert rep.ok
    # H2(C2, C2, trivial) has two classes and the extension hits the nonzero one
    h2 = compute_h2(ext.q_group, ext.n_group, ext.action)
    assert h2.order == 2
    assert h2.reduce(ext.classifying_cocycle()) != h2.zero()
    # the kernel-restriction node keeps its kernel/image data on the report
    node_names = [n for n, _ in rep.nodes]
    assert node_names[1] == "quotient-identity endos"


def test_aut_five_term_on_dihedral():
    rep = verify_aut_five_term(ExtensionData(dihedral_extension(6)))
    assert rep.ok


def test_aut_five_term_on_nonsplit():
    rep = verify_aut_five_term(ExtensionData(_c4_over_c2()))
    assert rep.ok


def test_centralizer_sequences():
    for make in (lambda: dihedral_extension(4), _c4_over_c2):
        data = ExtensionData(make())
        assert verify_centralizer_sequence(data).ok
        assert verify_aut_centralizer_sequence(data).ok
        assert verify_crossed_hom_sequence(data).ok


def test_verify_all_shares_instances():
    ext = dihedral_extension(5)
    reports = verify_all(ext)
    assert len(reports) == 5
    assert all(r.ok for r in reports)
    names = [r.sequence_name for r in reports]
    assert len(set(names)) == 5
    for r in reports:
        assert r.instance == "D5 over rotations"


def test_verify_all_builds_each_shared_input_once(monkeypatch):
    """One ExtensionData serves the five verifiers of D6: each shared input is
    built once, Z^1 is enumerated once per module (N, C and Qbar), and the
    least-lift connecting classes are built over one member set."""
    calls = {}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return real(*args, **kwargs)
        return wrapper

    for name in ("compute_h2", "fiber_endo_ring", "centralizer_extension"):
        real = getattr(verify, name)
        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("cohomoring") and getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    for name in ("_eta_coefficients", "_base_classes", "enumerate_z1"):
        monkeypatch.setattr(verify, name, counting(name, getattr(verify, name)))
    assert all(r.ok for r in verify_all(dihedral_extension(6)))
    assert calls == {"compute_h2": 1, "fiber_endo_ring": 1, "centralizer_extension": 1,
                     "_eta_coefficients": 1, "_base_classes": 1, "enumerate_z1": 3}


def test_displacement_missing_from_z1_fails_its_fiber_check():
    """A displacement that the index over Z1(Q, Qbar) does not find has no
    connecting class: both centralizer verifiers fail their fiber check over
    zero with it as the witness, and the lift check covers the others."""
    ext = next(e.materialize() for e in default_catalog()
               if e.name == "C2 by C2xC2, class (1, 1, 1)")
    data = ExtensionData(ext)
    zero = data.z1qbar[0]
    assert not zero.any() and len(data.z1qbar) > 1
    data.z1qbar = data.z1qbar[1:]  # the identity's displacement goes missing
    reports = [verify_centralizer_sequence(data), verify_aut_centralizer_sequence(data)]
    checks = [{c.position: c for c in r.checks} for r in reports]
    for found, position in zip(checks, ("action-preserving quotient endos",
                                        "invertible action-preserving quotient endos")):
        assert (found[position].status, found[position].witness) == ("fail", zero.tolist())
    assert checks[0]["connecting class is lift independent"].status == "pass"


def test_qr_sequence_on_mod12():
    ring = zn_ring(12)
    ideal = check_ideal(ring, [0, 6])
    quo, proj = quotient_ring(ring, ideal)
    rep = verify_qr_sequence(ring, ideal, proj, instance="Z12 mod its 6-torsion")
    assert rep.ok
    assert rep.instance == "Z12 mod its 6-torsion"


def test_qr_sequence_rejects_non_ideal_data():
    ring = zn_ring(12)
    ideal = check_ideal(ring, [0, 6])
    quo, proj = quotient_ring(ring, ideal)
    # feeding the wrong ideal produces a failing report, not a crash
    wrong = check_ideal(ring, [0, 4, 8])
    rep = verify_qr_sequence(ring, wrong, proj)
    assert not rep.ok
    # the certificate of proj speaks of its own source, not of an equal copy
    rep = verify_qr_sequence(zn_ring(12), ideal, proj)
    assert [c.position for c in rep.checks if c.status == "fail"] == [
        "induced map preserves the adjoint product"]


def test_report_line_format():
    rep = verify_five_term(ExtensionData(dihedral_extension(3)))
    lines = rep.lines()
    assert lines[0] == "sequence: five-term endomorphism ring sequence"
    assert lines[1] == "instance: D3 over rotations"
    assert lines[2].startswith("nodes: ")
    assert " -> " in lines[2]
    assert lines[-1] == "result: PASS"
    for line in lines[3:-1]:
        assert line.startswith("  [")


def test_report_json_shape():
    rep = verify_five_term(ExtensionData(dihedral_extension(3)), check_h2g=False)
    data = rep.to_json()
    assert set(data) == {"sequence", "instance", "nodes", "checks", "ok"}
    assert data["ok"] is True
    assert data["nodes"][-1] == ["H2(G,N)", None]
    for check in data["checks"]:
        assert set(check) == {"position", "kernel_size", "image_size",
                              "status", "detail", "witness"}


def test_default_catalog_composition():
    entries = default_catalog()
    assert len(entries) >= 12
    exts = [e.materialize() for e in entries]
    assert all(e.g_group.order <= 48 for e in exts)
    nonsplit = [e for e in exts if not e.is_split()]
    assert len(nonsplit) >= 2


def test_sweep_default_catalog_green():
    summary = sweep(default_catalog())
    assert summary["failed"] == 0
    assert summary["total"] == len(summary["entries"])
    for row in summary["entries"]:
        assert row["ok"]
        for rep in row["reports"]:
            assert rep["ok"]


def test_sweep_tolerates_broken_entry():
    data = extension_to_json(dihedral_extension(3))
    data["group"]["table"][1][2] = 0
    entries = [
        CatalogEntry("good", "extension", dihedral_extension(3)),
        CatalogEntry("broken", "extension", {"extension": data}),
    ]
    summary = sweep(entries)
    assert summary["total"] == 2
    assert summary["failed"] == 1
    rows = {row["name"]: row for row in summary["entries"]}
    assert rows["good"]["ok"]
    assert not rows["broken"]["ok"]
    assert "error" in rows["broken"]


def test_catalog_from_json_quadruple_form():
    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    action = enumerate_actions(c2, c4)[0]
    h2 = compute_h2(c2, c4, action)
    rep = dict(h2.classes())[(1,)]
    from cohomoring.groups import group_to_json

    doc = {
        "entries": [
            {
                "name": "C4 by C2 quadruple",
                "kind": "extension",
                "quadruple": {
                    "quotient_group": group_to_json(c2),
                    "kernel_group": group_to_json(c4),
                    "action": action.table.tolist(),
                    "cocycle": rep.values.tolist(),
                },
            }
        ]
    }
    entries = catalog_from_json(doc)
    assert len(entries) == 1
    ext = entries[0].materialize()
    assert ext.g_group.order == 8
    summary = sweep(entries)
    assert summary["failed"] == 0


def test_catalog_ring_entries():
    ring = zn_ring(12)
    from cohomoring.rings import ring_to_json

    doc = {
        "entries": [
            {"name": "mod-12 ring", "kind": "ring", "ring": ring_to_json(ring)},
            {"name": "mod-12 with 6-torsion ideal", "kind": "ring",
             "ring": ring_to_json(ring), "ideal": [0, 6]},
        ]
    }
    summary = sweep(catalog_from_json(doc))
    assert summary["failed"] == 0
    assert summary["total"] == 2


def test_ring_entry_builds_its_quasi_regular_group_once(monkeypatch):
    """A ring entry without an ideal builds its circle table and its
    quasi-regular group once, and reads the node size from that group."""
    counts = {"star_table": 0, "FiniteGroup": 0}
    real_star, real_init = rings.star_table, FiniteGroup.__init__

    def star(ring):
        counts["star_table"] += 1
        return real_star(ring)

    def init(self, *args, **kwargs):
        counts["FiniteGroup"] += 1
        real_init(self, *args, **kwargs)

    ring = zn_ring(12)
    monkeypatch.setattr(rings, "star_table", star)
    monkeypatch.setattr(FiniteGroup, "__init__", init)
    [report] = _verify_ring_entry("mod-12 ring", ring, None)
    assert counts == {"star_table": 1, "FiniteGroup": 1}
    assert report.ok and report.nodes == [("quasi-regulars of the ring", 4)]


def test_sweep_flags_non_square_zero_ring_ideal():
    ring = zn_ring(12)
    from cohomoring.rings import ring_to_json

    doc = {"entries": [{"name": "bad ideal", "kind": "ring",
                        "ring": ring_to_json(ring), "ideal": [0, 4, 8]}]}
    summary = sweep(catalog_from_json(doc))
    assert summary["failed"] == 1


def test_five_term_exactness_across_action_classes():
    # run the ring five-term sequence over every (C2 or C3) on C6 class
    c6 = make_cyclic(6)
    for q_ord in (2, 3):
        q = make_cyclic(q_ord)
        for action in enumerate_actions(q, c6):
            h2 = compute_h2(q, c6, action)
            for coeffs, rep_coc in h2.classes():
                ext = extension_from_cocycle(rep_coc)
                rep = verify_five_term(ExtensionData(ext))
                assert rep.ok, (q_ord, coeffs)


@lru_cache(maxsize=None)
def _relabel_case(k):
    """(extension, its verify_all node sizes, its H2(Q,N) data) for case k."""
    if k < 2:
        ext = dihedral_extension(3 + k)
    else:
        c2 = make_cyclic(2, name="C2")
        v4, _, _ = make_direct_product(make_cyclic(2), make_cyclic(2), name="C2xC2")
        rep = compute_h2(v4, c2, trivial_action(v4, c2)).rep_from_coeffs((0, 1, 1))
        ext = extension_from_cocycle(rep, name="C2 by C2xC2, class (0, 1, 1)")
    reports = verify_all(ext)
    assert all(r.ok for r in reports)
    h2q = compute_h2(ext.q_group, ext.n_group, ext.action)
    return ext, [r.nodes for r in reports], h2q, h2q.reduce(ext.classifying_cocycle())


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(st.data())
def test_relabelling_the_middle_group_changes_no_invariant(data):
    """Rename the non-identity elements of G by a permutation sigma and
    rebuild: the section and every fiber representative move, the invariants
    do not."""
    ext, nodes, h2q, klass = _relabel_case(data.draw(st.integers(0, 2)))
    g = ext.g_group
    sigma = np.asarray([0] + data.draw(st.permutations(range(1, g.order))))
    back = np.argsort(sigma)
    table = np.empty_like(g.table)
    table[np.ix_(sigma, sigma)] = sigma[g.table]
    g2 = FiniteGroup(table, sigma[list(g.generators)], labels=[g.labels[x] for x in back])
    ext2 = build_extension(GroupHom(ext.n_group, g2, sigma[ext.i.values]),
                           GroupHom(g2, ext.q_group, ext.p.values[back]), name=ext.name)
    assert (ext2.action.table == ext.action.table).all()
    assert (ext2.g_action.table[sigma] == ext.g_action.table).all()
    reports = verify_all(ext2)
    assert all(r.ok for r in reports)
    assert [r.nodes for r in reports] == nodes
    assert_ring_tables_match_full_rows(ext2)
    h2q2 = compute_h2(ext2.q_group, ext2.n_group, ext2.action)
    assert h2q2.invariant_factors == h2q.invariant_factors
    assert h2q.reduce(ext2.classifying_cocycle()) == klass


def test_centralizer_verifiers_certify_each_member_set_at_once(monkeypatch):
    """The three centralizer-layer verifiers make as many `_hom_rows` calls on
    D3 as on D12, though D12 has more kernel-fixing and action-preserving
    endomorphisms: each member set is certified by one call, never one call
    per member."""
    calls = []
    real = groups._hom_rows

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("cohomoring") and getattr(module, "_hom_rows", None) is real:
            monkeypatch.setattr(module, "_hom_rows", counting)
    counts, sizes = [], []
    for n in (3, 12):
        data = ExtensionData(dihedral_extension(n))
        data.cd, data.h2q  # built before counting, as verify_all does
        sizes.append((len(data.b_all), len(data.c_all)))
        calls.clear()
        reports = [verify_centralizer_sequence(data), verify_aut_centralizer_sequence(data),
                   verify_crossed_hom_sequence(data)]
        assert all(r.ok for r in reports)
        counts.append(len(calls))
    assert sizes[0] != sizes[1]
    assert counts[0] == counts[1], (sizes, counts)


@pytest.mark.parametrize("cells", [None, 1, 100])
def test_pair_witnesses_match_the_member_loops(monkeypatch, cells):
    """The blocked pair scans name the first pair (x, y), in (x, y) order,
    that the member-by-member loops they replace name, at any block size:
    on random masks, on kernel-fixing endos with one member left out, and on
    descents with one member's descent made trivial."""
    if cells is not None:
        monkeypatch.setattr(groups, "_SEARCH_BLOCK_CELLS", cells)
    rng = np.random.default_rng(0)
    for size in range(1, 7):
        members = rng.integers(0, 5, size=(size, 3))
        for density in (0.0, 0.1, 0.5):
            mask = rng.random((size, size)) < density
            hits = [(x, y) for x in range(size) for y in range(size) if mask[x, y]]
            want = (members[hits[0][0]].tolist(), members[hits[0][1]].tolist()) if hits else None
            assert _first_pair(members, lambda rows: mask[rows]) == want
            names = [f"m{k}" for k in range(size)]
            assert _first_pair(members, lambda rows: mask[rows], names=names) == (
                None if not hits else (names[hits[0][0]], names[hits[0][1]]))
    failures = [0, 0]
    _, i, p = make_direct_product(make_cyclic(3), make_cyclic(4))
    for ext in (dihedral_extension(4), dihedral_extension(6), build_extension(i, p)):
        g = ext.g_group
        b_set = np.stack(kernel_fixing_endos(ext))
        index = TableIndex(b_set, g.core_generators, g.order)
        assert _closure_witness(index) is None
        for drop in range(1, len(b_set)):
            part = TableIndex(np.delete(b_set, drop, axis=0), g.core_generators, g.order)
            assert _closure_witness(part) == oracle_closure_witness(part)
            failures[0] += oracle_closure_witness(part) is not None
        induced = induced_quotient_endos(ext, b_set)
        assert _descent_witness(ext, b_set, induced) is None
        for k in range(len(b_set)):
            wrong = induced.copy()
            wrong[k] = 0  # the trivial endomorphism of the quotient
            want = oracle_descent_witness(ext, b_set, wrong)
            assert _descent_witness(ext, b_set, wrong) == want
            failures[1] += want is not None
    assert min(failures) > 0
