"""The stacked connecting-class path against its per-object oracles.

`connecting_values`, `pushforward_values`, `_check_cocycles` and
`H2Group.reduce_values` build, certify and reduce whole stacks of 2-cocycles;
`tests/cocycle_oracles.py` does the same one value table at a time.  Both
must give the same classes on every default-catalog extension, at the least
lift and at every section of the lift scan, under both cohomology methods and
with blocks of one member; and on broken stacks both must raise the same
first error.  The single-point lift certificate of the verifier must agree
with the oracle's scan over every section.
"""

import itertools
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohomoring import groups, verify
from cohomoring.budgets import current_budgets
from cohomoring.catalog import default_catalog
from cohomoring.cocycles import enumerate_z1
from cohomoring.cohomology2 import _check_cocycles, compute_h2, connecting_values
from cohomoring.endo_rings import (action_preserving_quotient_endos, fiber_endo_ring,
                                   quotient_endo_displacements)
from cohomoring.extension import centralizer_extension
from cocycle_oracles import (
    first_error,
    oracle_check_cocycle,
    oracle_connecting_values,
    oracle_lift_scan_witness,
    oracle_reduce,
    outcome,
)

_CATALOG = {e.name: e.materialize() for e in default_catalog() if e.kind == "extension"}
# most lifted classes the section-scan oracle is asked to build for one extension
_SCAN_CAP = 10_000


def _fibers(cd):
    """The fibers of the central quotient map, the identity's cut to {0}."""
    fibers = [np.flatnonzero(cd.pi.values == t).tolist()
              for t in range(cd.qbar_group.order)]
    fibers[0] = [0]
    return fibers


def _taus(ext, cd):
    z1 = enumerate_z1(ext.q_group, cd.qbar_group, cd.q_action_on_qbar)
    return np.stack([tau.values for tau in z1])


def _oracle_class(ext, cd, h2, tau, lift=None):
    q, n = ext.q_group, ext.n_group
    vals = oracle_connecting_values(q, tau, cd.c_sub.group, cd.pi, cd.n_in_c,
                                    cd.q_action_on_c, lift)
    oracle_check_cocycle(q, n, ext.action, vals)
    return oracle_reduce(h2, vals)


def _rows(classes):
    return [tuple(row) for row in classes.tolist()]


def _single_point_lifts(ext, cd):
    """The least lift with lift[j] := lift[j] n_s, for j in Qbar \\ {e} and
    n_s over the core generators of the kernel, j outer."""
    least = [f[0] for f in _fibers(cd)]
    c = cd.c_sub.group
    out = []
    for j in range(1, cd.qbar_group.order):
        for s in ext.n_group.core_generators:
            lift = list(least)
            lift[j] = int(c.table[least[j], cd.n_in_c.values[s]])
            out.append(lift)
    return out


@pytest.mark.parametrize("cells", [None, 1])
def test_stacked_classes_match_the_per_object_oracle(monkeypatch, cells):
    if cells is not None:
        monkeypatch.setattr(groups, "_SEARCH_BLOCK_CELLS", cells)
    budget = current_budgets()
    scanned = brute = 0
    for name, ext in _CATALOG.items():
        cd = centralizer_extension(ext)
        q, n = ext.q_group, ext.n_group
        taus = _taus(ext, cd)
        sections = [list(sec) for sec in itertools.product(*_fibers(cd))]
        in_scan = len(sections) * len(taus) <= _SCAN_CAP
        scanned += len(sections) * len(taus) if in_scan else 0
        methods = ["linear"]
        if n.order ** ((q.order - 1) ** 2) <= budget.h2_brute_candidates:
            methods.append("bruteforce")
            brute += 1
        fe = fiber_endo_ring(ext)
        f_ext = ext.classifying_cocycle()
        for method in methods:
            h2 = compute_h2(q, n, ext.action, method=method)
            # the least lift, through the blocked helper of the verifiers
            base = verify._base_classes(ext, cd, h2, taus)
            assert _rows(base) == [_oracle_class(ext, cd, h2, t) for t in taus], name
            # pushforwards along every module endomorphism
            want = []
            for e in fe.module_ring.elements:
                oracle_check_cocycle(q, n, ext.action, e[f_ext.values])
                want.append(oracle_reduce(h2, e[f_ext.values]))
            assert verify._eta_coefficients(fe, h2, f_ext) == want, name
            if not in_scan:
                continue
            # every section: one stack of taus repeated by sections tiled
            stacked = connecting_values(
                q, np.repeat(taus, len(sections), axis=0), cd.c_sub.group, cd.pi,
                cd.n_in_c, cd.q_action_on_c, ext.action, np.tile(sections, (len(taus), 1)))
            want = [_oracle_class(ext, cd, h2, t, sec) for t in taus for sec in sections]
            assert _rows(h2.reduce_values(stacked)) == want, name
            # the oracle scan visits exactly these, in this order, and the
            # certificate of the verifier the single-point lifts of each tau
            seen = []

            def recording(q_group, tau_rows, *args):
                seen.extend(zip(tau_rows.tolist(), args[-1].tolist()))
                return connecting_values(q_group, tau_rows, *args)

            monkeypatch.setattr(verify, "connecting_values", recording)
            assert oracle_lift_scan_witness(ext, cd, h2, list(taus), taus, base) is None
            assert seen == [(t, sec) for t in taus.tolist() for sec in sections], name
            seen.clear()
            assert verify._lift_witness(ext, cd, h2, list(taus), taus, base) is None
            monkeypatch.setattr(verify, "connecting_values", connecting_values)
            singles = _single_point_lifts(ext, cd)
            assert seen == [(t, sec) for t in taus.tolist() for sec in singles], name
    assert scanned == 1648 and brute == 33


def test_lift_scan_reports_the_first_moved_class(monkeypatch):
    ext = _CATALOG["C2 by C2xC2, class (1, 1, 1)"]
    cd = centralizer_extension(ext)
    h2 = compute_h2(ext.q_group, ext.n_group, ext.action)
    assert h2.order > 1
    c_set = action_preserving_quotient_endos(ext)
    taus = quotient_endo_displacements(cd, c_set)
    first = list(itertools.product(*_fibers(cd)))[0]
    for cells in (None, 1):
        if cells is not None:
            monkeypatch.setattr(groups, "_SEARCH_BLOCK_CELLS", cells)
        base = verify._base_classes(ext, cd, h2, taus)
        assert oracle_lift_scan_witness(ext, cd, h2, c_set, taus, base) is None
        for k in (0, len(c_set) - 1):
            moved = base.copy()
            moved[k] = 1 - moved[k].clip(0, 1)  # any other row of coefficients
            wit = oracle_lift_scan_witness(ext, cd, h2, c_set, taus, moved)
            assert wit == (c_set[k].tolist(), list(first))


@pytest.mark.parametrize("cells", [None, 1])
def test_lift_certificate_agrees_with_the_section_scan(monkeypatch, cells):
    """On every default-catalog extension neither the certificate nor the
    scan over every section finds a moved class.  With the base row of the
    first or the last member perturbed, both report that member: the scan at
    its first section, the certificate at its first single-point lift (when
    Qbar is trivial there is no other lift, and the certificate has nothing
    to compare)."""
    if cells is not None:
        monkeypatch.setattr(groups, "_SEARCH_BLOCK_CELLS", cells)
    perturbed = moved_lifts = 0
    for name, ext in _CATALOG.items():
        cd = centralizer_extension(ext)
        h2 = compute_h2(ext.q_group, ext.n_group, ext.action)
        c_set = action_preserving_quotient_endos(ext)
        taus = quotient_endo_displacements(cd, c_set)
        base = verify._base_classes(ext, cd, h2, taus)
        assert ext.n_group.order ** (cd.qbar_group.order - 1) * len(c_set) <= _SCAN_CAP
        assert verify._lift_witness(ext, cd, h2, c_set, taus, base) is None, name
        assert oracle_lift_scan_witness(ext, cd, h2, c_set, taus, base) is None, name
        if not h2.invariant_factors:
            continue  # class rows are empty: nothing to perturb
        perturbed += 1
        singles = _single_point_lifts(ext, cd)
        moved_lifts += bool(singles)
        first = list(next(itertools.product(*_fibers(cd))))
        for k in (0, len(c_set) - 1):
            moved = base.copy()
            moved[k] = 1 - moved[k].clip(0, 1)  # any other row of coefficients
            wit = verify._lift_witness(ext, cd, h2, c_set, taus, moved)
            assert wit == ((c_set[k].tolist(), singles[0]) if singles else None), name
            wit = oracle_lift_scan_witness(ext, cd, h2, c_set, taus, moved)
            assert wit == (c_set[k].tolist(), first), name
    assert (perturbed, moved_lifts) == (24, 17)


def test_verifier_reports_do_not_depend_on_the_block_size(monkeypatch):
    names = ["C2 by C2xC2, class (1, 1, 1)", "C3xC4 product", "C2xD3 product",
             "C4 by C3, action 0, class ()"]
    want = {name: [r.to_json() for r in verify.verify_all(_CATALOG[name])] for name in names}
    monkeypatch.setattr(groups, "_SEARCH_BLOCK_CELLS", 1)
    for name in names:
        assert [r.to_json() for r in verify.verify_all(_CATALOG[name])] == want[name], name


def _stack_case(name):
    """A valid stack: every crossed hom into the central quotient, each under
    its first few sections."""
    ext = _CATALOG[name]
    cd = centralizer_extension(ext)
    taus = _taus(ext, cd)
    sections = np.array(list(itertools.islice(itertools.product(*_fibers(cd)), 4)))
    h2 = compute_h2(ext.q_group, ext.n_group, ext.action)
    return (ext, cd, h2, np.repeat(taus, len(sections), axis=0),
            np.tile(sections, (len(taus), 1)))


_STACK_CASES = [_stack_case(name) for name in (
    "C2 by C2xC2, class (1, 1, 1)", "C3 by C3, action 0, class (1,)",
    "C4 by C2, action 0, class (1,)", "C3xC4 product", "C2xD3 product")]


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.data())
def test_stacked_primitives_raise_the_oracle_first_error(data):
    ext, cd, h2, taus, lifts = data.draw(st.sampled_from(_STACK_CASES))
    q, n, c = ext.q_group, ext.n_group, cd.c_sub.group
    taus, lifts = taus.copy(), lifts.copy()
    layer = (c, cd.pi, cd.n_in_c, cd.q_action_on_c)
    vals = connecting_values(q, taus, *layer, ext.action, lifts)
    kind = data.draw(st.sampled_from(["none", "cell", "tau", "section", "identity"]))
    b = data.draw(st.integers(0, len(taus) - 1))
    fibers = _fibers(cd)
    if kind == "cell":
        x, y = (data.draw(st.integers(0, q.order - 1)) for _ in range(2))
        vals[b, x, y] = data.draw(st.integers(-1, n.order))
    elif kind == "tau":
        taus[b, data.draw(st.integers(0, q.order - 1))] = data.draw(
            st.integers(0, cd.qbar_group.order - 1))
    elif kind == "section" and len(fibers) > 1:
        j = data.draw(st.integers(1, len(fibers) - 1))
        lifts[b, j] = data.draw(st.sampled_from(
            [a for a in range(c.order) if a not in fibers[j]]))
    elif kind == "identity":
        lifts[b, 0] = data.draw(st.sampled_from(np.flatnonzero(cd.pi.values == 0).tolist()))

    got = outcome(lambda: _check_cocycles(q, n, ext.action, vals))
    want = first_error([partial(oracle_check_cocycle, q, n, ext.action, v) for v in vals])
    assert got == want
    if kind == "none":
        assert got is None

    got = outcome(lambda: connecting_values(q, taus, *layer, ext.action, lifts))
    want = first_error([
        lambda t=t, sec=sec: oracle_check_cocycle(
            q, n, ext.action, oracle_connecting_values(q, t, *layer, sec))
        for t, sec in zip(taus, lifts)])
    assert got == want
    if kind == "none":
        assert got is None

    if 0 <= vals.min() and vals.max() < n.order:
        got = outcome(lambda: h2.reduce_values(vals))
        want = first_error([partial(oracle_reduce, h2, v) for v in vals])
        assert got == want
        if got is None:
            assert _rows(h2.reduce_values(vals)) == [oracle_reduce(h2, v) for v in vals]
