"""Every budget refusal, reached on a tiny input at a small budget, with its
exact text: each gate of the package names the count it refused and the
limit it read, and refuses before it builds a table."""

import tracemalloc

import numpy as np
import pytest

from cohomoring import BudgetExceeded, rings
from cohomoring.catalog import catalog_from_json, sweep
from cohomoring.cocycles import enumerate_z1
from cohomoring.cohomology2 import TwoCocycle, coboundary_preimage, compute_h2, h2_order
from cohomoring.endo_rings import equivariant_endo_ring
from cohomoring.groups import (aut_group, enumerate_endos, group_to_json, make_cyclic,
                               make_direct_product, trivial_action)
from cohomoring.rings import BimoduleAction, FiniteRing, semidirect_ring, zn_ring


def _v4():
    return make_direct_product(make_cyclic(2), make_cyclic(2))[0]


def _pair(q, n):
    """Q, N and the trivial action of C_q on C_n."""
    qg, ng = make_cyclic(q), make_cyclic(n)
    return qg, ng, trivial_action(qg, ng)


def _z1():
    v4, c32 = _v4(), make_cyclic(32)
    return enumerate_z1(v4, c32, trivial_action(v4, c32))


def _coboundary():
    v4, c32 = _v4(), make_cyclic(32)
    act = trivial_action(v4, c32)
    return coboundary_preimage(TwoCocycle(v4, c32, act, np.zeros((4, 4), dtype=np.int64)))


def _module_ring():
    v4 = _v4()
    return equivariant_endo_ring(v4, trivial_action(make_cyclic(1), v4))


def _semidirect_action():
    r, s = zn_ring(3), make_cyclic(3)
    mul = np.array([[(a * b) % 3 for b in range(3)] for a in range(3)])
    return BimoduleAction(r_ring=r, s_group=s, left=mul, right=np.zeros((3, 3), dtype=np.int64))


def _z5_tables():
    idx = np.arange(5)
    return FiniteRing((idx[:, None] + idx) % 5, (idx[:, None] * idx) % 5)


# At COHOMORING_BUDGET=0.001: ring_check_max_order 4, search_candidates
# 1000, h2_linear_size 4.
REFUSALS = [
    ("enumerate_z1", _z1, "1024 generator candidates exceeds budget 1000"),
    ("_h2_linear", lambda: compute_h2(*_pair(4, 2), method="linear"),
     "9 cocycle variables exceeds budget 4"),
    ("_h2_bruteforce", lambda: compute_h2(*_pair(3, 6), method="bruteforce"),
     "1296 candidate tables exceeds budget 1000"),
    ("compute_h2", lambda: compute_h2(*_pair(4, 3)),
     "no cohomology method fits the current budget"),
    ("_coboundary_gate", _coboundary, "1024 coboundary candidates exceeds budget 1000"),
    ("h2_order", lambda: h2_order(*_pair(6, 2), 2), "5 cocycle variables exceeds budget 4"),
    ("_coset_tables", _module_ring, "ring order 16 exceeds check budget 4"),
    ("_gated_hom_tables",
     lambda: enumerate_endos(make_direct_product(_v4(), _v4())[0]),
     "hom search needs 65536 candidates, budget 1000"),
    ("FiniteRing", _z5_tables, "ring order 5 exceeds check budget 4"),
    ("aut_group", lambda: aut_group(_v4()), "automorphism group order 6 exceeds check budget 4"),
    ("zn_ring", lambda: zn_ring(5), "ring order 5 exceeds check budget 4"),
    ("semidirect_ring", lambda: semidirect_ring(_semidirect_action()),
     "ring order 9 exceeds check budget 4"),
]


@pytest.mark.parametrize("site, build, text", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_every_refusal_keeps_its_text(monkeypatch, site, build, text):
    monkeypatch.setenv("COHOMORING_BUDGET", "0.001")
    with pytest.raises(BudgetExceeded) as got:
        build()
    assert str(got.value) == text, site
    frame = "__init__" if site == "FiniteRing" else site
    assert frame in [entry.name for entry in got.traceback], site


def test_order_squared_constructions_refuse_before_their_tables(monkeypatch):
    """`zn_ring` and `semidirect_ring` read `ring_check_max_order` before
    they build an order^2 table: `zn_ring(5000)` would fill two 200 MB
    tables, and here traces less than a megabyte."""
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceeded, match="^ring order 5000 exceeds check budget 4096$"):
            zn_ring(5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6
    action = _semidirect_action()
    built = []
    monkeypatch.setattr(rings, "_in_table_dtype", lambda *a: built.append(a))
    monkeypatch.setenv("COHOMORING_BUDGET", "0.001")
    with pytest.raises(BudgetExceeded, match="^ring order 9 exceeds check budget 4$"):
        semidirect_ring(action)
    assert built == []


def test_a_c2_4_kernel_gives_one_failed_row_before_its_automorphism_table(monkeypatch):
    """A catalog quadruple whose kernel is C2^4 reaches `aut_group` through
    `enumerate_actions`; its 20160-element table would take tens of seconds
    and gigabytes, and at the default budget `ring_check_max_order` refuses
    it first, as one failed row."""
    monkeypatch.delenv("COHOMORING_BUDGET", raising=False)
    kernel = _v4()
    kernel = make_direct_product(kernel, kernel)[0]
    quad = {"quotient_group": group_to_json(make_cyclic(1)), "kernel_group": group_to_json(kernel),
            "action": [list(range(16))], "cocycle": [[0]]}
    doc = {"entries": [{"name": "C2^4 by C1", "kind": "extension", "quadruple": quad}]}
    assert sweep(catalog_from_json(doc))["entries"] == [
        {"name": "C2^4 by C1", "kind": "extension", "ok": False,
         "error": "automorphism group order 20160 exceeds check budget 4096"}]
