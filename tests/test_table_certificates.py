"""Group, ring and map certificates against the validators they replaced.

`FiniteGroup`, `FiniteRing`, `GroupHom`, `CrossedHom`, `RingHom` and
`BimoduleAction` prove the same statements as before with less work (see
`table_oracles`).  These tests require the same verdict, error text and
witness from both on mutated tables and maps, and check the helpers that
replaced `np.unique`.
"""

import os
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohomoring import ValidationError
from cohomoring.catalog import dihedral_extension
from cohomoring.cocycles import CrossedHom, enumerate_z1
from cohomoring.cohomology2 import TwoCocycle, compute_h2, inflation
from cohomoring.groups import (
    FiniteGroup,
    GroupHom,
    enumerate_actions,
    enumerate_automorphisms,
    enumerate_homs,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    mulclose,
    subgroup_from_indices,
)
from cohomoring.linalg import _unique_rows, abelian_decomposition
from cohomoring.rings import BimoduleAction, FiniteRing, RingHom, zn_ring

from table_oracles import (
    _old_greedy_generators,
    old_bimodule_outcome,
    old_crossed_hom_outcome,
    old_group_hom_outcome,
    old_group_outcome,
    old_ring_hom_outcome,
    old_ring_outcome,
)

SRC = str(Path(__file__).resolve().parents[1] / "src")


def _quaternion_table():
    # the quaternion group Q8: sign * unit for signs 1, -1 and units 1, i, j, k
    units = ["1", "i", "j", "k"]
    prod = {("1", u): (1, u) for u in units}
    prod.update({(u, "1"): (1, u) for u in units})
    prod.update({("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
                 ("i", "j"): (1, "k"), ("j", "k"): (1, "i"), ("k", "i"): (1, "j"),
                 ("j", "i"): (-1, "k"), ("k", "j"): (-1, "i"), ("i", "k"): (-1, "j")})
    elems = [(s, u) for s in (1, -1) for u in units]
    table = np.zeros((8, 8), dtype=np.int64)
    for x, (s1, u1) in enumerate(elems):
        for y, (s2, u2) in enumerate(elems):
            s, u = prod[(u1, u2)]
            table[x, y] = elems.index((s1 * s2 * s, u))
    return table, [1, 2]


def _base_groups():
    out = [(make_cyclic(n).table, list(make_cyclic(n).generators)) for n in range(1, 9)]
    out += [(make_dihedral(n).table, [1, 2]) for n in (3, 4, 5)]
    for a, b in ((2, 2), (2, 4), (3, 3), (2, 6)):
        g = make_direct_product(make_cyclic(a), make_cyclic(b))[0]
        out.append((g.table, list(g.generators)))
    out.append(_quaternion_table())
    return out


BASE_GROUPS = _base_groups()


def _new_group_outcome(table, generators):
    try:
        g = FiniteGroup(table, generators)
    except ValidationError as exc:
        return str(exc), exc.witness
    return "ok", g.generators, g.core_generators, g.inverse.tolist()


def _intercalates(t):
    """(r1, r2, c1, c2) away from row and column 0 with t[r1,c1] = t[r2,c2]
    and t[r1,c2] = t[r2,c1]: swapping those two symbols keeps a Latin square."""
    n = t.shape[0]
    out = []
    for r1 in range(1, n):
        for r2 in range(r1 + 1, n):
            for c1 in range(1, n):
                for c2 in range(c1 + 1, n):
                    if t[r1, c1] == t[r2, c2] and t[r1, c2] == t[r2, c1]:
                        out.append((r1, r2, c1, c2))
    return out


def _switch(t, r1, r2, c1, c2):
    a, b = t[r1, c1], t[r1, c2]
    t[r1, c1] = t[r2, c2] = b
    t[r1, c2] = t[r2, c1] = a


def _mutate(data, t):
    n = t.shape[0]
    t = t.copy()
    kind = data.draw(st.sampled_from(["cell", "swap", "row_swap", "intercalate", "intercalate",
                                      "intercalate", "symbols", "relabel"]))
    if kind == "cell":
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        t[i, j] = data.draw(st.integers(-1, n))
    elif kind == "swap":
        i, j, k, m = (data.draw(st.integers(0, n - 1)) for _ in range(4))
        t[i, j], t[k, m] = t[k, m], t[i, j]
    elif kind == "row_swap":  # rows stay permutations
        i, j, m = (data.draw(st.integers(0, n - 1)) for _ in range(3))
        t[i, j], t[i, m] = t[i, m], t[i, j]
    elif kind == "intercalate":
        found = _intercalates(t)
        if found:
            _switch(t, *data.draw(st.sampled_from(found)))
    elif kind == "symbols":
        perm = np.asarray(data.draw(st.permutations(range(n))), dtype=np.int64)
        t = perm[t]
    else:  # a relabelling that fixes 0 keeps a group a group
        perm = np.asarray([0] + data.draw(st.permutations(range(1, n))), dtype=np.int64)
        inv = np.argsort(perm)
        t = perm[t[inv][:, inv]]
    return t


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_group_certificate_matches_the_old_validator(data):
    table, gens = data.draw(st.sampled_from(BASE_GROUPS))
    n = table.shape[0]
    for _ in range(data.draw(st.integers(0, 2))):
        table = _mutate(data, table)
    gens = data.draw(st.sampled_from([
        None, gens, [], [n], gens + gens,
        data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3)),
    ]))
    assert _new_group_outcome(table, gens) == old_group_outcome(table, gens)


def _bilinear_ring(p, consts):
    """F_p^d with the bilinear product whose value on basis vectors i, j is
    consts[i][j] (a vector); distributive, associative or not."""
    d = len(consts)
    n = p ** d
    vec = np.asarray([[(x // p ** i) % p for i in range(d)] for x in range(n)], dtype=np.int64)
    code = p ** np.arange(d)
    add = ((vec[:, None, :] + vec[None, :, :]) % p) @ code
    c = np.asarray(consts, dtype=np.int64)  # [i, j, l]
    prod = np.einsum("xi,yj,ijl->xyl", vec, vec, c) % p
    return add, prod @ code


def _base_rings(data):
    kind = data.draw(st.sampled_from(["zn", "zn", "bilinear", "bilinear", "nonabelian"]))
    if kind == "zn":
        r = zn_ring(data.draw(st.integers(1, 9)))
        return r.add_table, r.mul_table, r.one
    if kind == "nonabelian":
        add = make_dihedral(3).table
        return add, np.zeros_like(add), None
    p, d = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 2)]))
    consts = [[[data.draw(st.integers(0, p - 1)) for _ in range(d)] for _ in range(d)]
              for _ in range(d)]
    add, mul = _bilinear_ring(p, consts)
    return add, mul, None


def _new_ring_outcome(add, mul, one):
    try:
        r = FiniteRing(add, mul, one=one)
    except ValidationError as exc:
        return str(exc), exc.witness
    g = r.add_group
    return "ok", ("ok", g.generators, g.core_generators, g.inverse.tolist())


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_ring_certificate_matches_the_old_validator(data):
    add, mul, one = _base_rings(data)
    add, mul = add.copy(), mul.copy()
    n = add.shape[0]
    for _ in range(data.draw(st.integers(0, 2))):
        kind = data.draw(st.sampled_from(["mul", "mul_swap", "row", "column", "add", "one",
                                          "transpose"]))
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if kind == "mul":
            mul[i, j] = data.draw(st.integers(-1, n))
        elif kind in ("row", "column"):  # x -> j x, additive: one law keeps holding
            multiple = np.zeros(n, dtype=np.int64)
            for _ in range(j):
                multiple = add[multiple, np.arange(n)]
            if kind == "row":
                mul[i] = multiple
            else:
                mul[:, i] = multiple
        elif kind == "mul_swap":
            k, m = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            mul[i, j], mul[k, m] = mul[k, m], mul[i, j]
        elif kind == "add":
            add[i, j] = data.draw(st.integers(0, n - 1))
        elif kind == "one":
            one = data.draw(st.integers(-1, n))
        else:
            mul = mul.T.copy()
    assert _new_ring_outcome(add, mul, one) == old_ring_outcome(add, mul, one)


def test_certificate_failures_match_the_old_validator():
    # a distributive but non-associative product on F_2^2
    add, mul = _bilinear_ring(2, [[[0, 1], [0, 0]], [[0, 0], [1, 0]]])
    out = old_ring_outcome(add, mul)
    assert out[0].startswith("multiplication not associative")
    assert _new_ring_outcome(add, mul, None) == out
    r = zn_ring(6)
    mul = r.mul_table.copy()
    mul[2, 3] = 1
    assert _new_ring_outcome(r.add_table, mul, None) == old_ring_outcome(r.add_table, mul)
    assert old_ring_outcome(r.add_table, mul)[0].startswith("left distributivity fails")
    # an intercalate switch of C2 x C4: a Latin table with identity and
    # two-sided inverses that Light's test refuses
    g = make_direct_product(make_cyclic(2), make_cyclic(4))[0]
    t = g.table.copy()
    _switch(t, *_intercalates(t)[0])
    out = old_group_outcome(t, g.generators)
    assert out[0].startswith("associativity fails")
    assert _new_group_outcome(t, g.generators) == out


@lru_cache(maxsize=None)
def _map_bases():
    """Lists of (kind, source, target, action, valid maps) for homomorphisms,
    crossed homomorphisms under every action (trivial or not, onto abelian
    and nonabelian modules) and additive maps of rings; the trivial group
    and the zero ring are among the sources."""
    c1, c2, c3, c4 = (make_cyclic(n) for n in (1, 2, 3, 4))
    v4 = make_direct_product(c2, c2)[0]
    d3 = make_dihedral(3)
    small = [c1, c2, c4, make_cyclic(6), d3, make_dihedral(4), v4,
             FiniteGroup(*_quaternion_table())]
    homs = [("hom", a, b, None, [h.values for h in enumerate_homs(a, b)])
            for a in small for b in small]
    crossed = [("crossed", q, n, action, [z.values for z in enumerate_z1(q, n, action)])
               for q, n in ((c1, c3), (c2, c4), (c2, v4), (c3, v4), (c2, d3), (c3, d3), (d3, c3))
               for action in enumerate_actions(q, n)]
    rings = _small_rings()
    additive = [("ring", a, b, None, [h.values for h in enumerate_homs(a.add_group, b.add_group)])
                for a in rings for b in rings]
    return homs, crossed, additive


@lru_cache(maxsize=None)
def _small_rings():
    """Z/n for n = 1, 2, 4, 6, F2 x F2, and the upper triangular 2x2 matrices
    over F2 (basis E11, E12, E22), which is not commutative."""
    rings = [zn_ring(n) for n in (1, 2, 4, 6)]
    rings.append(FiniteRing(*_bilinear_ring(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]])))
    upper = [[[0] * 3 for _ in range(3)] for _ in range(3)]
    upper[0][0], upper[0][1], upper[1][2], upper[2][2] = [1, 0, 0], [0, 1, 0], [0, 1, 0], [0, 0, 1]
    rings.append(FiniteRing(*_bilinear_ring(2, upper)))
    return tuple(rings)


def _map_outcome(kind, source, target, action, values):
    try:
        if kind == "hom":
            GroupHom(source, target, values)
        elif kind == "crossed":
            CrossedHom(source, target, action, values)
        else:
            RingHom(source, target, values)
    except ValidationError as exc:
        return str(exc), exc.witness
    return "ok"


@settings(derandomize=True, database=None, max_examples=400, deadline=None)
@given(st.data())
def test_map_certificates_match_the_old_validators(data):
    bases = data.draw(st.sampled_from(_map_bases()))
    kind, source, target, action, valid = data.draw(st.sampled_from(bases))
    v = np.array(data.draw(st.sampled_from(valid)), dtype=np.int64)
    n, t = source.order, target.order
    for _ in range(data.draw(st.integers(0, 2))):
        mutation = data.draw(st.sampled_from(["cell", "swap", "constant", "identity", "random"]))
        if mutation == "cell":
            v[data.draw(st.integers(0, n - 1))] = data.draw(st.integers(0, t - 1))
        elif mutation == "swap":
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            v[i], v[j] = v[j], v[i]
        elif mutation == "constant":
            v[:] = data.draw(st.integers(0, t - 1))
        elif mutation == "identity":
            v[0] = data.draw(st.integers(min(1, t - 1), t - 1))
        else:  # a random map that sends e to e
            v = np.asarray([0] + data.draw(st.lists(st.integers(0, t - 1), min_size=n - 1,
                                                    max_size=n - 1)), dtype=np.int64)
    if kind == "hom":
        want = old_group_hom_outcome(source, target, v)
    elif kind == "crossed":
        want = old_crossed_hom_outcome(source, target, action, v)
    else:
        want = old_ring_hom_outcome(source, target, v)
    assert _map_outcome(kind, source, target, action, v) == want


def _bimodule_outcome(r_ring, s_group, left, right):
    try:
        BimoduleAction(r_ring=r_ring, s_group=s_group, left=left, right=right)
    except ValidationError as exc:
        return str(exc), exc.witness
    return "ok"


@lru_cache(maxsize=None)
def _bimodule_bases():
    """(ring, carrier, left, right, automorphisms of the carrier): each ring
    on itself by multiplication on both sides, and Z/n on C_n by
    multiplication on the left and zero on the right."""
    bases = [(r, r.add_group, r.mul_table, r.mul_table) for r in _small_rings()]
    bases += [(zn_ring(n), make_cyclic(n), zn_ring(n).mul_table, np.zeros((n, n), dtype=np.int64))
              for n in (3, 4, 6)]
    return [(*b, [h.values for h in enumerate_automorphisms(b[1])]) for b in bases]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_bimodule_certificate_matches_the_old_validator(data):
    ring, group, lt, rt, auts = data.draw(st.sampled_from(_bimodule_bases()))
    lt, rt = lt.copy(), rt.copy()
    n = group.order
    multiples = [np.zeros(n, dtype=np.int64)]  # multiples[j] is s -> j s
    for _ in range(n):
        multiples.append(group.table[multiples[-1], np.arange(n)])
    for _ in range(data.draw(st.integers(1, 2))):
        mutation = data.draw(st.sampled_from(["cell", "swap", "multiple", "scale", "opposite",
                                              "conjugate", "conjugate", "zero"]))
        side = lt if data.draw(st.booleans()) else rt.T
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        if mutation == "cell":
            side[i, j] = data.draw(st.integers(0, n - 1))
        elif mutation == "swap":
            side[i, j], side[j, i] = side[j, i], side[i, j]
        elif mutation == "multiple":
            side[i] = multiples[j]
        elif mutation == "scale":
            side[:] = multiples[j][side]
        elif mutation == "opposite":
            lt, rt = rt.T.copy(), lt.T.copy()
        elif mutation == "conjugate":  # s -> a(side(a^-1 s)): one side stays an action
            a = data.draw(st.sampled_from(auts))
            side[:] = a[side[:, np.argsort(a)]]
        else:
            side[:] = 0
    assert _bimodule_outcome(ring, group, lt, rt) == old_bimodule_outcome(ring, group, lt, rt)


# Rows are permutations and every element has a two-sided inverse, but
# column 1 is not a permutation, and the powers of 1 run 1, 2, 3, 2, 3, ...
# without returning to 0.
NO_RETURN = [
    [0, 1, 2, 3, 4],
    [1, 2, 3, 4, 0],
    [2, 3, 0, 4, 1],
    [3, 2, 4, 0, 1],
    [4, 0, 1, 2, 3],
]


def test_powers_that_never_return_are_refused_promptly():
    old = old_group_outcome(NO_RETURN, None)
    assert old == ("some column of the group table is not a permutation", None)
    code = ("from cohomoring.groups import FiniteGroup\n"
            "from cohomoring import ValidationError\n"
            f"try:\n    FiniteGroup({NO_RETURN!r}, None)\n"
            "except ValidationError as exc:\n    print(exc)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == old[0]


@pytest.mark.parametrize("argv", [["examples", "ring432"], ["examples", "dihedral", "24"]])
def test_examples_do_not_import_numpy_ma(argv):
    code = ("import io, contextlib, sys\n"
            "from cohomoring.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "print('numpy.ma' in sys.modules)\n")
    env = dict(os.environ, PYTHONPATH=SRC)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_unique_rows_matches_numpy_unique():
    rng = np.random.default_rng(5)
    for _ in range(500):
        rows, cols = int(rng.integers(0, 7)), int(rng.integers(0, 5))
        lo, hi = sorted(int(v) for v in rng.integers(-3, 5, size=2))
        m = rng.integers(lo, hi + 1, size=(rows, cols))
        got, want = _unique_rows(m), np.unique(m, axis=0)
        assert got.shape == want.shape and (got == want).all()


def test_subgroup_generators_match_the_ambient_greedy_pick():
    for g in (make_dihedral(6), make_direct_product(make_cyclic(4), make_cyclic(6))[0]):
        for seeds in ([2], [1], [1, 4], [3, 5], [0]):
            idx = mulclose(g, seeds)
            sub = subgroup_from_indices(g, idx)
            pos = {a: i for i, a in enumerate(idx)}
            old = [pos[a] for a in _old_greedy_generators(g.table, idx)]
            assert list(sub.group.generators) == old


def test_abelian_decomposition_is_kept_on_the_group():
    g = make_direct_product(make_cyclic(2), make_cyclic(4))[0]
    assert abelian_decomposition(g) is abelian_decomposition(g)


def test_inflated_classes_pass_the_cocycle_certificate():
    for k in (3, 4, 6):
        ext = dihedral_extension(k)
        h2 = compute_h2(ext.q_group, ext.n_group, ext.action)
        for _, rep in h2.classes():
            up = inflation(rep, ext.p, ext.g_action)
            TwoCocycle(up.q_group, up.n_group, up.action, up.values)
