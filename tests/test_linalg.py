"""The order of a row module over Z/L against the Smith form of
`kernel_mod`, and the batched action matrices against a per-actor loop."""

from math import prod
from types import SimpleNamespace

import numpy as np
import pytest

from cohomoring import ValidationError
from cohomoring.catalog import default_catalog
from cohomoring.extension import centralizer_extension
from cohomoring.groups import enumerate_actions, make_cyclic, make_direct_product
from cohomoring.linalg import abelian_decomposition, action_matrices, kernel_mod, row_module_order

MODULI = (2, 3, 4, 6, 8, 9, 12, 16, 27, 30, 36, 60, 64, 81)


def _kernel_index(e: np.ndarray, width: int, modulus: int) -> int:
    return prod(int(u) for u in kernel_mod(e, width, modulus).mu)


def _systems(rng: np.random.Generator, modulus: int):
    """Seeded matrices read mod L: random, with zero, duplicate and scaled
    rows, of low rank, and with entries outside [0, L)."""
    divisors = [d for d in range(1, modulus + 1) if modulus % d == 0]
    for _ in range(6):
        width = int(rng.integers(1, 9))
        rows = int(rng.integers(1, 13))
        e = rng.integers(0, modulus, size=(rows, width))
        yield e
        zeroed = e.copy()
        zeroed[rng.random(rows) < 0.4] = 0
        yield zeroed
        yield np.concatenate([e, e[rng.integers(0, rows, size=rows)]])
        yield e * rng.choice(divisors, size=(rows, 1)) % modulus
        rank = int(rng.integers(1, min(rows, width) + 1))
        yield rng.integers(0, modulus, size=(rows, rank)) @ rng.integers(0, modulus, size=(rank, width)) % modulus
        yield e + modulus * rng.integers(-3, 4, size=e.shape)


@pytest.mark.parametrize("modulus", MODULI)
def test_row_module_order_matches_kernel_mod(modulus):
    rng = np.random.default_rng(modulus)
    for e in _systems(rng, modulus):
        width = e.shape[1]
        want = _kernel_index(e, width, modulus)
        assert row_module_order([e], width, modulus) == want, (modulus, e.tolist())
        # any split of the rows into blocks, empty blocks included
        for _ in range(3):
            cuts = np.sort(rng.integers(0, len(e) + 1, size=int(rng.integers(1, 5))))
            blocks = iter(np.split(e, cuts))
            assert row_module_order(blocks, width, modulus) == want, (modulus, e.tolist(), cuts)


def test_row_module_order_without_rows_or_columns():
    for modulus in MODULI:
        assert row_module_order([], 5, modulus) == 1
        assert row_module_order([np.zeros((0, 5), dtype=np.int64)], 5, modulus) == 1
        assert row_module_order([np.zeros((3, 5), dtype=np.int64)], 5, modulus) == 1
        assert row_module_order([np.zeros((3, 0), dtype=np.int64)], 0, modulus) == 1
        assert row_module_order([np.eye(4, dtype=np.int64)], 4, modulus) == modulus ** 4
    assert row_module_order([np.ones((2, 3), dtype=np.int64)], 3, 1) == 1


def test_row_module_order_holds_pivots_across_many_blocks():
    # more than 4 * width distinct rows arrive, so pivot rows are kept and
    # reduced with later blocks more than once
    rng = np.random.default_rng(7)
    for modulus in (12, 64, 81):
        width = 6
        e = rng.integers(0, modulus, size=(200, width)) * rng.choice([1, 2, 3, 4, 9], size=(200, 1))
        want = _kernel_index(e, width, modulus)
        assert row_module_order(np.split(e, range(5, 200, 5)), width, modulus) == want


def _per_actor_matrices(action, dec):
    """`action_matrices` one actor element at a time: fill its columns,
    check it on every element, raise at the first that fails."""
    c = len(dec.factors)
    fac = np.asarray(dec.factors, dtype=np.int64)
    out = []
    for a in range(action.actor.order):
        m = np.zeros((c, c), dtype=np.int64)
        for j, b in enumerate(dec.basis):
            m[:, j] = dec._coord_table[action.table[a, b]]
        got = (m @ dec._coord_table.T) % fac[:, None]
        if not (got == dec._coord_table[action.table[a]].T).all():
            raise ValidationError(f"action of {a} is not linear in coordinates")
        out.append(m)
    return np.asarray(out, dtype=np.int64).reshape(action.actor.order, c, c)


def _action_cases():
    cases = []
    for ext in (e.materialize() for e in default_catalog()):
        cd = centralizer_extension(ext)
        cases += [ext.action, ext.g_action, cd.q_action_on_c, cd.q_action_on_qbar]
    c2, c4 = make_cyclic(2), make_cyclic(4)
    for module in (make_direct_product(c2, c4)[0], make_direct_product(c2, c2)[0], c4):
        cases += enumerate_actions(c2, module) + enumerate_actions(make_cyclic(3), module)
    return [action for action in cases if action.module.is_abelian()]


def _outcome(build, action, dec):
    try:
        return build(action, dec).tolist()
    except ValidationError as exc:
        return str(exc)


def test_action_matrices_match_the_per_actor_loop():
    """The batched matrices equal the per-actor ones on every action of the
    catalog's layers and on all actions of C2 and C3 on three modules; with
    seeded permutations in two rows, both give the same matrices or refuse
    naming the same first actor."""
    rng = np.random.default_rng(5)
    refused = 0
    for action in _action_cases():
        dec = abelian_decomposition(action.module)
        got = action_matrices(action, dec)
        assert got.shape == (action.actor.order, len(dec.factors), len(dec.factors))
        assert (got == _per_actor_matrices(action, dec)).all()
        order = action.module.order
        table = action.table.copy()
        for a in rng.choice(action.actor.order, size=2):
            table[a, 1:] = 1 + rng.permutation(order - 1)
        tampered = SimpleNamespace(actor=action.actor, module=action.module, table=table)
        want = _outcome(_per_actor_matrices, tampered, dec)
        assert _outcome(action_matrices, tampered, dec) == want
        refused += isinstance(want, str)
    assert refused > 50
