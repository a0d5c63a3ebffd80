"""Group core: construction laws, homs, subgroup machinery, actions, JSON,
and the value-table index."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cohomoring import BudgetExceeded, ValidationError, groups
from cohomoring.extension import build_extension
from cohomoring.groups import (
    FiniteGroup,
    GroupHom,
    TableIndex,
    aut_group,
    center,
    centralizer,
    conjugation_action,
    enumerate_actions,
    enumerate_automorphisms,
    enumerate_endos,
    enumerate_homs,
    find_isomorphism,
    group_from_json,
    group_to_json,
    hom_make,
    identity_hom,
    image,
    inversion_action,
    is_normal,
    kernel,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    make_semidirect_group,
    mulclose,
    quotient,
    subgroup_from_indices,
    trivial_action,
)


def test_cyclic_basic_laws():
    g = make_cyclic(6)
    assert g.order == 6
    assert g.is_abelian()
    assert g.element_order(0) == 1
    assert g.element_order(1) == 6
    assert g.element_order(2) == 3
    assert g.element_order(3) == 2
    assert sorted(g.element_orders().tolist()) == [1, 2, 3, 3, 6, 6]
    assert g.inverse[2] == 4


def test_cyclic_rejects_nonpositive():
    with pytest.raises(ValidationError):
        make_cyclic(0)


def test_trivial_group():
    g = make_cyclic(1)
    assert g.order == 1
    assert g.element_order(0) == 1


def test_identity_must_sit_at_index_zero():
    # C2 table with the identity placed second
    with pytest.raises(ValidationError):
        FiniteGroup([[1, 0], [0, 1]], [1])


def test_rows_must_be_permutations():
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 1], [1, 1]], [1])


def test_inverses_must_exist_two_sided():
    # 3x3 latin square that is not a group table (no associativity / inverses)
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    with pytest.raises(ValidationError):
        FiniteGroup(table, [1, 2])


def test_generators_must_generate():
    g = make_cyclic(4)
    with pytest.raises(ValidationError):
        FiniteGroup(g.table, [2])


def test_labels_must_be_unique():
    with pytest.raises(ValidationError):
        FiniteGroup([[0, 1], [1, 0]], [1], labels=["e", "e"])


def test_associativity_rejected(monkeypatch):
    # row/column permutations with identity but a*(b*c) != (a*b)*c somewhere
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    with pytest.raises(ValidationError):
        FiniteGroup(table, [1, 2])
    # no budget, however small, switches the check off
    monkeypatch.setenv("COHOMORING_BUDGET", "0.005")
    with pytest.raises(ValidationError, match="associativity fails") as info:
        FiniteGroup(table, [1, 2])
    a, b, c = info.value.witness
    assert table[table[a][b]][c] != table[a][table[b][c]]


def test_dihedral_structure():
    d = make_dihedral(4)
    assert d.order == 8
    assert not d.is_abelian()
    # element 2i+j is y^i x^j: index 1 is a reflection, index 2 the rotation
    assert d.element_order(1) == 2
    assert d.element_order(2) == 4
    assert d.labels[0] == "e"
    with pytest.raises(ValidationError):
        make_dihedral(2)


def test_direct_product_projections():
    g, i_a, p_b = make_direct_product(make_cyclic(3), make_cyclic(4), name="C3xC4")
    assert g.order == 12
    assert g.is_abelian()
    assert i_a.is_injective()
    assert p_b.is_surjective()
    assert p_b.compose(i_a).values.tolist() == [0, 0, 0]
    # C3 x C4 is cyclic of order 12
    assert max(g.element_orders().tolist()) == 12


def test_semidirect_product_is_dihedral():
    c3 = make_cyclic(3)
    c2 = make_cyclic(2)
    sd, i_n, p_q = make_semidirect_group(c3, c2, inversion_action(c2, c3))
    assert sd.order == 6
    assert not sd.is_abelian()
    assert find_isomorphism(sd, make_dihedral(3)) is not None


def test_hom_validation():
    c4 = make_cyclic(4)
    c2 = make_cyclic(2)
    h = GroupHom(c4, c2, [0, 1, 0, 1])
    assert h.is_surjective() and not h.is_injective()
    assert h.kernel_indices() == [0, 2]
    with pytest.raises(ValidationError):
        GroupHom(c4, c2, [0, 1, 1, 0])
    with pytest.raises(ValidationError):
        GroupHom(c4, c2, [1, 0, 1, 0])


def test_hom_compose_and_inverse():
    c6 = make_cyclic(6)
    auto = GroupHom(c6, c6, [(5 * k) % 6 for k in range(6)])
    assert auto.is_bijective()
    assert auto.inverse_hom().compose(auto).same_values(identity_hom(c6))
    assert hom_make(c6, c6, [5]).same_values(auto)


def test_enumerate_homs_and_endos_counts():
    c4 = make_cyclic(4)
    c2 = make_cyclic(2)
    assert len(enumerate_homs(c2, c4)) == 2
    assert len(enumerate_homs(c4, c2)) == 2
    assert len(enumerate_endos(c4)) == 4
    assert len(enumerate_automorphisms(c4)) == 2
    assert len(enumerate_endos(make_dihedral(3))) == 10
    # a repeated generator's image must still be checked
    assert len(enumerate_endos(FiniteGroup(c4.table, [1, 1]))) == 4
    # so must the trivial group's generator 0, which no BFS word reads
    with pytest.raises(ValidationError):
        hom_make(make_cyclic(1), c4, [3])


def test_discovery_words_are_built_once_per_group_and_generators(monkeypatch):
    """The BFS discovery list of a generator search is kept on the source
    group per generator tuple, and equals a fresh build."""
    built = []
    bfs_words = groups._bfs_words

    def counted(g, gens):
        built.append((g, tuple(gens)))
        return bfs_words(g, gens)

    monkeypatch.setattr(groups, "_bfs_words", counted)
    g = make_dihedral(6)
    first = [h.values.tolist() for h in enumerate_endos(g)]
    assert [h.values.tolist() for h in enumerate_endos(g)] == first
    assert built == [(g, g.core_generators)]
    assert g._bfs[g.core_generators] == bfs_words(g, g.core_generators)


def test_aut_group_sizes():
    assert aut_group(make_cyclic(12))[0].order == 4
    v4, _, _ = make_direct_product(make_cyclic(2), make_cyclic(2))
    assert aut_group(v4)[0].order == 6


def test_enumerate_actions_counts():
    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    acts = enumerate_actions(c2, c4)
    assert len(acts) == 2
    trivial = [a for a in acts if a.is_trivial()]
    assert len(trivial) == 1
    assert len(enumerate_actions(make_cyclic(3), c4)) == 1


def test_mulclose_and_subgroup():
    d = make_dihedral(6)
    rot = mulclose(d, [2])
    assert sorted(rot) == [0, 2, 4, 6, 8, 10]
    sub = subgroup_from_indices(d, rot)
    assert sub.group.order == 6
    assert sub.embedding.is_injective()
    assert is_normal(d, rot)
    refl = mulclose(d, [1])
    assert sorted(refl) == [0, 1]
    assert not is_normal(d, refl)
    with pytest.raises(ValidationError):
        subgroup_from_indices(d, [1, 2])  # not closed


def test_quotient_of_dihedral_by_rotations():
    d = make_dihedral(5)
    rot = mulclose(d, [2])
    q, proj = quotient(d, rot)
    assert q.order == 2
    assert proj.is_surjective()
    assert sorted(proj.kernel_indices()) == sorted(rot)
    with pytest.raises(ValidationError):
        quotient(d, mulclose(d, [1]))  # reflections are not normal


def test_kernel_image_subgroups():
    c12 = make_cyclic(12)
    c4 = make_cyclic(4)
    h = GroupHom(c12, c4, [k % 4 for k in range(12)])
    assert kernel(h).group.order == 3
    assert image(h).group.order == 4


def test_center_and_centralizer():
    assert center(make_dihedral(4)).group.order == 2
    assert center(make_dihedral(3)).group.order == 1
    d = make_dihedral(3)
    rot = mulclose(d, [2])
    assert centralizer(d, rot).group.order == 3


def test_conjugation_action_layers():
    d = make_dihedral(4)
    rot = mulclose(d, [2])
    sub = subgroup_from_indices(d, rot)
    act_g = conjugation_action(d, sub.embedding)
    assert act_g.actor is d and act_g.module is sub.group
    # a reflection conjugates the rotation to its inverse
    assert act_g.table[1, 1] == 3
    ext = build_extension(sub.embedding, quotient(d, sub)[1])
    assert ext.action.actor.order == 2
    assert (ext.g_action.table == act_g.table).all()
    refl = subgroup_from_indices(d, mulclose(d, [1]))
    with pytest.raises(ValidationError):
        conjugation_action(d, refl.embedding)


def test_trivial_action_flag():
    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    assert trivial_action(c2, c4).is_trivial()
    assert not inversion_action(c2, c4).is_trivial()


def test_find_isomorphism_positive_and_negative():
    c6 = make_cyclic(6)
    prod, _, _ = make_direct_product(make_cyclic(2), make_cyclic(3))
    iso = find_isomorphism(c6, prod)
    assert iso is not None and iso.is_bijective()
    v4, _, _ = make_direct_product(make_cyclic(2), make_cyclic(2))
    assert find_isomorphism(make_cyclic(4), v4) is None


def test_find_isomorphism_is_gated_by_candidates_not_order(monkeypatch):
    """D40, of order 80, is found isomorphic to C40 x| C2 by search over its
    two core generators: 41 involutions times 16 elements of order 40, 656
    candidates, which a budget of 500 refuses."""
    c40 = make_cyclic(40)
    c2 = make_cyclic(2)
    sd, _, _ = make_semidirect_group(c40, c2, inversion_action(c2, c40))
    d40 = make_dihedral(40)
    iso = find_isomorphism(d40, sd)
    assert iso is not None and iso.source is d40 and iso.is_bijective()
    assert (iso.values[d40.table] == sd.table[iso.values[:, None], iso.values]).all()
    monkeypatch.setenv("COHOMORING_BUDGET", "0.0005")
    with pytest.raises(BudgetExceeded, match="^hom search needs 656 candidates, budget 500$"):
        find_isomorphism(d40, sd)


def test_group_json_round_trip():
    d = make_dihedral(3)
    data = group_to_json(d)
    back = group_from_json(data, name="D3")
    assert back.order == d.order
    assert (back.table == d.table).all()
    assert back.labels == d.labels
    data_bad = group_to_json(d)
    data_bad["order"] = 7
    with pytest.raises(ValidationError):
        group_from_json(data_bad)
    with pytest.raises(ValidationError):
        group_from_json({"table": [[0]]})


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(st.data())
def test_table_index_matches_a_dict_oracle(data):
    """`find`, `find_keys` and `find_pairs` against dicts keyed by the full
    row and by the key, on random tables: absent keys, rows with values
    below 0 or at or above radix, repeated keys, no key positions and a
    single member."""
    radix = data.draw(st.integers(1, 5), label="radix")
    width = data.draw(st.integers(1, 5), label="width")
    positions = data.draw(st.lists(st.integers(0, width - 1), unique=True), label="positions")
    members = data.draw(st.integers(1, 10), label="members")
    values = st.lists(st.integers(0, radix - 1), min_size=width, max_size=width)
    tables = np.array(data.draw(st.lists(values, min_size=members, max_size=members),
                                label="tables"), dtype=np.int64).reshape(members, width)
    keys = [tuple(row) for row in tables[:, positions].tolist()]
    if len(set(keys)) < members:
        with pytest.raises(ValidationError, match="agree on every key position"):
            TableIndex(tables, positions, radix)
        return
    index = TableIndex(tables, positions, radix)
    by_row = {tuple(row): k for k, row in enumerate(tables.tolist())}
    by_key = {key: k for k, key in enumerate(keys)}

    wild = st.lists(st.integers(-2, radix + 1) | st.just(10 ** 6),
                    min_size=width, max_size=width)
    rows = data.draw(st.lists(wild | st.sampled_from(tables.tolist()), max_size=8), label="rows")
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), width)
    assert index.find(rows).tolist() == [by_row.get(tuple(r), -1) for r in rows.tolist()]
    for r in rows:
        assert int(index.find(r)) == by_row.get(tuple(r.tolist()), -1)
    assert index.find(np.zeros((2, width + 1), dtype=np.int64)).tolist() == [-1, -1]

    key = st.lists(st.integers(0, radix - 1), min_size=len(positions), max_size=len(positions))
    probes = data.draw(st.lists(key | st.sampled_from(keys), max_size=8), label="keys")
    probes = np.array(probes, dtype=np.int64).reshape(len(probes), len(positions))
    assert index.find_keys(probes).tolist() == [by_key.get(tuple(p), -1) for p in probes.tolist()]

    pair_keys = np.array(data.draw(st.lists(key | st.sampled_from(keys),
                                            min_size=members ** 2, max_size=members ** 2),
                                   label="pair keys"), dtype=np.int64)
    pair_keys = pair_keys.reshape(members, members, len(positions))
    want = [[by_key.get(tuple(p), -1) for p in row] for row in pair_keys.tolist()]
    cells = data.draw(st.sampled_from([1, 7, groups._SEARCH_BLOCK_CELLS]), label="block cells")
    saved, groups._SEARCH_BLOCK_CELLS = groups._SEARCH_BLOCK_CELLS, cells
    try:
        assert index.find_pairs(lambda block: pair_keys[block]).tolist() == want
    finally:
        groups._SEARCH_BLOCK_CELLS = saved


def test_table_index_edge_cases():
    one = TableIndex([[2, 0, 1]], [], 3)
    assert one.find([2, 0, 1]) == 0 and one.find([2, 0, 2]) == -1
    assert one.find_keys(np.zeros((4, 0), dtype=np.int64)).tolist() == [0] * 4
    with pytest.raises(ValidationError, match="agree on every key position"):
        TableIndex([[0, 1], [1, 0]], [], 2)
    with pytest.raises(ValidationError, match="agree on every key position"):
        TableIndex([[0, 1, 1], [0, 1, 0]], [1, 0], 2)
    with pytest.raises(ValidationError, match=r"values must lie in \[0, 2\)"):
        TableIndex([[0, 2]], [0], 2)
    for positions in ([], [1]):
        with pytest.raises(ValidationError, match="at least one table"):
            TableIndex(np.zeros((0, 2), dtype=np.int64), positions, 2)
    index = TableIndex([[0, 1], [1, 1]], [0], 2)
    assert index.find([[10 ** 6, 1], [-1, 1], [1, 1]]).tolist() == [-1, -1, 1]


def test_table_dtype_is_int16_up_to_32767_then_int32():
    assert groups._table_dtype(32767) == np.int16
    assert groups._table_dtype(32768) == np.int32
    assert groups._table_dtype(groups._NARROW_FROM_ORDER) == np.int16
    assert groups._table_dtype(groups._NARROW_FROM_ORDER - 1) == np.int64


@pytest.mark.parametrize("entry", [65537, -65535])
def test_group_table_range_check_runs_before_the_narrowing_cast(entry):
    # either entry wraps to the element 1 in int16, the dtype of this table
    n = groups._NARROW_FROM_ORDER
    assert groups._table_dtype(n) == np.int16 and np.int16(entry % 65536) == 1
    table = make_cyclic(n).table.astype(np.int64)
    assert FiniteGroup(table, [1]).table.dtype == np.int16
    table[2, n - 1] = entry  # the cell of 2 + (n - 1) = 1: wrapped, the table is a group
    with pytest.raises(ValidationError, match="group table entries must be element indices"):
        FiniteGroup(table, [1])


def test_table_index_over_int16_tables_matches_int64():
    # radix 300 and three key positions: a prefix cell node * 300 + v leaves
    # int16 from the second level on, so the index must not compute in the
    # dtype of the tables
    rng = np.random.default_rng(16)
    radix, positions = 300, [0, 2, 4]
    m = 150
    keys = np.unique(rng.integers(0, radix, size=(400, 3)), axis=0)[:m]
    tables = rng.integers(0, radix, size=(m, 6))
    tables[:, positions] = rng.permutation(keys)
    probes = np.concatenate([tables[::3], rng.integers(0, radix, size=(40, 6))])
    members = tables[:, positions][rng.integers(0, m, size=(m, m))]
    pair_keys = np.where(rng.random((m, m, 1)) < 0.5, members,
                         rng.integers(0, radix, size=(m, m, 3)))
    results = []
    for dtype in (np.int64, np.int16):
        index = TableIndex(tables.astype(dtype), positions, radix)
        results.append((index.find(probes.astype(dtype)).tolist(),
                        index.find_keys(probes[:, positions].astype(dtype)).tolist(),
                        index.find_pairs(lambda rows: pair_keys[rows].astype(dtype)).tolist()))
    assert results[0] == results[1]
    found, by_key, pairs = results[0]
    assert found[:50] == list(range(0, m, 3)) and max(found[50:]) < 0
    assert by_key[:50] == found[:50]
    assert sum(k >= 0 for row in pairs for k in row) >= m * m // 3
