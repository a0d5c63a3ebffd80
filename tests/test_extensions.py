"""Extension layer: validation, sections, classifying cocycles, splitting."""

import numpy as np
import pytest

from cohomoring import ValidationError
from cohomoring.catalog import default_catalog, dihedral_extension
from cohomoring.cohomology2 import compute_h2
from cohomoring.extension import (
    build_extension,
    centralizer_extension,
    extension_from_cocycle,
    extension_from_json,
    extension_to_json,
)
from cohomoring.groups import (
    GroupHom,
    enumerate_actions,
    find_isomorphism,
    make_cyclic,
    make_dihedral,
    make_direct_product,
    trivial_action,
)


def _c4_over_c2():
    c4 = make_cyclic(4)
    c2 = make_cyclic(2)
    i = GroupHom(c2, c4, [0, 2])
    p = GroupHom(c4, c2, [0, 1, 0, 1])
    return build_extension(i, p, name="C4 over 2C4")


def test_dihedral_extension_shape():
    ext = dihedral_extension(6)
    d = ext.describe()
    assert d["kernel_order"] == 6
    assert d["group_order"] == 12
    assert d["quotient_order"] == 2
    assert not d["action_trivial"]
    assert ext.p.compose(ext.i).values.tolist() == [0] * 6
    assert sorted(ext.p.kernel_indices()) == sorted(int(v) for v in ext.i.values)


def test_section_is_right_inverse():
    ext = dihedral_extension(5)
    assert ext.p.values[ext.section].tolist() == list(range(ext.q_group.order))
    assert ext.section[0] == 0


def test_canonical_factorization():
    ext = _c4_over_c2()
    for g in range(4):
        n = ext.kernel_part(g)
        q = int(ext.p.values[g])
        assert ext.element_of(n, q) == g
    assert ext.in_kernel(2) and not ext.in_kernel(1)
    assert sorted(ext.fiber(0).tolist()) == [0, 2]


def test_build_extension_rejects_nonabelian_kernel():
    d3 = make_dihedral(3)
    prod, i, p = make_direct_product(d3, make_cyclic(2))
    with pytest.raises(ValidationError):
        build_extension(i, p)


def test_build_extension_rejects_inexact_pair():
    c4 = make_cyclic(4)
    c2 = make_cyclic(2)
    i = GroupHom(c2, c4, [0, 2])
    p_bad = GroupHom(c4, c4, [0, 1, 2, 3])  # kernel is trivial, not the image of i
    with pytest.raises(ValidationError):
        build_extension(i, p_bad)
    with pytest.raises(ValidationError):
        build_extension(GroupHom(c2, c4, [0, 0], validate=False), GroupHom(c4, c2, [0, 1, 0, 1]))


def test_split_detection():
    assert dihedral_extension(4).is_split()
    assert not _c4_over_c2().is_split()
    s = dihedral_extension(4).find_splitting()
    assert s is not None
    assert _c4_over_c2().find_splitting() is None


def test_splitting_is_a_section_hom():
    ext = dihedral_extension(3)
    s = ext.find_splitting()
    assert ext.p.compose(s).values.tolist() == [0, 1]


def test_split_detection_matches_the_linear_class_over_the_catalog():
    """An extension splits exactly when its classifying class reduces to
    zero on the linear route, and every splitting found is a section."""
    exts = [e.materialize() for e in default_catalog() if e.kind == "extension"]
    seen = set()
    for ext in exts:
        h2 = compute_h2(ext.q_group, ext.n_group, ext.action, method="linear")
        s = ext.find_splitting()
        assert (s is not None) == (h2.reduce(ext.classifying_cocycle()) == h2.zero()), ext.name
        if s is not None:
            assert (ext.p.compose(s).values == np.arange(ext.q_group.order)).all(), ext.name
        seen.add(s is not None)
    assert seen == {True, False}


def test_classifying_cocycle_of_split_extension_is_trivial_class():
    ext = dihedral_extension(4)
    h2 = compute_h2(ext.q_group, ext.n_group, ext.action)
    assert h2.reduce(ext.classifying_cocycle()) == (0,)


def test_classifying_cocycle_of_nonsplit_extension_is_nonzero():
    ext = _c4_over_c2()
    h2 = compute_h2(ext.q_group, ext.n_group, ext.action)
    assert h2.order == 2
    assert h2.reduce(ext.classifying_cocycle()) == (1,)


def test_extension_from_cocycle_round_trip():
    # rebuilding from the classifying cocycle gives an isomorphic middle group
    for make in (lambda: dihedral_extension(3), _c4_over_c2):
        ext = make()
        rebuilt = extension_from_cocycle(ext.classifying_cocycle())
        assert rebuilt.g_group.order == ext.g_group.order
        assert find_isomorphism(rebuilt.g_group, ext.g_group) is not None


def test_every_class_realizes_its_own_cocycle():
    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    for action in enumerate_actions(c2, c4):
        h2 = compute_h2(c2, c4, action)
        for coeffs, rep in h2.classes():
            ext = extension_from_cocycle(rep)
            assert h2.reduce(ext.classifying_cocycle()) == coeffs


def test_quaternion_class_from_cocycle():
    # kernel C4, quotient C2 inverting it: the non-split class is Q8
    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    action = [a for a in enumerate_actions(c2, c4) if not a.is_trivial()][0]
    h2 = compute_h2(c2, c4, action)
    assert h2.invariant_factors == (2,)
    reps = dict(h2.classes())
    q8 = extension_from_cocycle(reps[(1,)])
    assert not q8.is_split()
    orders = sorted(q8.g_group.element_orders().tolist())
    assert orders == [1, 2, 4, 4, 4, 4, 4, 4]
    d4 = extension_from_cocycle(reps[(0,)])
    assert d4.is_split()
    assert find_isomorphism(d4.g_group, make_dihedral(4)) is not None


def test_centralizer_extension_of_dihedral():
    ext = dihedral_extension(4)
    cd = centralizer_extension(ext)
    # rotations are self-centralizing in D4
    assert cd.c_sub.group.order == 4
    assert cd.qbar_group.order == 1
    assert cd.central_ext.n_group is ext.n_group
    assert cd.qbar_in_q.is_injective()


def test_centralizer_extension_of_abelian_product():
    prod, i, p = make_direct_product(make_cyclic(3), make_cyclic(4), name="C3xC4")
    ext = build_extension(i, p)
    cd = centralizer_extension(ext)
    assert cd.c_sub.group.order == 12
    assert cd.qbar_group.order == 4
    assert cd.q_action_on_qbar.is_trivial()


def test_extension_json_round_trip():
    ext = _c4_over_c2()
    data = extension_to_json(ext)
    back = extension_from_json(data)
    assert back.describe()["group_order"] == 4
    assert not back.is_split()
    assert (back.i.values == ext.i.values).all()
    assert (back.p.values == ext.p.values).all()


def test_extension_json_rejects_corrupted_table():
    data = extension_to_json(dihedral_extension(3))
    data["group"]["table"][1][2] = 0
    with pytest.raises(ValidationError):
        extension_from_json(data)


def test_trivial_action_extension_is_direct_product_layer():
    c3 = make_cyclic(3)
    c2 = make_cyclic(2)
    h2 = compute_h2(c2, c3, trivial_action(c2, c3))
    assert h2.order == 1
    ext = extension_from_cocycle(next(h2.classes())[1])
    assert ext.is_split()
    assert max(ext.g_group.element_orders().tolist()) == 6
