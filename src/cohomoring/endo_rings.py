"""Endomorphism rings and pointed endomorphism sets of an extension.

The central object is the set of endomorphisms of the middle group that act
as the identity on the quotient.  Each such map alpha is pinned down by its
displacement x -> alpha(x) x^{-1}, a crossed homomorphism into the kernel, so
the whole set inherits the twisted ring structure of the crossed homs: the
twisted sum has the identity map as zero, and the twisted product composes
displacements.  This module builds that ring twice (once through crossed
homs, once directly on endomorphism tables) and insists the answers agree.
Both routes locate every sum and product by its values on the core
generators, which fix a homomorphism, under a short proof that it is a
member.

Alongside it live the two pointed endomorphism sets of the kernel-centralizer
sequence: endomorphisms of the middle group fixing the kernel pointwise, and
endomorphisms of the quotient preserving the kernel action.  Both are tied to
crossed homomorphisms into the centralizer layers by explicit bijections,
which map whole [member, element] stacks of value tables: each stack is
certified by one `_hom_rows` call, and the first failing member raises the
error a single map would.
"""

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .cocycles import CocycleRing, CrossedHom, _crossed_law_error, cocycle_ring
from .errors import ValidationError
from .extension import AbelianExtension, CentralizerData
from .groups import (
    ActionTable,
    FiniteGroup,
    GroupHom,
    TableIndex,
    _descend,
    _gated_hom_tables,
    _hom_rows,
    _is_bijective,
    _positions,
    _raise_first,
    enumerate_endos,
)
from .linalg import _unique_rows
from .rings import FiniteRing, RingHom, check_ideal, is_square_zero_ideal, quasi_regular_indices


# ------------------------------------------------------- module endomorphisms


@dataclass
class ModuleEndoRing:
    """All endomorphisms of an abelian group commuting with a fixed action.

    elements[k] is the value table of endomorphism k on the module; the zero
    map sits at index 0.  The ring operations are pointwise sum and
    composition, with mul(a, b) the table of x -> a(b(x)) and the identity
    map as the ring one.
    """

    module: FiniteGroup
    action: ActionTable
    ring: FiniteRing
    elements: Tuple[np.ndarray, ...]
    index: TableIndex

    def locate(self, values) -> int:
        return int(self.locate_all(np.asarray(values)[None])[0])

    def locate_all(self, stack) -> np.ndarray:
        """Positions of the maps in `stack` (last axis: value tables), found
        by one `TableIndex.find`; any miss raises."""
        k = self.index.find(stack)
        if (k < 0).any():
            raise ValidationError("map is not an equivariant endomorphism of the module")
        return k


def equivariant_endo_ring(module: FiniteGroup, action: ActionTable) -> ModuleEndoRing:
    """Build the ring of action-compatible endomorphisms of an abelian group."""
    if action.module is not module:
        raise ValidationError("action is not an action on the given module")
    if not module.is_abelian():
        raise ValidationError("equivariant endomorphism ring needs an abelian module")
    act = action.table
    kept: List[np.ndarray] = []
    for h in enumerate_endos(module):
        v = h.values
        if (v[act] == act[:, v]).all():
            kept.append(v)
    if not kept or kept[0].any():
        raise ValidationError("zero endomorphism missing: module enumeration is broken")
    stacked = np.stack(kept)
    index = TableIndex(stacked, module.core_generators, module.order)
    # sums and composites of equivariant endomorphisms of an abelian group are
    # equivariant endomorphisms, and `kept` holds them all: members by key
    tm = module.table
    keys = index.keys
    add = index.find_pairs(lambda rows: tm[keys[rows, None, :], keys[None, :, :]])
    mul = index.find_pairs(lambda rows: stacked[rows][:, keys])
    missing = (add < 0) | (mul < 0)
    if missing.any():
        a = int(np.argmax(missing.any(axis=1)))
        raise ValidationError(
            "equivariant endomorphisms are not closed under the ring operations",
            witness=(a, int(np.argmax(missing[a]))),
        )
    one = int(index.find(np.arange(module.order)))
    if one < 0:
        raise ValidationError("identity map missing from the equivariant endomorphisms")
    labels = ["end%d" % k for k in range(len(kept))]
    ring = FiniteRing(add, mul, one=one, labels=labels,
                      name="EquivEnd(%s)" % (module.name or module.order))
    return ModuleEndoRing(module, action, ring, tuple(kept), index)


# ------------------------------------------------- fiber-preserving endo ring


@dataclass
class FiberEndoRing:
    """The twisted ring of endomorphisms inducing the identity on the quotient.

    endos[k] is the value table on the middle group of the endomorphism whose
    displacement is cocycles.elements[k]; index 0 is the identity map, which
    is the zero of the ring.  ideal_indices lists the members fixing the
    kernel pointwise; they form a two-sided ideal whose products all vanish.
    res is the restriction-of-displacement map into the equivariant
    endomorphism ring of the kernel, verified to respect both operations.
    aut_indices lists the invertible members, which coincide with the
    quasi-regular elements of the ring.
    """

    ext: AbelianExtension
    cocycles: CocycleRing
    ring: FiniteRing
    endos: Tuple[np.ndarray, ...]
    index: TableIndex
    ideal_indices: np.ndarray
    module_ring: ModuleEndoRing
    res: RingHom
    aut_indices: np.ndarray

    @property
    def size(self) -> int:
        return len(self.endos)

    def displacement(self, k: int) -> CrossedHom:
        return self.cocycles.elements[k]

    def endo_values(self, k: int) -> np.ndarray:
        return self.endos[k]

    def locate(self, values) -> int:
        k = int(self.index.find(values))
        if k < 0:
            raise ValidationError("map does not induce the identity on the quotient")
        return k

    def restriction_values(self, k: int) -> np.ndarray:
        """The endomorphism of the kernel induced by member k (kernel positions)."""
        ext = self.ext
        return ext._n_pos[self.endos[k][ext.i.values]]

    def restriction_index(self, k: int) -> int:
        """Position of member k's kernel restriction inside module_ring."""
        return self.module_ring.locate(self.restriction_values(k))


def fiber_endo_ring(ext: AbelianExtension) -> FiberEndoRing:
    """Build the twisted endomorphism ring of an extension, with cross-checks.

    The construction transports the crossed-homomorphism ring of the middle
    group (conjugation action on the kernel) through alpha(x) = i(psi(x)) x,
    certifies every alpha an endomorphism in one `_hom_rows` call, then
    re-derives both operations on the endomorphism tables and requires
    exact agreement.  The composite of two members is a quotient-identity
    endomorphism, hence a member, located by its values on the core
    generators; it must be the circle product a + b + ab, which fixes the
    product table once the sums agree.  The twisted sum alpha(x) x^-1 beta(x)
    integrates the pointwise sum of two crossed homs, so it too is a member
    located by its values on the core generators.
    """
    g = ext.g_group
    n = ext.n_group
    arange = np.arange(g.order, dtype=np.int64)
    cring = cocycle_ring(g, n, ext.g_action, ext.i)

    tg = g.table
    ginv = g.inverse
    ivals = ext.i.values
    pv = ext.p.values
    disps = np.stack([psi.values for psi in cring.elements])
    stacked = tg[ivals[disps], arange]
    back = ext._n_pos[tg[stacked, ginv]]
    _raise_first([
        (~_hom_rows(g, g, stacked), "displacement does not integrate to an endomorphism", disps),
        ((pv[stacked] != pv).any(axis=1), "integrated endomorphism moves the quotient", disps),
        (((back < 0) | (back != disps)).any(axis=1), "displacement round trip failed", disps)])
    endos = list(stacked)
    size = len(endos)
    if len(_unique_rows(stacked)) != size:
        raise ValidationError("distinct displacements produced equal endomorphisms")
    index = TableIndex(stacked, g.core_generators, g.order)
    if not (endos[0] == arange).all():
        raise ValidationError("zero displacement did not integrate to the identity map")

    # alpha_a(x) x^-1 alpha_b(x) = i(psi_a(x) + psi_b(x)) x integrates a
    # crossed hom (N is abelian), so the twisted sum is a member.
    ring = cring.ring
    keys = index.keys
    gens = list(g.core_generators)
    disp = tg[stacked[:, gens], ginv[gens]]  # [a, s] = alpha_a(s) s^-1
    add2 = index.find_pairs(lambda rows: tg[disp[rows][:, None, :], keys[None, :, :]])
    if not (add2 == ring.add_table).all():
        raise ValidationError("twisted sum disagrees with displacement sum")
    # alpha_a o alpha_b is a quotient-identity endomorphism, hence a member.
    comp = index.find_pairs(lambda rows: stacked[rows][:, keys])
    members = np.arange(size)
    circle = ring.add_table[ring.add_table[ring.mul_table, members[:, None]], members]
    if not (comp == circle).all():
        raise ValidationError("twisted product disagrees with displacement composition")

    ideal = np.flatnonzero(~disps[:, ivals].any(axis=1))
    check_ideal(ring, ideal)
    if not is_square_zero_ideal(ring, ideal):
        raise ValidationError("kernel-fixing members do not form a square-zero ideal")

    module_ring = equivariant_endo_ring(n, ext.action)
    res = RingHom(ring, module_ring.ring, module_ring.locate_all(disps[:, ivals]))

    aut = np.flatnonzero(_is_bijective(stacked))
    qr_indices = quasi_regular_indices(ring)
    if set(qr_indices) != set(aut.tolist()):
        raise ValidationError(
            "invertible members differ from the quasi-regular elements",
            witness=(sorted(qr_indices), sorted(aut.tolist())),
        )
    # The circle check above already makes the quasi-regular star composition.

    return FiberEndoRing(ext, cring, ring, tuple(endos), index, ideal,
                         module_ring, res, aut)


# --------------------------------------------------- pointed endomorphism sets


def kernel_fixing_endos(ext: AbelianExtension) -> List[np.ndarray]:
    """All endomorphisms of the middle group fixing the embedded kernel
    pointwise, in `enumerate_endos` order: the images of i(core N) are pinned,
    those of the section lifts u(core Q), which with them generate G, range
    over the elements whose order divides their own."""
    g = ext.g_group
    kernel = [int(ext.i.values[n]) for n in ext.n_group.core_generators]
    lifts = [int(ext.section[s]) for s in ext.q_group.core_generators]
    orders = g.element_orders()
    cands = [[x] for x in kernel] + [np.flatnonzero(orders[u] % orders == 0) for u in lifts]
    return _gated_hom_tables(g, g, cands, kernel + lifts)


def action_preserving_quotient_endos(ext: AbelianExtension) -> List[np.ndarray]:
    """Endomorphisms of the quotient group that leave the kernel action unchanged."""
    act = ext.action.table
    return [h.values for h in enumerate_endos(ext.q_group) if (act[h.values] == act).all()]


def _crossed_layer_values(w: np.ndarray, embedding: GroupHom, action: ActionTable,
                          escape: str) -> np.ndarray:
    """[b, q]: the position of w[b, q] in the layer that `embedding` embeds,
    each row certified a crossed hom under `action` by one `_hom_rows` call;
    `escape` is the error of a member with a value outside the layer."""
    vals = _positions(embedding.target.order, embedding.values)[w]
    escapes = vals < 0
    _raise_first([
        (escapes.any(axis=1), escape, np.argmax(escapes, axis=1).tolist()),
        (~_hom_rows(action.actor, action.module, vals, action),
         lambda k: _crossed_law_error(action, vals[k]), None)])
    return vals


def centralizer_displacements(cd: CentralizerData, alphas) -> np.ndarray:
    """[b, q]: the displacement q -> alpha_b(u(q)) u(q)^{-1} of each
    kernel-fixing endomorphism alphas[b] ([b, x]), a crossed hom into the
    kernel centralizer under the quotient action on it."""
    g = cd.ext.g_group
    u = cd.ext.section
    alphas = np.asarray(alphas, dtype=np.int64).reshape(-1, g.order)
    return _crossed_layer_values(g.table[alphas[:, u], g.inverse[u]], cd.c_sub.embedding,
                                 cd.q_action_on_c, "displacement escapes the kernel centralizer")


def endos_from_centralizer_displacements(cd: CentralizerData, phis) -> np.ndarray:
    """[b, x]: the kernel-fixing endomorphism n u(q) -> n phi_b(q) u(q) that
    integrates each centralizer-valued crossed hom phis[b] ([b, q])."""
    ext = cd.ext
    g = ext.g_group
    phis = np.asarray(phis, dtype=np.int64).reshape(-1, ext.q_group.order)
    pv = ext.p.values
    u_of = ext.section[pv]
    em = ext.i.values
    npart = ext._n_pos[g.table[np.arange(g.order), g.inverse[u_of]]]
    vals = g.table[g.table[em[npart], cd.c_sub.embedding.values[phis[:, pv]]], u_of]
    _raise_first([
        (~_hom_rows(g, g, vals), "centralizer displacement does not integrate", phis),
        ((vals[:, em] != em).any(axis=1), "integrated endomorphism moves the kernel", phis)])
    return vals


def induced_quotient_endos(ext: AbelianExtension, alphas) -> np.ndarray:
    """[b, q]: the quotient endomorphism each kernel-preserving endomorphism
    alphas[b] ([b, x]) of the middle group descends to."""
    q = ext.q_group
    pv = ext.p.values
    alphas = np.asarray(alphas, dtype=np.int64).reshape(-1, ext.g_group.order)
    _, down, bad = _descend(pv, pv[alphas].T)
    induced, bad = down.T, bad.T
    _raise_first([
        (bad.any(axis=1), "endomorphism does not descend to the quotient",
         np.argmax(bad, axis=1).tolist()),
        (~_hom_rows(q, q, induced), "descended map is not an endomorphism", None)])
    return induced


def quotient_endo_displacements(cd: CentralizerData, phis) -> np.ndarray:
    """[b, x]: the displacement x -> phi_b(x) x^{-1} of each action-preserving
    quotient endo phis[b] ([b, x]), a crossed hom into the central quotient
    layer, which embeds as the kernel of the action."""
    q = cd.ext.q_group
    phis = np.asarray(phis, dtype=np.int64).reshape(-1, q.order)
    return _crossed_layer_values(q.table[phis, q.inverse], cd.qbar_in_q, cd.q_action_on_qbar,
                                 "quotient displacement escapes the kernel of the action")


def quotient_endos_from_displacements(cd: CentralizerData, taus) -> np.ndarray:
    """[b, x]: the quotient endo x -> tau_b(x) x that integrates each crossed
    hom taus[b] ([b, x]) into the central quotient layer."""
    q = cd.ext.q_group
    taus = np.asarray(taus, dtype=np.int64).reshape(-1, q.order)
    vals = q.table[cd.qbar_in_q.values[taus], np.arange(q.order)]
    act = cd.ext.action.table
    _raise_first([
        (~_hom_rows(q, q, vals), "quotient displacement does not integrate", taus),
        ((act[vals] != act).any(axis=(1, 2)),
         "integrated quotient endo changes the kernel action", None)])
    return vals
