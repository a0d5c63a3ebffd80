"""Endomorphism rings and pointed endomorphism sets of an extension.

The central object is the set of endomorphisms of the middle group that act
as the identity on the quotient.  Each such map alpha is pinned down by its
displacement x -> alpha(x) x^{-1}, a crossed homomorphism into the kernel, so
the whole set inherits the twisted ring structure of the crossed homs: the
twisted sum has the identity map as zero, and the twisted product composes
displacements.  This module builds that ring twice (once through crossed
homs, once directly on endomorphism tables) and insists the answers agree;
the second route is checked against each additive generator of the ring, a
certificate that proves every pair.  Both routes locate sums and products
by their values on the core generators, which fix a homomorphism, under a
short proof that each is a member; the first only for generator rows.

Alongside it live the two pointed endomorphism sets of the kernel-centralizer
sequence: endomorphisms of the middle group fixing the kernel pointwise, and
endomorphisms of the quotient preserving the kernel action.  Both are tied to
crossed homomorphisms into the centralizer layers by explicit bijections,
which map whole [member, element] stacks of value tables: each stack is
certified by one `_hom_rows` call, and the first failing member raises the
error a single map would.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cocycles import CocycleRing, CrossedHom, _crossed_law_error, cocycle_ring
from .errors import ValidationError
from .extension import AbelianExtension, CentralizerData
from .groups import (
    ActionTable,
    FiniteGroup,
    GroupHom,
    TableIndex,
    _coset_tables,
    _descend,
    _equivariant_rows,
    _gated_hom_tables,
    _hom_rows,
    _hom_tables,
    _is_bijective,
    _on_walk,
    _positions,
    _raise_first,
)
from .rings import FiniteRing, RingHom, _squares_to_zero, check_ideal, quasi_regular_indices
from .store import SweepStore


# ------------------------------------------------------- module endomorphisms


@dataclass
class ModuleEndoRing:
    """All endomorphisms of an abelian group commuting with a fixed action.

    values[k] is the value table of endomorphism k on the module; the zero
    map sits at index 0.  The ring operations are pointwise sum and
    composition, with mul(a, b) the table of x -> a(b(x)) and the identity
    map as the ring one.
    """

    module: FiniteGroup
    action: ActionTable
    ring: FiniteRing
    values: np.ndarray
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
    """Build the ring of action-compatible endomorphisms of an abelian group.

    Both tables are kept as the coset walk of generator rows, which
    composes each cell read; `groups._coset_tables` holds the proof."""
    if action.module is not module:
        raise ValidationError("action is not an action on the given module")
    if not module.is_abelian():
        raise ValidationError("equivariant endomorphism ring needs an abelian module")
    endos = _hom_tables(module, module)
    stacked = endos[_equivariant_rows(endos, action)]
    if not len(stacked) or stacked[0].any():
        raise ValidationError("zero endomorphism missing: module enumeration is broken")
    index = TableIndex(stacked, module.core_generators, module.order)
    # sums and composites of equivariant endomorphisms of an abelian group are
    # equivariant endomorphisms, and `stacked` holds them all: members by key
    walk, missing = _coset_tables(index, module.table, stacked)
    if missing:
        raise ValidationError(
            "equivariant endomorphisms are not closed under the ring operations",
            witness=missing)
    one = int(index.find(np.arange(module.order)))
    if one < 0:
        raise ValidationError("identity map missing from the equivariant endomorphisms")
    labels = ["end%d" % k for k in range(len(stacked))]
    ring = _on_walk(FiniteRing, walk, walk.add, walk.mul, one=one, labels=labels,
                    name="EquivEnd(%s)" % (module.name or module.order))
    return ModuleEndoRing(module, action, ring, stacked, index)


# ------------------------------------------------- fiber-preserving endo ring


@dataclass
class FiberEndoRing:
    """The twisted ring of endomorphisms inducing the identity on the quotient.

    endos[k] is the value table on the middle group of the endomorphism whose
    displacement is cocycles.values[k]; index 0 is the identity map, which
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
    endos: np.ndarray
    index: TableIndex
    ideal_indices: np.ndarray
    module_ring: ModuleEndoRing
    res: RingHom
    aut_indices: np.ndarray

    @property
    def size(self) -> int:
        return len(self.endos)

    def displacement(self, k: int) -> CrossedHom:
        return self.cocycles.member(k)

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


def fiber_endo_ring(ext: AbelianExtension, store: Optional[SweepStore] = None) -> FiberEndoRing:
    """Build the twisted endomorphism ring of an extension, with cross-checks.

    The module ring End_Q(N) comes from `store` (a fresh one by default), so
    the extensions of one sweep with the same Q-module N share it.

    The construction transports the crossed-homomorphism ring of the middle
    group (conjugation action on the kernel) through Phi(a) = alpha_a,
    alpha_a(x) = i(psi_a(x)) x, certifies every alpha an endomorphism in one
    `_hom_rows` call and Phi a bijection onto the members by the round trip,
    then re-derives both operations on the endomorphism tables, against
    every member a and each additive core generator b of the ring only.
    The twisted sum alpha(x) x^-1 beta(x) and the composite of two members
    are quotient-identity endomorphisms, hence members, each located by its
    values on the core generators of the middle group.

    Distinct members need no sweep: by the round trip back == disps, equal
    endomorphisms would have equal displacements, which the cocycle ring's
    `TableIndex` refuses, and the index built here refuses two endomorphism
    tables that agree on the core generators, even for a repeated row.

    Sum: Phi(a + b) = Phi(a) (+) Phi(b) for all a.  The displacement of
    alpha_a (+) alpha_b is psi_a + psi_b, pointwise in the abelian i(N), so
    the law says psi_{a+b} = psi_a + psi_b.  The b passing it for all a
    contain 0 and are closed under +: psi_{a+b+c} = psi_{a+b} + psi_c =
    psi_a + psi_b + psi_c = psi_a + psi_{b+c}.  So the generators prove it
    on every pair.

    Composition: Phi(a) o Phi(b) = Phi(a + b + ab), the circle product.
    Fix a and read both sides as members f(b); both obey f(b + c) = f(b) +
    f(c) - f(0), with f(0) = a.  On the left, Phi(b + c) = Phi(b) (+)
    Phi(c) by the sum law, and alpha_a(alpha_b(x) x^-1 alpha_c(x)) =
    alpha_a(alpha_b(x)) alpha_a(x)^-1 alpha_a(alpha_c(x)) as alpha_a is a
    certified endomorphism: its displacement is that of alpha_a o alpha_b,
    minus that of alpha_a, plus that of alpha_a o alpha_c.  On the right it
    is the certified left distributivity a(b + c) = ab + ac of the ring.
    So the b on which the sides agree contain 0 and are closed under +, and
    the generators again prove every pair.  The sum is checked first, as
    the composition proof rests on it.

    Invertibles: the inverse map of a bijective alpha_a induces the identity
    on the quotient, so it is a member b, located by its table, and a + b +
    ab = 0 is checked on the ring tables.  As b is bijective with inverse a,
    the check on b is b + a + ba = 0, so every invertible member is
    quasi-regular.  Conversely, a + b + ab = 0 gives Phi(a) o
    Phi(b) = Phi(0) = id by the composition law, so Phi(a) is onto, hence
    bijective.  The invertible members are thus the quasi-regular set, kept
    on the ring for `quasi_regular_indices` without an order^2 circle table.
    A failed check raises with the circle table's set as the witness.
    """
    g = ext.g_group
    n = ext.n_group
    arange = np.arange(g.order, dtype=np.int64)
    cring = cocycle_ring(g, n, ext.g_action, ext.i)

    tg = g.table
    ginv = g.inverse
    ivals = ext.i.values
    pv = ext.p.values
    disps = cring.values
    stacked = tg[ivals[disps], arange]
    back = ext._n_pos[tg[stacked, ginv]]
    _raise_first([
        (~_hom_rows(g, g, stacked), "displacement does not integrate to an endomorphism", disps),
        ((pv[stacked] != pv).any(axis=1), "integrated endomorphism moves the quotient", disps),
        (((back < 0) | (back != disps)).any(axis=1), "displacement round trip failed", disps)])
    size = len(stacked)
    index = TableIndex(stacked, g.core_generators, g.order)
    if not (stacked[0] == arange).all():
        raise ValidationError("zero displacement did not integrate to the identity map")

    ring = cring.ring
    add = ring.add_table
    cols = np.asarray(ring.add_group.core_generators, dtype=np.int64)
    keys = index.keys[cols]  # [j, s] = alpha_{b_j}(s) for the ring generators b_j
    gens = list(g.core_generators)
    disp = tg[stacked[:, gens], ginv[gens]]  # [a, s] = alpha_a(s) s^-1
    # [a, j]: alpha_a(x) x^-1 alpha_b(x) = i(psi_a(x) + psi_b(x)) x, a member
    summed = index.find_keys(tg[disp[:, None, :], keys[None, :, :]])
    if not (summed == ring.add_group._core_right.T).all():  # [a, j] = a + b_j
        raise ValidationError("twisted sum disagrees with displacement sum")
    # [a, j]: alpha_a o alpha_b, a quotient-identity endomorphism, a member,
    # against the circle product (ab + a) + b
    composed = index.find_keys(stacked[:, keys])
    members = np.arange(size)
    if not (composed == add[add[ring.mul_table[:, cols], members[:, None]], cols]).all():
        raise ValidationError("twisted product disagrees with displacement composition")

    ideal = np.flatnonzero(~disps[:, ivals].any(axis=1))
    if not _squares_to_zero(ring, check_ideal(ring, ideal)):
        raise ValidationError("kernel-fixing members do not form a square-zero ideal")

    store = SweepStore() if store is None else store
    module_ring = store.q_module("EndQ", ext.action,
                                 lambda: equivariant_endo_ring(n, ext.action))
    res = RingHom(ring, module_ring.ring, module_ring.locate_all(disps[:, ivals]))

    aut = np.flatnonzero(_is_bijective(stacked))
    # the inverse map of each bijective member, a quotient-identity
    # endomorphism, hence a member; b is bijective with inverse a, so the
    # pairs (a, b) include (b, a) and a + b + ab = 0 on them covers both sides
    inv = index.find(np.argsort(stacked[aut], axis=1))
    if (inv < 0).any() or add[add[aut, inv], ring.mul_table[aut, inv]].any():
        raise ValidationError(
            "invertible members differ from the quasi-regular elements",
            witness=(sorted(quasi_regular_indices(ring)), sorted(aut.tolist())),
        )
    ring._quasi_regular = aut

    return FiberEndoRing(ext, cring, ring, stacked, index, ideal,
                         module_ring, res, aut)


# --------------------------------------------------- pointed endomorphism sets


def kernel_fixing_endos(ext: AbelianExtension) -> np.ndarray:
    """[b, x]: all endomorphisms of the middle group fixing the embedded
    kernel pointwise, in lexicographic order: the images of i(core N) are pinned,
    those of the section lifts u(core Q), which with them generate G, range
    over the elements whose order divides their own."""
    g = ext.g_group
    kernel = [int(ext.i.values[n]) for n in ext.n_group.core_generators]
    lifts = [int(ext.section[s]) for s in ext.q_group.core_generators]
    orders = g.element_orders()
    cands = [[x] for x in kernel] + [np.flatnonzero(orders[u] % orders == 0) for u in lifts]
    return _gated_hom_tables(g, g, cands, kernel + lifts)


def action_preserving_quotient_endos(ext: AbelianExtension) -> np.ndarray:
    """[b, x]: the endomorphisms of the quotient leaving the kernel action
    unchanged, in lexicographic order: x -> act[phi(x)] and x -> act[x] are
    homomorphisms into Aut(N), equal once equal on the core generators."""
    q = ext.q_group
    act = ext.action.table
    core = list(q.core_generators)
    endos = _hom_tables(q, q)
    return endos[(act[endos[:, core]] == act[core]).all(axis=(1, 2))]


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
