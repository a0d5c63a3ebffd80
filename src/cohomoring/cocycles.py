"""Crossed homomorphisms from a finite group into a group it acts on.

A crossed homomorphism twists the homomorphism law by the action on the
target: the value at a product is the value at the first factor times the
translated value at the second.  The target may be nonabelian (such maps
still form a pointed set, which is all the exactness checks need); the
additive and ring structure is only available over abelian targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import ValidationError
from .groups import (ActionTable, FiniteGroup, GroupHom, TableIndex, _coset_tables,
                     _equivariant_rows, _gated_hom_tables, _hom_rows, _on_walk, _proved)
from .rings import FiniteRing

__all__ = [
    "CrossedHom",
    "z1_zero",
    "z1_add",
    "z1_neg",
    "z1_diamond",
    "post_compose",
    "restrict_to_module",
    "inflate",
    "enumerate_z1",
    "CocycleRing",
    "cocycle_ring",
]


class CrossedHom:
    """A map phi with phi(xy) = phi(x) * (x . phi(y)) and phi(e) = e.

    The law on all pairs is proved by the generator certificate
    `groups._hom_rows` under the action; the full sweep of all pairs runs
    only once it has failed, to name the first failing pair.
    """

    def __init__(self, source: FiniteGroup, module: FiniteGroup, action: ActionTable, values):
        self.source = source
        self.module = module
        self.action = action
        self.values = np.asarray(values, dtype=np.int64)
        self._validate()

    def _validate(self) -> None:
        s = self.source.order
        m = self.module.order
        v = self.values
        if self.action.actor is not self.source or self.action.module is not self.module:
            raise ValidationError("action must be of the source group on the module")
        if v.shape != (s,):
            raise ValidationError(f"need {s} values, got shape {v.shape}")
        if v.min() < 0 or v.max() >= m:
            raise ValidationError("crossed homomorphism value out of range")
        if not _hom_rows(self.source, self.module, v[None], self.action)[0]:
            raise _crossed_law_error(self.action, v)

    def __call__(self, x: int) -> int:
        return int(self.values[x])

    def same_values(self, other: "CrossedHom") -> bool:
        return bool((self.values == other.values).all())

    def key(self) -> bytes:
        return self.values.tobytes()


def _crossed_law_error(action: ActionTable, v: np.ndarray) -> ValidationError:
    """The error naming the first failure of the crossed law by the values v,
    which failed the certificate `_hom_rows` under the action."""
    if v[0] != 0:
        return ValidationError("crossed homomorphism must send identity to identity")
    # some pair fails exactly when the certificate does
    moved = action.table[:, v]          # [x, y] = x . phi(y)
    law = action.module.table[v[:, None], moved]
    x, y = map(int, np.argwhere(law != v[action.actor.table])[0])
    return ValidationError(f"crossed homomorphism law fails at ({x}, {y})", witness=(x, y))


def z1_zero(source: FiniteGroup, module: FiniteGroup, action: ActionTable) -> CrossedHom:
    return CrossedHom(source, module, action, np.zeros(source.order, dtype=np.int64))


def _require_same_data(a: CrossedHom, b: CrossedHom) -> None:
    if a.source is not b.source or a.module is not b.module:
        raise ValidationError("crossed homomorphisms live over different data")
    if not (a.action.table == b.action.table).all():
        raise ValidationError("crossed homomorphisms use different actions")


def z1_add(a: CrossedHom, b: CrossedHom) -> CrossedHom:
    """Pointwise sum; the target must be abelian for this to stay crossed."""
    _require_same_data(a, b)
    if not a.module.is_abelian():
        raise ValidationError("pointwise sum needs an abelian target")
    return CrossedHom(a.source, a.module, a.action, a.module.table[a.values, b.values])


def z1_neg(a: CrossedHom) -> CrossedHom:
    if not a.module.is_abelian():
        raise ValidationError("pointwise negation needs an abelian target")
    return CrossedHom(a.source, a.module, a.action, a.module.inverse[a.values])


def z1_diamond(a: CrossedHom, b: CrossedHom, embedding: GroupHom) -> CrossedHom:
    """The composition product: x -> a(embed(b(x))).

    embedding realizes the module inside the source group, so values of b can
    be fed back into a.
    """
    _require_same_data(a, b)
    if embedding.source is not a.module or embedding.target is not a.source:
        raise ValidationError("embedding must map the module into the source group")
    return CrossedHom(a.source, a.module, a.action,
                      a.values[embedding.values[b.values]])


def post_compose(a: CrossedHom, hom: GroupHom, target_action: ActionTable) -> CrossedHom:
    """Push values forward along an equivariant homomorphism of modules."""
    if hom.source is not a.module:
        raise ValidationError("homomorphism domain must be the module")
    if target_action.actor is not a.source or target_action.module is not hom.target:
        raise ValidationError("target action must be of the source on the new module")
    lhs = hom.values[a.action.table]
    rhs = target_action.table[:, hom.values]
    if not (lhs == rhs).all():
        raise ValidationError("homomorphism is not equivariant for the two actions")
    return CrossedHom(a.source, hom.target, target_action, hom.values[a.values])


def restrict_to_module(a: CrossedHom, embedding: GroupHom) -> GroupHom:
    """Restrict along the module's embedding; the result is a plain endomorphism."""
    if embedding.source is not a.module or embedding.target is not a.source:
        raise ValidationError("embedding must map the module into the source group")
    return GroupHom(a.module, a.module, a.values[embedding.values])


def inflate(a: CrossedHom, proj: GroupHom, source_action: ActionTable) -> CrossedHom:
    """Pull back along a surjection onto the source group."""
    if proj.target is not a.source:
        raise ValidationError("projection must land in the source group")
    if not proj.is_surjective():
        raise ValidationError("projection must be surjective")
    if source_action.actor is not proj.source or source_action.module is not a.module:
        raise ValidationError("pulled-back action must be of the new source on the module")
    if not (source_action.table == a.action.table[proj.values]).all():
        raise ValidationError("action does not factor through the projection")
    return CrossedHom(proj.source, a.module, source_action, a.values[proj.values])


def _z1_table(source: FiniteGroup, module: FiniteGroup, action: ActionTable) -> np.ndarray:
    """[b, x]: the value tables of all crossed homomorphisms, in
    lexicographic order, from the |module|^k images of the k core
    generators, gated by `search_candidates`, propagated and certified by
    the twisted law in `_search_generator_images`.  A crossed homomorphism
    is fixed by its values on generators, so nothing is missed."""
    if action.actor is not source or action.module is not module:
        raise ValidationError("action must be of the source group on the module")
    gens = source.core_generators
    return _gated_hom_tables(source, module, [np.arange(module.order)] * len(gens), gens,
                             action, "{used} generator candidates exceeds budget {limit}")


def enumerate_z1(source: FiniteGroup, module: FiniteGroup,
                 action: ActionTable) -> List[CrossedHom]:
    """All crossed homomorphisms, the rows of `_z1_table` in its order."""
    return [_proved(CrossedHom, source=source, module=module, action=action, values=vals)
            for vals in _z1_table(source, module, action)]


@dataclass
class CocycleRing:
    """The ring of crossed homomorphisms under pointwise sum and composition.

    values[k] is the value table of member k, values[0] the zero map; index
    keys each value table by its values on the core generators of the
    source, which fix a crossed homomorphism, and `locate` confirms a hit on
    the full table; ring is the explicit table ring over these members.
    """

    ring: FiniteRing
    values: np.ndarray
    index: TableIndex
    embedding: GroupHom
    action: ActionTable

    def member(self, k: int) -> CrossedHom:
        """Member k as a crossed homomorphism, its row certified by the search."""
        action = self.action
        return _proved(CrossedHom, source=action.actor, module=action.module, action=action,
                       values=self.values[k])

    def locate(self, a: CrossedHom) -> int:
        k = int(self.index.find(a.values))
        if k < 0:
            raise ValidationError("crossed homomorphism is not in the enumerated ring")
        return k


def cocycle_ring(source: FiniteGroup, module: FiniteGroup, action: ActionTable,
                 embedding: GroupHom) -> CocycleRing:
    """Build the crossed-homomorphism ring for an embedded abelian module.

    Every sum and product is located by its values on the core generators,
    which is sound because each is proved crossed and `_z1_table` lists
    every crossed homomorphism.  A sum is crossed because the module is
    abelian and the action is by automorphisms.  A product x -> a(i(b(x))) is
    crossed when a o i is an additive equivariant endomorphism of the module,
    which `_hom_rows` and `_equivariant_rows` certify per member; a member
    failing it is refused.  For the conjugation action on a normal subgroup,
    as in `fiber_endo_ring`, every member passes.  Both tables are filled
    coset by coset from generator rows; `groups._coset_tables` holds the
    proof.
    """
    if not module.is_abelian():
        raise ValidationError("the crossed-homomorphism ring needs an abelian module")
    stacked = _z1_table(source, module, action)
    index = TableIndex(stacked, source.core_generators, module.order)
    if stacked[0].any():
        raise ValidationError("zero map must sort first")
    restricted = stacked[:, embedding.values]  # [a, m] = a(i(m))
    certified = _hom_rows(module, module, restricted) & _equivariant_rows(restricted, action)
    uncertified = np.flatnonzero(~certified)
    if uncertified.size:
        raise ValidationError(
            "crossed homomorphisms not closed under the ring operations: member "
            f"{int(uncertified[0])} composed with the embedding is not an "
            "equivariant endomorphism of the module")
    # a + b is crossed: the module is abelian, the action by automorphisms;
    # a o i is an equivariant endomorphism, so a(i(b(x))) is crossed
    walk, missing = _coset_tables(index, module.table, restricted)
    if missing:
        raise ValidationError(
            f"crossed homomorphisms not closed under the ring operations at {missing}")
    ring = _on_walk(FiniteRing, walk, walk.add, walk.mul, one=None, name="Z1")
    return CocycleRing(ring=ring, values=stacked, index=index, embedding=embedding,
                       action=action)
