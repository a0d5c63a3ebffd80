"""Extensions of finite groups with abelian kernel.

An extension here is a short exact sequence of table groups: an injective map
from an abelian kernel, a surjection onto a quotient, matching image and
kernel in the middle, together with the canonical minimal-index section of
the surjection, the conjugation action of the middle group on the kernel and
the action of the quotient it descends to.  Conjugation tables come from
`groups._conjugation_rows` and fiber representatives and descent checks
from `groups._descend`.  Everything is validated exhaustively at
construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .cohomology2 import TwoCocycle, coboundary_preimage
from .errors import ValidationError, _json_name, require_keys
from .groups import (
    ActionTable,
    FiniteGroup,
    GroupHom,
    Subgroup,
    _as_int_array,
    _conjugation_rows,
    _descend,
    _positions,
    _in_table_dtype,
    centralizer,
    group_to_json,
    quotient,
)
from .store import SweepStore

__all__ = [
    "AbelianExtension",
    "build_extension",
    "extension_from_cocycle",
    "CentralizerData",
    "centralizer_extension",
    "extension_to_json",
    "extension_from_json",
]


class AbelianExtension:
    """A validated short exact sequence with abelian kernel.

    `section[q]` is the least element of G over q, `g_action` the conjugation
    action of G on the kernel and `action` the action of Q it descends to.
    Construct through `build_extension`; the constructor only stores fields
    that the builder has already checked.
    """

    def __init__(self, n_group: FiniteGroup, g_group: FiniteGroup, q_group: FiniteGroup,
                 i: GroupHom, p: GroupHom, section: np.ndarray, action: ActionTable,
                 g_action: ActionTable, name: str = ""):
        self.n_group = n_group
        self.g_group = g_group
        self.q_group = q_group
        self.i = i
        self.p = p
        self.section = section
        self.action = action
        self.g_action = g_action
        self.name = name or f"{n_group.name or n_group.order}-by-{q_group.name or q_group.order}"
        self._n_pos = _positions(g_group.order, i.values)

    def fiber(self, q: int) -> np.ndarray:
        return np.flatnonzero(self.p.values == q)

    def in_kernel(self, g: int) -> bool:
        return bool(self._n_pos[g] >= 0)

    def kernel_part(self, g: int) -> int:
        """The kernel index n in the canonical factorization g = i(n) u(p(g))."""
        gg = self.g_group
        u = int(self.section[self.p.values[g]])
        n = int(self._n_pos[gg.mul(g, gg.inv(u))])
        if n < 0:
            raise ValidationError(f"element {g} failed canonical factorization")
        return n

    def element_of(self, n: int, q: int) -> int:
        return self.g_group.mul(int(self.i.values[n]), int(self.section[q]))

    def classifying_cocycle(self) -> TwoCocycle:
        """The 2-cocycle measuring the failure of the section to be a map of groups."""
        gg = self.g_group
        u = self.section
        uu = gg.table[u[:, None], u[None, :]]
        uprod = gg.inverse[u[self.q_group.table]]
        vals = self._n_pos[gg.table[uu, uprod]]
        if (vals < 0).any():
            raise ValidationError("section defect escaped the kernel")
        return TwoCocycle(self.q_group, self.n_group, self.action, vals)

    def find_splitting(self) -> Optional[GroupHom]:
        """A homomorphic section of the surjection, or None if there is none.

        The extension splits exactly when its classifying cocycle f is a
        coboundary, and then x -> i(-c(x)) u(x) is a homomorphism for any c
        with coboundary f: u(x) u(y) = i(f(x, y)) u(xy) and
        f(x, y) = x.c(y) - c(xy) + c(x).  `coboundary_preimage` finds such a
        c or proves there is none.
        """
        c = coboundary_preimage(self.classifying_cocycle())
        if c is None:
            return None
        values = self.g_group.table[self.i.values[self.n_group.inverse[c]], self.section]
        return GroupHom(self.q_group, self.g_group, values)

    def is_split(self) -> bool:
        return self.find_splitting() is not None

    def describe(self) -> dict:
        return {
            "name": self.name,
            "kernel_order": self.n_group.order,
            "group_order": self.g_group.order,
            "quotient_order": self.q_group.order,
            "action_trivial": self.action.is_trivial(),
        }


def build_extension(i: GroupHom, p: GroupHom, name: str = "") -> AbelianExtension:
    """Validate a short exact sequence and derive its section and both actions."""
    n_group = i.source
    g_group = i.target
    q_group = p.target
    if p.source is not g_group:
        raise ValidationError("kernel map and surjection do not share the middle group")
    if not n_group.is_abelian():
        raise ValidationError("kernel group must be abelian")
    if not i.is_injective():
        raise ValidationError("kernel map must be injective")
    if not p.is_surjective():
        raise ValidationError("quotient map must be surjective")
    image = set(int(v) for v in i.values)
    kernel = set(int(g) for g in np.flatnonzero(p.values == 0))
    if image != kernel:
        extra = sorted(image - kernel) + sorted(kernel - image)
        raise ValidationError(
            f"kernel image and surjection kernel differ at {extra[:4]}", witness=extra[:4])
    # canonical section: least group index in each fiber; conjugation by each
    # element of G, which must descend to the quotient
    conj = _conjugation_rows(g_group, i.values)
    section, act, mismatch = _descend(p.values, conj)
    if section[0] != 0:
        raise ValidationError("section fails to pick the identity over the identity")
    escapes = (conj < 0).any(axis=1)
    if escapes.any():
        g = int(np.argmax(escapes))
        raise ValidationError(f"conjugation by {g} leaves the kernel", witness=g)
    if mismatch.any():
        g, m = map(int, np.argwhere(mismatch)[0])
        raise ValidationError(
            f"conjugation by fiber element {g} disagrees with its coset on kernel element {m}",
            witness=(g, m),
        )
    g_action = ActionTable(g_group, n_group, conj)
    action = ActionTable(q_group, n_group, act)
    return AbelianExtension(n_group, g_group, q_group, i, p, section, action, g_action,
                            name=name)


def extension_from_cocycle(cocycle: TwoCocycle, name: str = "") -> AbelianExtension:
    """The extension built on kernel x quotient pairs twisted by a cocycle."""
    n_group = cocycle.n_group
    q_group = cocycle.q_group
    action = cocycle.action
    nn, qn = n_group.order, q_group.order
    order = nn * qn
    f = cocycle.values
    tn, tq = _in_table_dtype(order, n_group.table, q_group.table)
    # index axes [n1, q1, n2, q2], broadcast so that no order^2 index grid is built
    n1 = np.arange(nn)[:, None, None, None]
    q1 = np.arange(qn)[None, :, None, None]
    n2 = np.arange(nn)[None, None, :, None]
    q2 = np.arange(qn)[None, None, None, :]
    moved = action.table[q1, n2]
    n_out = tn[tn[n1, moved], f[q1, q2]]
    q_out = tq[q1, q2]
    table = (n_out * qn + q_out).reshape(order, order)
    # pair (n, q) sits at index n*qn + q, so the identity pair is index 0
    labels = [
        f"({n_group.labels[a]},{q_group.labels[b]})" for a in range(nn) for b in range(qn)
    ]
    gens = [g * qn for g in n_group.generators] + [int(h) for h in q_group.generators]
    g_group = FiniteGroup(table, gens, labels=labels,
                          name=name or f"twisted-{n_group.name}-{q_group.name}")
    i = GroupHom(n_group, g_group, np.arange(nn) * qn)
    p = GroupHom(g_group, q_group, np.tile(np.arange(qn), nn))
    ext = build_extension(i, p, name=name)
    if not (ext.action.table == action.table).all():
        raise ValidationError("twisted product action disagrees with the given action")
    if not ext.classifying_cocycle().same_values(cocycle):
        raise ValidationError("twisted product does not reproduce its cocycle")
    return ext


# ----------------------------------------------------------- centralizer data


@dataclass
class CentralizerData:
    """The kernel-centralizer layer of an extension.

    c_sub is the centralizer of the embedded kernel inside the middle group;
    the kernel is central in it, and the quotient by the kernel embeds into
    the extension's quotient group as the kernel of its action.  The quotient
    group acts compatibly on every floor.
    """

    ext: AbelianExtension
    c_sub: Subgroup
    n_in_c: GroupHom
    central_ext: AbelianExtension
    qbar_group: FiniteGroup
    pi: GroupHom
    qbar_in_q: GroupHom
    q_action_on_c: ActionTable
    q_action_on_qbar: ActionTable


def centralizer_extension(ext: AbelianExtension) -> CentralizerData:
    """Build and validate the centralizer extension and its quotient actions."""
    g = ext.g_group
    n = ext.n_group
    q = ext.q_group
    kernel_indices = [int(v) for v in ext.i.values]
    c_sub = centralizer(g, kernel_indices)
    c_grp = c_sub.group
    c_emb = c_sub.embedding
    pos_in_c = _positions(g.order, c_emb.values)
    n_in_c = GroupHom(n, c_grp, pos_in_c[ext.i.values])
    # kernel must be central in its centralizer
    rows = c_grp.table[n_in_c.values]
    if not (rows == c_grp.table[:, n_in_c.values].T).all():
        raise ValidationError("kernel is not central in its centralizer")
    qbar_group, pi = quotient(c_grp, Subgroup(n, n_in_c))
    # embed the centralizer quotient into the extension quotient
    _, vals, ambiguous = _descend(pi.values, ext.p.values[c_emb.values])
    if ambiguous.any():
        bar = int(pi.values[np.argmax(ambiguous)])
        raise ValidationError(f"coset {bar} maps ambiguously into the quotient")
    qbar_in_q = GroupHom(qbar_group, q, vals)
    if not qbar_in_q.is_injective():
        raise ValidationError("centralizer quotient fails to embed")
    # image of the embedding = elements of the quotient acting trivially
    trivial_rows = set(np.flatnonzero(
        (ext.action.table == np.arange(n.order)).all(axis=1)).tolist())
    embedded = set(int(v) for v in qbar_in_q.values)
    if embedded != trivial_rows:
        diff = sorted(embedded ^ trivial_rows)
        raise ValidationError(
            f"embedded quotient differs from the action kernel at {diff[:4]}",
            witness=diff[:4],
        )
    central_ext = build_extension(n_in_c, pi, name=f"{ext.name}-centralizer")
    if not central_ext.action.is_trivial():
        raise ValidationError("centralizer extension action is not trivial")
    # action of the quotient on the centralizer, read at the section, then
    # checked against conjugation by every fiber element
    conj = _conjugation_rows(g, c_emb.values)
    _, act_c, mismatch = _descend(ext.p.values, conj)
    escapes = (act_c < 0).any(axis=1)
    if escapes.any():
        raise ValidationError(
            f"conjugation by section element {int(np.argmax(escapes))} leaves the centralizer")
    disagrees = mismatch.any(axis=1)
    if disagrees.any():
        gg = int(np.argmax(disagrees))
        raise ValidationError(
            f"conjugation by fiber element {gg} disagrees with its coset on the centralizer",
            witness=gg,
        )
    q_action_on_c = ActionTable(q, c_grp, act_c)
    # induced action on the centralizer quotient, checked rep-independent
    _, act_qbar, mismatch = _descend(pi.values, pi.values[act_c].T)
    act_qbar = act_qbar.T
    ill_defined = mismatch.any(axis=0)
    if ill_defined.any():
        raise ValidationError(f"action of {int(np.argmax(ill_defined))} on the centralizer "
                              "quotient is not well defined")
    q_action_on_qbar = ActionTable(q, qbar_group, act_qbar)
    # the quotient action must match conjugation transported along the embedding
    differs = (act_qbar != _conjugation_rows(q, qbar_in_q.values)).any(axis=1)
    if differs.any():
        raise ValidationError(f"quotient action of {int(np.argmax(differs))} disagrees with "
                              "conjugation in the quotient group")
    # kernel embedding is equivariant for the two actions
    unequal = (act_c[:, n_in_c.values] != n_in_c.values[ext.action.table]).any(axis=1)
    if unequal.any():
        raise ValidationError(f"kernel embedding is not equivariant at {int(np.argmax(unequal))}")
    return CentralizerData(
        ext=ext,
        c_sub=c_sub,
        n_in_c=n_in_c,
        central_ext=central_ext,
        qbar_group=qbar_group,
        pi=pi,
        qbar_in_q=qbar_in_q,
        q_action_on_c=q_action_on_c,
        q_action_on_qbar=q_action_on_qbar,
    )


# ------------------------------------------------------------------ JSON form


def extension_to_json(ext: AbelianExtension) -> dict:
    return {
        "name": ext.name,
        "kernel": group_to_json(ext.n_group),
        "group": group_to_json(ext.g_group),
        "quotient": group_to_json(ext.q_group),
        "kernel_map": [int(v) for v in ext.i.values],
        "quotient_map": [int(v) for v in ext.p.values],
    }


def extension_from_json(data: dict, store: Optional[SweepStore] = None) -> AbelianExtension:
    """The extension of an `extension_to_json` payload; its groups load
    through `store` (a fresh one by default), so equal payloads are one
    group."""
    require_keys(data, ("kernel", "group", "quotient", "kernel_map", "quotient_map"),
                 "extension JSON")
    name = _json_name(data)
    store = SweepStore() if store is None else store
    n_group = store.group(data["kernel"])
    g_group = store.group(data["group"])
    q_group = store.group(data["quotient"])
    i = GroupHom(n_group, g_group, _as_int_array(data["kernel_map"], "kernel map"))
    p = GroupHom(g_group, q_group, _as_int_array(data["quotient_map"], "quotient map"))
    return build_extension(i, p, name=name)
