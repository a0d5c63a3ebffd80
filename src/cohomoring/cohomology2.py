"""Second cohomology of a finite group acting on a finite abelian group.

A 2-cocycle is stored as a full value table over pairs, normalized so that
every pair involving the identity maps to the identity.  The group of classes
is computed either by integer linear algebra (Smith forms over the module
exponent) or by exhaustive enumeration of cochains; both produce the same
interface and are cross-checked in the test suite.  A 1-cochain whose
coboundary is a given cocycle comes from one route, the generator search of
`coboundary_preimage`.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .budgets import current_budgets
from . import groups
from .errors import BudgetExceeded, ValidationError
from .groups import (
    ActionTable,
    FiniteGroup,
    GroupHom,
    _bfs_words,
    _descend,
    _hom_error,
    _hom_rows,
    _positions,
    _raise_first,
    _search_generator_images,
)
from .linalg import (
    AbelianDecomposition,
    KernelBasis,
    QuotientForm,
    _unique_rows,
    abelian_decomposition,
    action_matrices,
    kernel_mod,
    quotient_snf,
)

__all__ = [
    "TwoCocycle",
    "coboundary_cocycle",
    "pushforward",
    "inflation",
    "connecting_cocycle",
    "connecting_values",
    "pushforward_values",
    "H2Group",
    "compute_h2",
    "h2_order",
    "coboundary_preimage",
]


class TwoCocycle:
    """A normalized 2-cocycle of `q_group` with values in abelian `n_group`.

    values[x, y] is the module element attached to the pair (x, y); rows and
    columns through the identity must vanish, and the full associativity
    identity is checked on construction.
    """

    def __init__(self, q_group: FiniteGroup, n_group: FiniteGroup, action: ActionTable,
                 values: np.ndarray):
        self.q_group = q_group
        self.n_group = n_group
        self.action = action
        self.values = np.asarray(values, dtype=np.int64)
        self._validate()

    @classmethod
    def _proved(cls, q_group: FiniteGroup, n_group: FiniteGroup, action: ActionTable,
                values: np.ndarray) -> "TwoCocycle":
        """A cocycle on values that the caller has proved to be a normalized
        2-cocycle; no test runs."""
        f = cls.__new__(cls)
        f.q_group, f.n_group, f.action, f.values = q_group, n_group, action, values
        return f

    def _validate(self) -> None:
        _check_cocycles(self.q_group, self.n_group, self.action, self.values[None])

    def add(self, other: "TwoCocycle") -> "TwoCocycle":
        if other.q_group is not self.q_group or other.n_group is not self.n_group:
            raise ValidationError("cocycles live over different data")
        return TwoCocycle(self.q_group, self.n_group, self.action,
                          self.n_group.table[self.values, other.values])

    def neg(self) -> "TwoCocycle":
        return TwoCocycle(self.q_group, self.n_group, self.action,
                          self.n_group.inverse[self.values])

    def scaled(self, k: int) -> "TwoCocycle":
        out = np.zeros_like(self.values)
        add = self.n_group.table
        base = self.values if k >= 0 else self.n_group.inverse[self.values]
        for _ in range(abs(int(k))):
            out = add[out, base]
        return TwoCocycle(self.q_group, self.n_group, self.action, out)

    def is_zero(self) -> bool:
        return not self.values.any()

    def same_values(self, other: "TwoCocycle") -> bool:
        return bool((self.values == other.values).all())

    def key(self) -> bytes:
        return self.values.tobytes()


def _cocycle_defects(q_group: FiniteGroup, n_group: FiniteGroup, action: ActionTable,
                     values: np.ndarray) -> np.ndarray:
    """[b, i, x, z]: Light's identity x.f(s, z) + f(x, sz) = f(x, s) + f(xs, z)
    fails for f = values[b] and s the i-th core generator.

    It is the associativity of (a, x)(b, y) = (a + x.b + f(x, y), xy) on
    N x Q with (0, s) in the middle.  The middles passing it are closed under
    products and include every (n, e), since f is normalized and Q acts
    additively; with the (0, s) of the core generators they generate, so a
    normalized f free of defects is a cocycle at every (x, y, z).
    """
    add = n_group.table
    tq = q_group.table
    act = action.table
    gens = q_group.core_generators
    q = q_group.order
    out = np.empty((len(values), len(gens), q, q), dtype=bool)
    for i, s in enumerate(gens):
        moved = act[:, values[:, s]].transpose(1, 0, 2)  # [b, x, z] = x . f(s, z)
        lhs = add[moved, values[:, :, tq[s]]]
        rhs = add[values[:, :, s, None], values[:, tq[:, s]]]
        np.not_equal(lhs, rhs, out=out[:, i])
    return out


def _check_cocycles(q_group: FiniteGroup, n_group: FiniteGroup, action: ActionTable,
                    values: np.ndarray) -> None:
    """Certify each values[b] as a normalized 2-cocycle of q_group in n_group.

    Raises the error of the first member that fails, with the text and the
    witness `TwoCocycle` gives it: its values in range, the data, the
    normalization and then Light's test (`_cocycle_defects`) in core
    generator order, x before z.
    """
    q = q_group.order
    n = n_group.order
    if values.shape[1:] != (q, q):
        raise ValidationError(f"value table must be {q}x{q}, got {values.shape[1:]}")
    if not len(values):
        return
    out_of_range = None
    if values.min() < 0 or values.max() >= n:
        flat = values.reshape(len(values), -1)
        out_of_range = ((flat < 0) | (flat >= n)).any(axis=1)
        if out_of_range[0]:
            raise ValidationError("cocycle values out of module range")
    if not n_group.is_abelian():
        raise ValidationError("cocycle module must be abelian")
    if action.actor is not q_group or action.module is not n_group:
        raise ValidationError("action must be of the pair group on the module")
    in_range = values if out_of_range is None else np.clip(values, 0, n - 1)
    defects = _cocycle_defects(q_group, n_group, action, in_range)
    if out_of_range is None and not (values[:, 0].any() or values[:, :, 0].any()
                                     or defects.any()):
        return
    unnormalized = (values[:, 0] != 0).any(axis=1) | (values[:, :, 0] != 0).any(axis=1)
    failing = unnormalized | defects.reshape(len(values), -1).any(axis=1)
    if out_of_range is not None:
        failing |= out_of_range
    b = int(np.argmax(failing))
    if out_of_range is not None and out_of_range[b]:
        raise ValidationError("cocycle values out of module range")
    if unnormalized[b]:
        raise ValidationError("cocycle is not normalized at the identity")
    i, x, z = map(int, np.argwhere(defects[b])[0])
    s = q_group.core_generators[i]
    raise ValidationError(f"cocycle identity fails at ({x}, {s}, {z})", witness=(x, s, z))


def coboundary_cocycle(q_group: FiniteGroup, n_group: FiniteGroup, action: ActionTable,
                       chain: np.ndarray) -> TwoCocycle:
    """The 2-cocycle (x, y) -> x.c(y) - c(xy) + c(x) of a normalized 1-cochain c."""
    c = np.asarray(chain, dtype=np.int64)
    if c.shape != (q_group.order,) or c[0] != 0:
        raise ValidationError("1-cochain must assign the module identity to the group identity")
    add = n_group.table
    inv = n_group.inverse
    t1 = action.table[:, c][:, :]            # [x, y] = x . c(y)
    t2 = inv[c[q_group.table]]               # [x, y] = -c(xy)
    t3 = c[:, None]                          # [x, y] = c(x)
    return TwoCocycle(q_group, n_group, action, add[add[t1, t2], t3])


def pushforward_values(cocycle: TwoCocycle, endos) -> np.ndarray:
    """Value tables [b, x, y] of the cocycle composed with each endos[b], an
    equivariant additive map of the module; each is certified a cocycle.

    The whole stack is certified at once: additivity by one `_hom_rows`
    call, equivariance against the core generators of the pair group (the
    elements a map commutes with are closed under products).  The first
    bad map, checked in range, additive and then equivariant, raises the
    error `pushforward` gives it.
    """
    n = cocycle.n_group
    act = cocycle.action.table
    maps = np.asarray(endos, dtype=np.int64)
    if len(maps) and maps.shape[1:] != (n.order,):
        raise ValidationError(f"hom needs {n.order} values, got shape {maps.shape[1:]}")
    maps = maps.reshape(len(maps), n.order)
    in_range = ((maps >= 0) & (maps < n.order)).all(axis=1)
    maps_in = np.where(in_range[:, None], maps, 0)  # the zero map passes both laws
    additive = _hom_rows(n, n, maps_in)
    gens = act[list(cocycle.q_group.core_generators)]  # [s, m] = s . m
    equivariant = (maps_in[:, gens] == np.moveaxis(gens[:, maps_in], 1, 0)).all(axis=(1, 2))
    _raise_first([
        (~in_range, "hom values out of range", None),
        (~additive, lambda k: _hom_error(n, n, maps[k]), None),
        (~equivariant, "module map does not commute with the pair-group action", None)])
    out = maps[:, cocycle.values]
    _check_cocycles(cocycle.q_group, n, cocycle.action, out)
    return out


def pushforward(cocycle: TwoCocycle, endo_values: Sequence[int]) -> TwoCocycle:
    """Compose the cocycle with an equivariant additive map of the module;
    the one-map call of `pushforward_values`."""
    return TwoCocycle(cocycle.q_group, cocycle.n_group, cocycle.action,
                      pushforward_values(cocycle, np.asarray(endo_values)[None])[0])


def inflation(cocycle: TwoCocycle, proj: GroupHom, g_action: ActionTable) -> TwoCocycle:
    """Pull the cocycle back along a surjective homomorphism p onto its pair
    group: F(x, y) = f(p x, p y), under an action that factors through p.

    F needs no certificate of its own.  Its values are f's; it is normalized
    since p(e) = e; and as p is a homomorphism and x . m = p(x) . m, the
    cocycle identity of F at (x, y, z) is that of f at (p x, p y, p z).
    """
    if proj.target is not cocycle.q_group:
        raise ValidationError("projection must land in the cocycle's pair group")
    if not proj.is_surjective():
        raise ValidationError("projection must be surjective")
    if g_action.module is not cocycle.n_group:
        raise ValidationError("pulled-back action must keep the same module")
    if g_action.actor is not proj.source:
        raise ValidationError("action must be of the pair group on the module")
    if not (g_action.table == cocycle.action.table[proj.values]).all():
        raise ValidationError("action does not factor through the projection")
    p = proj.values
    return TwoCocycle._proved(proj.source, cocycle.n_group, g_action,
                              cocycle.values[p[:, None], p])


def connecting_values(q_group: FiniteGroup, taus, c_group: FiniteGroup, pi: GroupHom,
                      n_in_c: GroupHom, q_action_on_c: ActionTable,
                      module_action: ActionTable, lifts=None) -> np.ndarray:
    """Obstruction cocycles [b, x, y] of crossed homomorphisms taus[b] into a
    central quotient, each lifted along the section lifts[b].

    taus[b] maps the pair group into the quotient of `c_group` by the
    embedded module (along `pi`).  lifts[b] picks one element of `c_group`
    per quotient element (the least element of each fiber for every member
    when lifts is None); with g = lifts[b][taus[b]], the value at (x, y) is
    g(x) (x.g(y)) g(xy)^-1, read as an element of the module, so it measures
    the failure of the lift to be a crossed homomorphism.  Every member is
    certified a cocycle by `_check_cocycles`.  The first member that fails
    raises its first error, in the order: tau sends e to e, the lift has one
    value per quotient element, is a section and sends e to e, and every
    value lands in the module (witness: the first such (x, y)).
    """
    taus = np.asarray(taus, dtype=np.int64)
    q = q_group.order
    m = pi.target.order
    if taus.ndim != 2 or taus.shape[1] != q:
        raise ValidationError("crossed homomorphism must send identity to identity")
    moved_tau = taus[:, 0] != 0
    if lifts is None:
        lifts = np.broadcast_to(_descend(pi.values, pi.values)[0], (len(taus), m))
    secs = np.asarray(lifts, dtype=np.int64)
    if secs.shape != (len(taus), m):
        if len(taus) and moved_tau[0]:
            raise ValidationError("crossed homomorphism must send identity to identity")
        raise ValidationError("lift must choose one element per quotient element")
    g = np.take_along_axis(secs, taus, axis=1)  # g[b, x] in C lifting taus[b, x]
    mulc = c_group.table
    prod = mulc[g[:, :, None], q_action_on_c.table[np.arange(q)[:, None], g[:, None, :]]]
    word = mulc[prod, c_group.inverse[g[:, q_group.table]]]
    vals = _positions(c_group.order, n_in_c.values)[word]
    lost = vals < 0
    kinds = (moved_tau,
             (pi.values[secs] != np.arange(m)).any(axis=1),
             secs[:, 0] != 0,
             lost.reshape(len(taus), -1).any(axis=1))
    failing = np.logical_or.reduce(kinds)
    if failing.any():
        b = int(np.argmax(failing))
        if kinds[0][b]:
            raise ValidationError("crossed homomorphism must send identity to identity")
        if kinds[1][b]:
            raise ValidationError("lift is not a section of the quotient map")
        if kinds[2][b]:
            raise ValidationError("lift must send identity to identity")
        x, y = map(int, np.argwhere(lost[b])[0])
        raise ValidationError(
            f"obstruction at ({x}, {y}) does not land in the embedded module",
            witness=(x, y),
        )
    _check_cocycles(q_group, n_in_c.source, module_action, vals)
    return vals


def connecting_cocycle(q_group: FiniteGroup, tau_values: Sequence[int],
                       c_group: FiniteGroup, pi: GroupHom, n_in_c: GroupHom,
                       q_action_on_c: ActionTable, module_action: ActionTable,
                       lift: Optional[Sequence[int]] = None) -> TwoCocycle:
    """Obstruction cocycle of a crossed homomorphism into a central quotient:
    the one-member call of `connecting_values`, with the least element of
    each fiber as the lift when lift is None."""
    lifts = None if lift is None else np.asarray(lift, dtype=np.int64)[None]
    vals = connecting_values(q_group, np.asarray(tau_values, dtype=np.int64)[None], c_group,
                             pi, n_in_c, q_action_on_c, module_action, lifts)
    return TwoCocycle(q_group, n_in_c.source, module_action, vals[0])


# --------------------------------------------------------------------- H2


class H2Group:
    """The group of 2-cocycle classes, with reduction to coefficients.

    invariant_factors is the ascending divisibility chain of the class group;
    reduce maps a cocycle to its coefficient tuple with respect to class_reps,
    so a cocycle is a coboundary exactly when reduce returns all zeros.
    """

    def __init__(self, q_group: FiniteGroup, n_group: FiniteGroup, action: ActionTable,
                 invariant_factors: Tuple[int, ...], method: str):
        self.q_group = q_group
        self.n_group = n_group
        self.action = action
        self.invariant_factors = invariant_factors
        self.method = method
        order = 1
        for f in invariant_factors:
            order *= f
        self.order = order
        self.class_reps: Tuple[TwoCocycle, ...] = ()
        # linear internals
        self._dec: Optional[AbelianDecomposition] = None
        self._kern: Optional[KernelBasis] = None
        self._qf: Optional[QuotientForm] = None
        self._kept: Optional[np.ndarray] = None
        # brute internals
        self._canon: Optional[dict] = None
        self._delta_table: Optional[np.ndarray] = None
        self._class_dec: Optional[AbelianDecomposition] = None

    # -- shared helpers

    def zero(self) -> Tuple[int, ...]:
        return tuple(0 for _ in self.invariant_factors)

    def check_data(self, q_group: FiniteGroup, n_group: FiniteGroup,
                   action: ActionTable) -> None:
        """Raise unless cocycles of this pair group, module and action reduce here."""
        if q_group is not self.q_group or n_group is not self.n_group:
            raise ValidationError("cocycle belongs to different data")
        if not (action.table == self.action.table).all():
            raise ValidationError("cocycle action differs")

    def reduce(self, f: TwoCocycle) -> Tuple[int, ...]:
        """Coefficient tuple of f; the one-row call of `reduce_values`."""
        self.check_data(f.q_group, f.n_group, f.action)
        return tuple(int(c) for c in self.reduce_values(f.values[None])[0])

    def reduce_values(self, values: np.ndarray) -> np.ndarray:
        """Coefficients [b, r] of the cocycles values[b, x, y] of this data
        with respect to class_reps.

        The caller vouches that the tables are cocycles of this data (as
        `TwoCocycle`, `connecting_values` and `pushforward_values` certify
        them); each is still tested for membership in the cocycle lattice.
        Linear route: the coordinates V, then T = V vinv^T, which is in the
        lattice exactly when mu divides every column, then (T/mu) U^T mod the
        invariant factors on the kept columns.  Enumerative route: one
        canonical-form lookup per table.
        """
        values = np.asarray(values, dtype=np.int64)
        r = len(self.invariant_factors)
        if self.method != "linear":
            coeffs = [self._reduce_brute(v) for v in values]
            return np.asarray(coeffs, dtype=np.int64).reshape(len(values), r)
        if not r:
            return np.zeros((len(values), 0), dtype=np.int64)
        kern, qf = self._kern, self._qf
        t = self._var_vectors(values) @ kern.vinv.T
        if (t % kern.mu).any():
            raise ValidationError("value table is not a cocycle for this data")
        return ((t // kern.mu) @ qf.u.T % qf.diag)[:, self._kept]

    def is_coboundary(self, f: TwoCocycle) -> bool:
        return self.reduce(f) == self.zero()

    def rep_from_coeffs(self, coeffs: Sequence[int]) -> TwoCocycle:
        """The sum of coeffs[r] times class_reps[r], accumulated on the value
        tables with the module's add table and certified once."""
        if len(coeffs) != len(self.invariant_factors):
            raise ValidationError("coefficient count mismatch")
        add = self.n_group.table
        q = self.q_group.order
        out = np.zeros((q, q), dtype=np.int64)
        for k, rep in zip(coeffs, self.class_reps):
            step = rep.values if k >= 0 else self.n_group.inverse[rep.values]
            for _ in range(abs(int(k))):
                out = add[out, step]
        return TwoCocycle(self.q_group, self.n_group, self.action, out)

    def classes(self) -> Iterator[Tuple[Tuple[int, ...], TwoCocycle]]:
        """All classes as (coefficients, representative cocycle)."""
        for idx in np.ndindex(*self.invariant_factors):
            coeffs = tuple(int(i) for i in idx)
            yield coeffs, self.rep_from_coeffs(coeffs)

    # -- linear path

    def _var_vectors(self, values: np.ndarray) -> np.ndarray:
        coords = self._dec._coord_table[values[:, 1:, 1:]]
        return coords.reshape(len(values), -1).astype(np.int64)

    def _values_from_vector(self, v: np.ndarray) -> np.ndarray:
        dec = self._dec
        q = self.q_group.order
        c = len(dec.factors)
        dvec = np.asarray(dec.factors, dtype=np.int64)
        coords = v.reshape(q - 1, q - 1, c) % dvec
        vals = np.zeros((q, q), dtype=np.int64)
        for x in range(q - 1):
            for y in range(q - 1):
                vals[x + 1, y + 1] = dec.element(coords[x, y])
        return vals

    # -- enumerative path

    def _canonical(self, values: np.ndarray) -> bytes:
        deltas = self._delta_table
        n_add = self.n_group.table
        cands = n_add[values[None, :, :], deltas]
        flat = cands.reshape(cands.shape[0], -1)
        best = min(flat[i].tobytes() for i in range(flat.shape[0]))
        return best

    def _reduce_brute(self, values: np.ndarray) -> Tuple[int, ...]:
        cid = self._canon.get(self._canonical(values))
        if cid is None:
            raise ValidationError("value table is not a cocycle for this data")
        return self._class_dec.coords(cid)


def _variable_layout(q: int, c: int) -> int:
    return (q - 1) * (q - 1) * c


def _build_equations(q_group: FiniteGroup, dec: AbelianDecomposition,
                     mats: List[np.ndarray]) -> np.ndarray:
    """Cocycle identity as integer rows mod the module exponent."""
    q = q_group.order
    c = len(dec.factors)
    qm1 = q - 1
    s = qm1 * qm1
    a = s * c
    L = dec.exponent
    dvec = np.asarray(dec.factors, dtype=np.int64)
    scale = L // dvec
    tq = q_group.table
    blocks = []
    ys, zs = np.meshgrid(np.arange(1, q), np.arange(1, q), indexing="ij")
    slot_yz = ((ys - 1) * qm1 + (zs - 1)).reshape(-1)
    for x in range(1, q):
        e = np.kron(np.eye(s, dtype=np.int64), mats[x])  # x . f(y, z) term
        rows = np.arange(s * c).reshape(s, c)
        # - f(xy, z)
        xy = tq[x, ys].reshape(-1)
        mask = xy != 0
        slot_b = (xy[mask] - 1) * qm1 + (zs.reshape(-1)[mask] - 1)
        for j in range(c):
            np.add.at(e, (rows[mask, j], slot_b * c + j), -1)
        # + f(x, yz)
        yz = tq[ys, zs].reshape(-1)
        mask = yz != 0
        slot_cc = (x - 1) * qm1 + (yz[mask] - 1)
        for j in range(c):
            np.add.at(e, (rows[mask, j], slot_cc * c + j), 1)
        # - f(x, y)
        slot_d = (x - 1) * qm1 + (ys.reshape(-1) - 1)
        for j in range(c):
            np.add.at(e, (rows[:, j], slot_d * c + j), -1)
        e = e.reshape(s, c, a) * scale[None, :, None]
        blocks.append(e.reshape(s * c, a) % L)
    return np.concatenate(blocks, axis=0)


def _build_coboundary_columns(q_group: FiniteGroup, dec: AbelianDecomposition,
                              mats: List[np.ndarray]) -> np.ndarray:
    """Integer matrix of the coboundary map from 1-cochain coordinates."""
    q = q_group.order
    c = len(dec.factors)
    qm1 = q - 1
    a = qm1 * qm1 * c
    d = np.zeros((a, qm1 * c), dtype=np.int64)
    eye = np.eye(c, dtype=np.int64)
    tq = q_group.table

    def var_block(x: int, y: int) -> slice:
        sl = ((x - 1) * qm1 + (y - 1)) * c
        return slice(sl, sl + c)

    def col_block(w: int) -> slice:
        sl = (w - 1) * c
        return slice(sl, sl + c)

    for x in range(1, q):
        for y in range(1, q):
            d[var_block(x, y), col_block(y)] += mats[x]
            xy = int(tq[x, y])
            if xy != 0:
                d[var_block(x, y), col_block(xy)] -= eye
            d[var_block(x, y), col_block(x)] += eye
    return d


def _h2_linear(q_group: FiniteGroup, n_group: FiniteGroup, action: ActionTable) -> H2Group:
    limit = current_budgets().h2_linear_size
    dec = abelian_decomposition(n_group)
    q = q_group.order
    c = len(dec.factors)
    a = _variable_layout(q, c)
    if a > limit:
        raise BudgetExceeded(f"{a} cocycle variables exceeds budget {limit}")
    if c == 0 or q == 1:
        h2 = H2Group(q_group, n_group, action, (), "linear")
        h2._dec = dec
        h2._kern = kernel_mod(np.zeros((0, a), dtype=np.int64), a, 1)
        h2._qf = quotient_snf(np.zeros((a, 0), dtype=np.int64), a, 1)
        h2._kept = []
        return h2
    mats = action_matrices(action, dec)
    L = dec.exponent
    eqs = _build_equations(q_group, dec, mats)
    kern = kernel_mod(eqs, a, L)
    dmat = _build_coboundary_columns(q_group, dec, mats)
    lam = np.diag(np.tile(np.asarray(dec.factors, dtype=np.int64), (q - 1) * (q - 1)))
    w_cols = np.concatenate([dmat, lam], axis=1)
    y = kern.vinv @ w_cols
    if (y % kern.mu[:, None] != 0).any():
        raise ValidationError("coboundary image escapes the cocycle lattice")
    x = y // kern.mu[:, None]
    qf = quotient_snf(x, a, L)
    kept = [t for t in range(a) if int(qf.diag[t]) > 1]
    factors = tuple(int(qf.diag[t]) for t in kept)
    h2 = H2Group(q_group, n_group, action, factors, "linear")
    h2._dec = dec
    h2._kern = kern
    h2._qf = qf
    h2._kept = np.asarray(kept, dtype=np.int64)
    reps = []
    for t in kept:
        vec = kern.vector(qf.representative(t))
        reps.append(TwoCocycle(q_group, n_group, action, h2._values_from_vector(vec)))
    h2.class_reps = tuple(reps)
    got = h2.reduce_values(np.array([rep.values for rep in reps]).reshape(len(reps), q, q))
    if not (got == np.eye(len(kept), dtype=np.int64)).all():
        raise ValidationError("class representative does not reduce to a unit coefficient")
    return h2


def _enumerate_chains(n: int, q: int) -> np.ndarray:
    m = n ** (q - 1)
    arr = np.arange(m, dtype=np.int64)
    chains = np.zeros((m, q), dtype=np.int64)
    for w in range(1, q):
        chains[:, w] = arr % n
        arr = arr // n
    return chains


def _h2_bruteforce(q_group: FiniteGroup, n_group: FiniteGroup,
                   action: ActionTable) -> H2Group:
    limit = current_budgets().h2_brute_candidates
    q = q_group.order
    n = n_group.order
    s = (q - 1) * (q - 1)
    total = n ** s
    if total > limit:
        raise BudgetExceeded(f"{total} candidate tables exceeds budget {limit}")
    add = n_group.table
    tq = q_group.table
    act = action.table
    m = total
    arr = np.arange(m, dtype=np.int64)
    values = np.zeros((m, q, q), dtype=np.int64)
    for x in range(1, q):
        for yv in range(1, q):
            values[:, x, yv] = arr % n
            arr = arr // n
    mask = np.ones(m, dtype=bool)
    step = max(1, groups._SEARCH_BLOCK_CELLS // (q * q))
    for start in range(0, m, step):  # Light's test, as in TwoCocycle._validate
        block = values[start:start + step]
        mask[start:start + step] = ~_cocycle_defects(
            q_group, n_group, action, block).reshape(len(block), -1).any(axis=1)
    cocycles = values[mask]
    chains = _enumerate_chains(n, q)
    inv = n_group.inverse
    deltas = np.zeros((chains.shape[0], q, q), dtype=np.int64)
    for x in range(q):
        for yv in range(q):
            xy = int(tq[x, yv])
            deltas[:, x, yv] = add[add[act[x, chains[:, yv]], inv[chains[:, xy]]], chains[:, x]]
    uniq = _unique_rows(deltas.reshape(deltas.shape[0], -1)).reshape(-1, q, q)
    # canonical labelling of classes and the class group
    canon: dict = {}
    order_keys: List[bytes] = []
    for i in range(cocycles.shape[0]):
        cands = add[cocycles[i][None, :, :], uniq]
        flat = cands.reshape(cands.shape[0], -1)
        key = min(flat[j].tobytes() for j in range(flat.shape[0]))
        if key not in canon:
            canon[key] = -1
            order_keys.append(key)
    zero_key = min(uniq[j].tobytes() for j in range(uniq.shape[0]))
    order_keys.sort()
    order_keys.remove(zero_key)
    order_keys.insert(0, zero_key)
    for cid, key in enumerate(order_keys):
        canon[key] = cid
    reps = [np.frombuffer(key, dtype=np.int64).reshape(q, q).copy() for key in order_keys]
    h = len(reps)
    table = np.zeros((h, h), dtype=np.int64)
    for i in range(h):
        for j in range(h):
            summed = add[reps[i], reps[j]]
            cands = add[summed[None, :, :], uniq]
            flat = cands.reshape(cands.shape[0], -1)
            key = min(flat[kk].tobytes() for kk in range(flat.shape[0]))
            table[i, j] = canon[key]
    gens = list(range(h))
    class_group = FiniteGroup(table, gens, name="classes")
    class_dec = abelian_decomposition(class_group)
    h2 = H2Group(q_group, n_group, action, class_dec.factors, "bruteforce")
    h2._canon = canon
    h2._delta_table = uniq
    h2._class_dec = class_dec
    h2.class_reps = tuple(
        TwoCocycle(q_group, n_group, action, reps[b]) for b in class_dec.basis
    )
    return h2


def compute_h2(q_group: FiniteGroup, n_group: FiniteGroup, action: ActionTable,
               method: str = "auto") -> H2Group:
    """Group of 2-cocycle classes for the action of q_group on abelian n_group.

    method is "linear", "bruteforce", or "auto" (linear when it fits in
    budget, otherwise enumeration when that fits).
    """
    if action.actor is not q_group or action.module is not n_group:
        raise ValidationError("action must be of the pair group on the module")
    if not n_group.is_abelian():
        raise ValidationError("module must be abelian")
    if method == "linear":
        return _h2_linear(q_group, n_group, action)
    if method == "bruteforce":
        return _h2_bruteforce(q_group, n_group, action)
    if method != "auto":
        raise ValueError(f"unknown method {method!r}")
    budget = current_budgets()
    dec_size = _variable_layout(q_group.order, len(abelian_decomposition(n_group).factors))
    if dec_size <= budget.h2_linear_size:
        return _h2_linear(q_group, n_group, action)
    total = n_group.order ** ((q_group.order - 1) ** 2)
    if total <= budget.h2_brute_candidates:
        return _h2_bruteforce(q_group, n_group, action)
    raise BudgetExceeded("no cohomology method fits the current budget")


# ------------------------------------------------------------ generator data


def coboundary_preimage(f: TwoCocycle) -> Optional[np.ndarray]:
    """A normalized 1-cochain c whose coboundary is f, or None when f is no
    coboundary.

    The values of c on the k core generators S run over all |N|^k choices,
    and `_search_generator_images` propagates c(xs) = c(x) + x.c(s) - f(x, s)
    and certifies it for every x and s in S: the coboundary of c agrees with
    f on G x S.  Both are normalized cocycles, and
    f(x, ws) = f(x, w) + f(xw, s) - x.f(w, s) fixes a normalized cocycle from
    its values on G x S, so they agree everywhere.  The count |N|^k is gated
    by `z1_generator_candidates`, as in `enumerate_z1`.
    """
    g, n = f.q_group, f.n_group
    gens = g.core_generators
    limit = current_budgets().z1_generator_candidates
    count = n.order ** len(gens)
    if count > limit:
        raise BudgetExceeded(f"{count} coboundary candidates exceeds budget {limit}")
    cands = [np.arange(n.order)] * len(gens)
    return next(_search_generator_images(g, n, cands, f.action, offset=f.values, gens=gens),
                None)


def h2_order(g_group: FiniteGroup, n_group: FiniteGroup, action: ActionTable,
             z1_order: int) -> int:
    """|H^2| of g_group acting on abelian n_group, from cocycle values on G x S.

    S is the core generators.  The unknowns are F(x, s) for x != e and s in
    S; F(x, ws) = F(x, w) + F(xw, s) - x.F(w, s) along the BFS words gives
    every F(x, y) as a form in them, and Light's equations
    x.F(s, z) + F(x, sz) = F(x, s) + F(xs, z) for all x, z and s in S (the
    test of `TwoCocycle._validate`) cut out Z^2.  The normalized 1-cochains
    map onto B^2 with kernel Z^1, so |H^2| = |Z^2| |Z^1| / |N|^(|G|-1);
    z1_order is |Z^1| for this action.
    """
    if action.actor is not g_group or action.module is not n_group:
        raise ValidationError("action must be of the pair group on the module")
    dec = abelian_decomposition(n_group)
    m = g_group.order
    gens = g_group.core_generators
    c = len(dec.factors)
    a = (m - 1) * len(gens) * c
    limit = current_budgets().h2_linear_size
    if a > limit:
        raise BudgetExceeded(f"{a} cocycle variables exceeds budget {limit}")
    z2_index = 1  # [Z^a : lattice of cocycle coordinates]
    if a:
        L = dec.exponent
        factors = np.asarray(dec.factors, dtype=np.int64)
        mats = np.stack(action_matrices(action, dec))  # [x] acts on coordinates
        tg = g_group.table
        # forms[x, y] is the c x a matrix giving F(x, y) from the unknowns
        forms = np.zeros((m, m, c, a), dtype=np.int64)
        unknown = np.arange(a).reshape(m - 1, len(gens), c)
        rest = np.arange(1, m)[:, None]
        for i, s in enumerate(gens):
            forms[rest, s, np.arange(c), unknown[:, i]] = 1
        for ws, w, i in _bfs_words(g_group, gens):
            s = gens[i]
            moved = np.einsum("xjl,la->xja", mats, forms[w, s])
            forms[:, ws] = (forms[:, w] + forms[tg[:, w], s] - moved) % L
        blocks = []
        for s in gens:
            moved = np.einsum("xjl,zla->xzja", mats, forms[s])
            eq = moved + forms[:, tg[s]] - forms[:, s][:, None] - forms[tg[:, s]]
            blocks.append((eq * (L // factors)[:, None] % L).reshape(-1, a))
        eqs = np.concatenate(blocks)
        if (eqs * np.tile(factors, a // c) % L).any():
            raise ValidationError("cocycle equations are not defined on module coordinates")
        z2_index = math.prod(int(u) for u in kernel_mod(eqs, a, L).mu)
    z2 = n_group.order ** ((m - 1) * len(gens)) // z2_index
    order, left = divmod(z2 * int(z1_order), n_group.order ** (m - 1))
    if left:
        raise ValidationError("|Z^2| |Z^1| is not a multiple of |N|^(|G|-1)")
    return order
