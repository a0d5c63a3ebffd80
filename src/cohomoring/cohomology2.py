"""Second cohomology of a finite group acting on a finite abelian group.

A 2-cocycle is stored as a full value table over pairs, normalized so that
every pair involving the identity maps to the identity.  The group of classes
is computed either by integer linear algebra (Smith forms over the module
exponent) or by exhaustive enumeration of cochains; both produce the same
interface and are cross-checked in the test suite.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .budgets import current_budgets
from .errors import BudgetExceeded, ValidationError
from .groups import (
    ActionTable,
    FiniteGroup,
    GroupHom,
    _bfs_words,
    _descend,
    _positions,
    _search_generator_images,
)
from .linalg import (
    AbelianDecomposition,
    KernelBasis,
    QuotientForm,
    abelian_decomposition,
    action_matrices,
    kernel_mod,
    lattice_solve,
    quotient_snf,
)

__all__ = [
    "TwoCocycle",
    "coboundary_cocycle",
    "pushforward",
    "inflation",
    "connecting_cocycle",
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

    def _validate(self) -> None:
        q = self.q_group.order
        n = self.n_group.order
        v = self.values
        if v.shape != (q, q):
            raise ValidationError(f"value table must be {q}x{q}, got {v.shape}")
        if v.min() < 0 or v.max() >= n:
            raise ValidationError("cocycle values out of module range")
        if not self.n_group.is_abelian():
            raise ValidationError("cocycle module must be abelian")
        if self.action.actor is not self.q_group or self.action.module is not self.n_group:
            raise ValidationError("action must be of the pair group on the module")
        if (v[0] != 0).any() or (v[:, 0] != 0).any():
            raise ValidationError("cocycle is not normalized at the identity")
        # Light's test on the product (a, x)(b, y) = (a + x.b + f(x, y), xy) of
        # N x Q, which is associative exactly when f is a cocycle.  The middles
        # passing it are closed under products and include every (n, e), since
        # f is normalized and Q acts additively; with the (0, s) of the core
        # generators they generate, so the identity at (x, s, z) proves it at
        # every (x, y, z).
        add = self.n_group.table
        tq = self.q_group.table
        act = self.action.table
        for s in self.q_group.core_generators:
            lhs = add[act[:, v[s]], v[:, tq[s]]]      # [x, z] = x . f(s, z) + f(x, sz)
            rhs = add[v[:, s][:, None], v[tq[:, s]]]  # [x, z] = f(x, s) + f(xs, z)
            if not (lhs == rhs).all():
                x, z = map(int, np.argwhere(lhs != rhs)[0])
                raise ValidationError(
                    f"cocycle identity fails at ({x}, {s}, {z})",
                    witness=(x, s, z),
                )

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


def pushforward(cocycle: TwoCocycle, endo_values: Sequence[int]) -> TwoCocycle:
    """Compose the cocycle with an equivariant additive map of the module."""
    vals = np.asarray(endo_values, dtype=np.int64)
    n = cocycle.n_group
    GroupHom(n, n, vals)  # additivity
    act = cocycle.action.table
    if not (act[:, vals] == vals[act]).all():
        raise ValidationError("module map does not commute with the pair-group action")
    return TwoCocycle(cocycle.q_group, n, cocycle.action, vals[cocycle.values])


def inflation(cocycle: TwoCocycle, proj: GroupHom, g_action: ActionTable) -> TwoCocycle:
    """Pull the cocycle back along a surjection onto its pair group."""
    if proj.target is not cocycle.q_group:
        raise ValidationError("projection must land in the cocycle's pair group")
    if not proj.is_surjective():
        raise ValidationError("projection must be surjective")
    if g_action.module is not cocycle.n_group:
        raise ValidationError("pulled-back action must keep the same module")
    if not (g_action.table == cocycle.action.table[proj.values]).all():
        raise ValidationError("action does not factor through the projection")
    p = proj.values
    vals = cocycle.values[np.ix_(p, p)]
    return TwoCocycle(proj.source, cocycle.n_group, g_action, vals)


def connecting_cocycle(q_group: FiniteGroup, tau_values: Sequence[int],
                       c_group: FiniteGroup, pi: GroupHom, n_in_c: GroupHom,
                       q_action_on_c: ActionTable, module_action: ActionTable,
                       lift: Optional[Sequence[int]] = None) -> TwoCocycle:
    """Obstruction cocycle of a crossed homomorphism into a central quotient.

    tau maps the pair group into the quotient of `c_group` by the embedded
    module (along `pi`).  Each value is lifted through `pi` and the failure of
    the lift to be a crossed homomorphism is measured inside the module.
    """
    tau = np.asarray(tau_values, dtype=np.int64)
    q = q_group.order
    if tau.shape != (q,) or tau[0] != 0:
        raise ValidationError("crossed homomorphism must send identity to identity")
    if lift is None:
        lift = _descend(pi.values, pi.values)[0]  # the least element of each fiber
    sec = np.asarray(lift, dtype=np.int64)
    if sec.shape != (pi.target.order,):
        raise ValidationError("lift must choose one element per quotient element")
    if not (pi.values[sec] == np.arange(pi.target.order)).all():
        raise ValidationError("lift is not a section of the quotient map")
    if sec[0] != 0:
        raise ValidationError("lift must send identity to identity")
    g = sec[tau]  # g[x] in C lifting tau(x)
    mulc = c_group.table
    invc = c_group.inverse
    n = n_in_c.source
    n_pos = _positions(c_group.order, n_in_c.values)
    tq = q_group.table
    prod = mulc[g[:, None], q_action_on_c.table[np.arange(q)[:, None], g[None, :]]]
    word = mulc[prod, invc[g[tq]]]
    vals = n_pos[word]
    if (vals < 0).any():
        x, y = map(int, np.argwhere(vals < 0)[0])
        raise ValidationError(
            f"obstruction at ({x}, {y}) does not land in the embedded module",
            witness=(x, y),
        )
    return TwoCocycle(q_group, n, module_action, vals)


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
        self._kept: Optional[List[int]] = None
        self._w_cols: Optional[np.ndarray] = None
        # brute internals
        self._canon: Optional[dict] = None
        self._delta_table: Optional[np.ndarray] = None
        self._chain_table: Optional[np.ndarray] = None
        self._class_dec: Optional[AbelianDecomposition] = None

    # -- shared helpers

    def zero_cocycle(self) -> TwoCocycle:
        q = self.q_group.order
        return TwoCocycle(self.q_group, self.n_group, self.action,
                          np.zeros((q, q), dtype=np.int64))

    def zero(self) -> Tuple[int, ...]:
        return tuple(0 for _ in self.invariant_factors)

    def _check_cocycle(self, f: TwoCocycle) -> None:
        if f.q_group is not self.q_group or f.n_group is not self.n_group:
            raise ValidationError("cocycle belongs to different data")
        if not (f.action.table == self.action.table).all():
            raise ValidationError("cocycle action differs")

    def reduce(self, f: TwoCocycle) -> Tuple[int, ...]:
        self._check_cocycle(f)
        if self.method == "linear":
            return self._reduce_linear(f)
        return self._reduce_brute(f)

    def is_coboundary(self, f: TwoCocycle) -> bool:
        return self.reduce(f) == self.zero()

    def rep_from_coeffs(self, coeffs: Sequence[int]) -> TwoCocycle:
        if len(coeffs) != len(self.invariant_factors):
            raise ValidationError("coefficient count mismatch")
        out = self.zero_cocycle()
        for k, rep in zip(coeffs, self.class_reps):
            out = out.add(rep.scaled(int(k)))
        return out

    def classes(self) -> Iterator[Tuple[Tuple[int, ...], TwoCocycle]]:
        """All classes as (coefficients, representative cocycle)."""
        for idx in np.ndindex(*self.invariant_factors):
            coeffs = tuple(int(i) for i in idx)
            yield coeffs, self.rep_from_coeffs(coeffs)

    # -- linear path

    def _var_vector(self, f: TwoCocycle) -> np.ndarray:
        coords = self._dec._coord_table[f.values[1:, 1:]]
        return coords.reshape(-1).astype(np.int64)

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

    def _reduce_linear(self, f: TwoCocycle) -> Tuple[int, ...]:
        if not self.invariant_factors:
            return ()
        v = self._var_vector(f)
        t = self._kern.coords(v)
        if t is None:
            raise ValidationError("value table is not a cocycle for this data")
        y = self._qf.coefficients(t)
        return tuple(int(y[k]) for k in self._kept)

    def coboundary_witness(self, f: TwoCocycle) -> Optional[np.ndarray]:
        """A normalized 1-cochain whose coboundary is f, or None.

        Exact integer solving; only available within the witness budget on the
        linear path, and by direct scan on the enumerative path.
        """
        self._check_cocycle(f)
        if self.method == "bruteforce":
            return self._witness_brute(f)
        if not self.is_coboundary(f):
            return None
        a = self._w_cols.shape[0]
        if a > 64:
            raise BudgetExceeded("witness solving gated to at most 64 variables")
        v = self._var_vector(f)
        cols = [self._w_cols[:, j].tolist() for j in range(self._w_cols.shape[1])]
        y = lattice_solve(cols, v.tolist())
        if y is None:
            raise ValidationError("class reduction and witness solver disagree")
        dec = self._dec
        c = len(dec.factors)
        q = self.q_group.order
        chain = np.zeros(q, dtype=np.int64)
        for w in range(1, q):
            coeffs = [int(y[(w - 1) * c + j]) % dec.factors[j] for j in range(c)]
            chain[w] = dec.element(coeffs)
        check = coboundary_cocycle(self.q_group, self.n_group, self.action, chain)
        if not check.same_values(f):
            raise ValidationError("witness verification failed")
        return chain

    # -- enumerative path

    def _canonical(self, values: np.ndarray) -> bytes:
        deltas = self._delta_table
        n_add = self.n_group.table
        cands = n_add[values[None, :, :], deltas]
        flat = cands.reshape(cands.shape[0], -1)
        best = min(flat[i].tobytes() for i in range(flat.shape[0]))
        return best

    def _reduce_brute(self, f: TwoCocycle) -> Tuple[int, ...]:
        key = self._canonical(f.values)
        cid = self._canon.get(key)
        if cid is None:
            raise ValidationError("value table is not a cocycle for this data")
        return self._class_dec.coords(cid)

    def _witness_brute(self, f: TwoCocycle) -> Optional[np.ndarray]:
        if self.reduce(f) != self.zero():
            return None
        target = f.values.tobytes()
        chains = self._chain_table
        for i in range(chains.shape[0]):
            d = coboundary_cocycle(self.q_group, self.n_group, self.action, chains[i])
            if d.values.tobytes() == target:
                return chains[i].copy()
        raise ValidationError("class reduction and witness scan disagree")


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
        h2._w_cols = np.zeros((a, 0), dtype=np.int64)
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
    h2._kept = kept
    h2._w_cols = w_cols
    reps = []
    for t in kept:
        vec = kern.vector(qf.representative(t))
        reps.append(TwoCocycle(q_group, n_group, action, h2._values_from_vector(vec)))
    h2.class_reps = tuple(reps)
    for i, rep in enumerate(reps):
        got = h2._reduce_linear(rep)
        want = tuple(1 if j == i else 0 for j in range(len(kept)))
        if got != want:
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
    for yv in q_group.core_generators:  # Light's test, as in TwoCocycle._validate
        for x in range(1, q):
            xy = int(tq[x, yv])
            for z in range(1, q):
                yz = int(tq[yv, z])
                lhs = add[act[x, values[:, yv, z]], values[:, x, yz]]
                rhs = add[values[:, xy, z], values[:, x, yv]]
                mask &= lhs == rhs
    cocycles = values[mask]
    chains = _enumerate_chains(n, q)
    inv = n_group.inverse
    deltas = np.zeros((chains.shape[0], q, q), dtype=np.int64)
    for x in range(q):
        for yv in range(q):
            xy = int(tq[x, yv])
            deltas[:, x, yv] = add[add[act[x, chains[:, yv]], inv[chains[:, xy]]], chains[:, x]]
    uniq = np.unique(deltas.reshape(deltas.shape[0], -1), axis=0).reshape(-1, q, q)
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
    h2._chain_table = chains
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
