"""Integer matrix utilities: Smith-style diagonalization and abelian structure.

Two regimes coexist here.  `snf_small` is an exact pure-Python Smith normal
form with its row transforms, for the small relation matrix of the abelian
decomposition.  `kernel_mod` / `quotient_snf` are the
vectorized workhorses behind the cohomology computation: both operate on
systems whose lattices contain L*Z^n for a known exponent L, which lets every
entry be folded into a bounded range so coefficients never blow up.
`row_module_order` needs only the index of such a lattice, not its basis, and
finds it by elimination over each prime power of L with no transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, prod
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import GuardExceeded, ValidationError

__all__ = [
    "snf_small",
    "kernel_mod",
    "KernelBasis",
    "row_module_order",
    "quotient_snf",
    "QuotientForm",
    "AbelianDecomposition",
    "abelian_decomposition",
    "action_matrices",
]

_GUARD = 1 << 58


# ------------------------------------------------------------ exact small SNF


def snf_small(mat: Sequence[Sequence[int]]):
    """Exact Smith normal form with row transforms: S = U M V for some
    unimodular V, all Python ints.

    Returns (diag, U, Uinv) where diag has min(rows, cols) entries forming a
    divisibility chain.  Column operations are applied to M but not tracked.
    Intended for small matrices only.
    """
    m = [list(int(x) for x in row) for row in mat]
    r = len(m)
    c = len(m[0]) if r else 0
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    uinv = [[int(i == j) for j in range(r)] for i in range(r)]

    def row_op(dst, src, k):  # row dst -= k * row src
        m[dst] = [a - k * b for a, b in zip(m[dst], m[src])]
        u[dst] = [a - k * b for a, b in zip(u[dst], u[src])]
        for row in uinv:
            row[src] += k * row[dst]

    def col_op(dst, src, k):  # col dst -= k * col src
        for row in m:
            row[dst] -= k * row[src]

    def row_swap(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]
        for row in uinv:
            row[i], row[j] = row[j], row[i]

    def col_swap(i, j):
        for row in m:
            row[i], row[j] = row[j], row[i]

    def row_neg(i):
        m[i] = [-a for a in m[i]]
        u[i] = [-a for a in u[i]]
        for row in uinv:
            row[i] = -row[i]

    t = 0
    while t < min(r, c):
        # pivot: smallest nonzero magnitude in the remaining block
        best = None
        for i in range(t, r):
            for j in range(t, c):
                if m[i][j] != 0 and (best is None or abs(m[i][j]) < abs(m[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        row_swap(t, best[0])
        col_swap(t, best[1])
        if m[t][t] < 0:
            row_neg(t)
        dirty = True
        while dirty:
            dirty = False
            for i in range(r):
                if i != t and m[i][t] != 0:
                    q = m[i][t] // m[t][t]
                    row_op(i, t, q)
                    if m[i][t] != 0:
                        row_swap(t, i)
                        if m[t][t] < 0:
                            row_neg(t)
                        dirty = True
            for j in range(c):
                if j != t and m[t][j] != 0:
                    q = m[t][j] // m[t][t]
                    col_op(j, t, q)
                    if m[t][j] != 0:
                        col_swap(t, j)
                        dirty = True
        t += 1
    rank = t
    # enforce the divisibility chain
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            a, b = m[i][i], m[i + 1][i + 1]
            if b % a != 0:
                changed = True
                col_op(i, i + 1, -1)  # col i += col i+1, giving entry b at (i+1, i)
                # re-eliminate the 2x2 block at position i
                while m[i + 1][i] != 0 or m[i][i + 1] != 0:
                    if m[i + 1][i] != 0:
                        if m[i + 1][i] % m[i][i] == 0:
                            row_op(i + 1, i, m[i + 1][i] // m[i][i])
                        else:
                            q = m[i + 1][i] // m[i][i]
                            row_op(i + 1, i, q)
                            row_swap(i, i + 1)
                    if m[i][i + 1] != 0:
                        if m[i][i + 1] % m[i][i] == 0:
                            col_op(i + 1, i, m[i][i + 1] // m[i][i])
                        else:
                            q = m[i][i + 1] // m[i][i]
                            col_op(i + 1, i, q)
                            col_swap(i, i + 1)
                if m[i][i] < 0:
                    row_neg(i)
                if m[i + 1][i + 1] < 0:
                    row_neg(i + 1)
    diag = [m[i][i] for i in range(min(r, c))]
    return diag, u, uinv


# ------------------------------------------------- folded vectorized routines


def _check_guard(*mats: np.ndarray) -> None:
    for m in mats:
        if m.size and int(np.abs(m).max()) > _GUARD:
            raise GuardExceeded("transform coefficients exceeded the int64 safety guard")


@dataclass
class KernelBasis:
    """Basis data for P = {v in Z^a : E v = 0 mod L}: P = V diag(mu) Z^a.

    P contains L*Z^a and every consumer reads vectors mod L and coordinates
    mod L, so the transforms are stored folded: v mod L and vinv mod L*L.
    Folding vinv rows by multiples of L*L shifts y = vinv @ w by multiples
    of mu_t * L per row (each mu_t divides L), which preserves both the
    membership test y % mu == 0 and the coordinate classes y // mu mod L.
    """

    mu: np.ndarray  # (a,) column scaling factors, each dividing L
    v: np.ndarray  # (a, a) column transform mod L
    vinv: np.ndarray  # (a, a) its inverse mod L*L

    def coords(self, vec: np.ndarray) -> Optional[np.ndarray]:
        """P-coordinates mod L of an integer vector, or None if not in P."""
        y = self.vinv @ np.asarray(vec, dtype=np.int64)
        if (y % self.mu != 0).any():
            return None
        return y // self.mu

    def vector(self, coords: np.ndarray) -> np.ndarray:
        """A vector of P in the coordinate class, determined mod L."""
        return self.v @ (np.asarray(coords, dtype=np.int64) * self.mu)


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-D integer array in lexicographic order, as
    np.unique(rows, axis=0) gives them, which would import numpy.ma."""
    if not rows.shape[1]:
        return rows[:1]
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def kernel_mod(eqs: np.ndarray, a: int, modulus: int) -> KernelBasis:
    """Solve E v = 0 (mod L) over Z^a, E given by rows already reduced mod L."""
    L = int(modulus)
    if L == 1 or a == 0:
        return KernelBasis(
            mu=np.ones(a, dtype=np.int64),
            v=np.eye(a, dtype=np.int64),
            vinv=np.eye(a, dtype=np.int64),
        )
    e = np.asarray(eqs, dtype=np.int64) % L
    if e.size:
        e = _unique_rows(e[np.any(e != 0, axis=1)])
    if e.size == 0:
        e = np.zeros((0, a), dtype=np.int64)
    r = e.shape[0]
    v = np.eye(a, dtype=np.int64)
    vinv = np.eye(a, dtype=np.int64)
    t = 0
    while t < min(r, a):
        sub = e[t:, t:]
        nz = sub[sub > 0]
        if nz.size == 0:
            break
        piv_val = int(nz.min())
        i, j = map(int, np.argwhere(sub == piv_val)[0])
        i += t
        j += t
        e[[t, i]] = e[[i, t]]
        if j != t:
            e[:, [t, j]] = e[:, [j, t]]
            v[:, [t, j]] = v[:, [j, t]]
            vinv[[t, j]] = vinv[[j, t]]
        while True:
            piv = int(e[t, t])
            col = e[:, t].copy()
            col[t] = 0
            rows = np.flatnonzero(col)
            if rows.size:
                q = col[rows] // piv
                e[rows] -= q[:, None] * e[t]
                e[rows] %= L
                rem = np.flatnonzero(e[:, t] % piv != 0)
                rem = rem[rem != t]
                if rem.size:
                    k = int(rem[0])
                    e[[t, k]] = e[[k, t]]
                    continue
            row = e[t].copy()
            row[t] = 0
            cols = np.flatnonzero(row)
            if cols.size:
                q = row[cols] // piv
                e[:, cols] -= e[:, [t]] * q[None, :]
                e[:, cols] %= L
                # fold the trackers; see the KernelBasis docstring
                v[:, cols] -= v[:, [t]] * q[None, :]
                v[:, cols] %= L
                vinv[t] += q @ vinv[cols]
                vinv[t] %= L * L
                _check_guard(v, vinv)
                rem = np.flatnonzero(e[t] % piv != 0)
                rem = rem[rem != t]
                if rem.size:
                    k = int(rem[0])
                    e[:, [t, k]] = e[:, [k, t]]
                    v[:, [t, k]] = v[:, [k, t]]
                    vinv[[t, k]] = vinv[[k, t]]
                    continue
            if int(e[:, t].sum()) == piv and int(e[t].sum()) == piv:
                break
        t += 1
    diag = np.zeros(a, dtype=np.int64)
    for k in range(t):
        diag[k] = e[k, k]
    g = np.gcd(diag, L)
    mu = L // g
    return KernelBasis(mu=mu, v=v, vinv=vinv)


def _prime_powers(modulus: int) -> List[Tuple[int, int]]:
    """[(p, p^k)] over the prime powers p^k exactly dividing modulus."""
    out = []
    rest, p = int(modulus), 2
    while rest > 1:
        if p * p > rest:
            p = rest
        if rest % p == 0:
            q = 1
            while rest % p == 0:
                rest //= p
                q *= p
            out.append((p, q))
        p += 1
    return out


def _local_pivot_rows(rows: np.ndarray, p: int, q: int) -> Tuple[np.ndarray, int]:
    """Pivot rows of rows (entries in [0, q), q = p^k) and the order of their
    row module over Z/q; see `row_module_order`.  Clears rows in place."""
    pivots = []
    order = 1
    scale = 1  # p^v, which divides every entry
    while scale < q and len(rows):
        step = scale * p
        live = rows % step != 0  # the entries of valuation v
        at = int(live.argmax())
        while live.flat[at]:
            i, j = divmod(at, rows.shape[1])
            order *= q // scale
            # times a unit, so that pivot[j] = p^v; this clears column j,
            # and the pivot row with it
            pivot = rows[i] * pow(int(rows[i, j]) // scale, -1, q) % q
            pivots.append(pivot)
            hit = rows[:, j].nonzero()[0]
            cleared = (rows[hit] - (rows[hit, j] // scale)[:, None] * pivot) % q
            rows[hit] = cleared
            live[hit] = cleared % step != 0
            at = int(live.argmax())
        scale = step
    return np.array(pivots, dtype=np.int64).reshape(-1, rows.shape[1]), order


def row_module_order(row_blocks: Iterable[np.ndarray], width: int, modulus: int) -> int:
    """Order of the submodule of (Z/L)^width spanned by the stacked rows of
    row_blocks, read mod L; this is [Z^width : {v : E v = 0 mod L}], the
    product of `kernel_mod(E, width, L).mu`, with no transforms.

    By CRT the module is the product of its reductions mod each prime power
    q = p^k exactly dividing L.  Over Z/q take as pivot an entry of least
    valuation v, p^v u with u a unit.  p^v divides every entry, so one
    rank-1 row operation clears the pivot's column, and column operations,
    never carried out, would clear the pivot's row without touching the
    other rows, which are zero in that column.  The pivot row so splits off
    a cyclic summand of order p^(k-v), and the rest of the module is that of
    the remaining rows.  Row operations keep the module and the remaining
    rows end at zero, so the pivot rows, at most width of them, generate
    it.  Hence the distinct rows of each block are held until more than
    4 width of them wait, then reduced together with the pivot rows kept
    from before, which so make at most a fifth of the rows of any reduction
    but the last; the last reduction gives the order.

    Every entry stays in [0, q) with q <= L, so every product of two entries
    is below L^2.  For L the exponent of a table group N that is at most
    |N|^2, the cell count of N's own table, so int64 arithmetic is exact and
    needs no guard.
    """
    if not width:
        return 1
    local = [(p, q, [np.zeros((0, width), dtype=np.int64)]) for p, q in _prime_powers(modulus)]
    orders = [1] * len(local)

    def eliminate() -> None:
        for k, (p, q, rows) in enumerate(local):
            pivots, orders[k] = _local_pivot_rows(_unique_rows(np.concatenate(rows)), p, q)
            rows[:] = [pivots]

    held = 0
    for block in row_blocks:
        block = np.asarray(block, dtype=np.int64).reshape(-1, width)
        for p, q, rows in local:
            rows.append(_unique_rows(block % q))
        held += max((len(rows[-1]) for *_, rows in local), default=0)
        if held > 4 * width:
            eliminate()
            held = 0
    eliminate()
    return prod(orders)


@dataclass
class QuotientForm:
    """Z^a modulo a column lattice containing L*Z^a, in Smith form."""

    diag: np.ndarray  # (a,) invariant factors, divisibility chain, entries in (0, L]
    u: np.ndarray  # (a, a) row transform mod L: y = U t
    uinv: np.ndarray  # its inverse mod L; columns are class representatives

    def coefficients(self, t: np.ndarray) -> np.ndarray:
        return (self.u @ np.asarray(t, dtype=np.int64)) % self.diag

    def representative(self, position: int) -> np.ndarray:
        return self.uinv[:, position].copy()


def _fold_keep_L(mat: np.ndarray, L: int) -> None:
    nz = mat != 0
    mat %= L
    mat[nz & (mat == 0)] = L


def quotient_snf(cols: np.ndarray, a: int, modulus: int) -> QuotientForm:
    """Smith form of Z^a / (lattice of `cols` + L*Z^a), tracking row transforms."""
    L = int(modulus)
    if a == 0:
        return QuotientForm(
            diag=np.zeros(0, dtype=np.int64),
            u=np.eye(0, dtype=np.int64),
            uinv=np.eye(0, dtype=np.int64),
        )
    base = np.asarray(cols, dtype=np.int64).reshape(a, -1)
    x = np.concatenate([base, L * np.eye(a, dtype=np.int64)], axis=1)
    _fold_keep_L(x, L)
    w = x.shape[1]
    u = np.eye(a, dtype=np.int64)
    uinv = np.eye(a, dtype=np.int64)

    def col_swap(i, j):
        if i != j:
            x[:, [i, j]] = x[:, [j, i]]

    def row_swap(i, j):
        if i != j:
            x[[i, j]] = x[[j, i]]
            u[[i, j]] = u[[j, i]]
            uinv[:, [i, j]] = uinv[:, [j, i]]

    def clear_at(t: int) -> None:
        while True:
            piv = int(x[t, t])
            # clear row t (column ops, untracked)
            row = x[t].copy()
            row[t] = 0
            cols_nz = np.flatnonzero(row)
            if cols_nz.size:
                q = row[cols_nz] // piv
                block = x[:, cols_nz] - x[:, [t]] * q[None, :]
                _fold_keep_L(block, L)
                x[:, cols_nz] = block
                rem = np.flatnonzero(x[t] % piv != 0)
                rem = rem[rem != t]
                if rem.size:
                    col_swap(t, int(rem[0]))
                    continue
            # clear column t (row ops, tracked)
            col = x[:, t].copy()
            col[t] = 0
            rows_nz = np.flatnonzero(col)
            if rows_nz.size:
                q = col[rows_nz] // piv
                block = x[rows_nz] - q[:, None] * x[t]
                _fold_keep_L(block, L)
                x[rows_nz] = block
                # The lattice contains L*Z^a, so the row transforms only ever
                # matter mod L; reducing keeps every entry below L.
                u[rows_nz] -= q[:, None] * u[t]
                u[rows_nz] %= L
                uinv[:, t] += uinv[:, rows_nz] @ q
                uinv[:, t] %= L
                _check_guard(u, uinv)
                rem = np.flatnonzero(x[:, t] % piv != 0)
                rem = rem[rem != t]
                if rem.size:
                    row_swap(t, int(rem[0]))
                    continue
            if int(x[t].sum()) == piv and int(x[:, t].sum()) == piv:
                return

    for t in range(a):
        sub = x[t:, t:]
        nz = sub[sub > 0]
        if nz.size == 0:
            break  # remaining block is zero; those factors normalize to L below
        piv_val = int(nz.min())
        i, j = map(int, np.argwhere(sub == piv_val)[0])
        row_swap(t, i + t)
        col_swap(t, j + t)
        clear_at(t)

    # each diagonal entry generates the same subgroup of Z/L as its gcd with L
    for t in range(a):
        x[t, t] = gcd(int(x[t, t]), L)

    # divisibility chain; a fix strictly lowers x[i, i], so this terminates
    guard = 0
    changed = True
    while changed:
        changed = False
        guard += 1
        if guard > a * L + 64:
            raise RuntimeError("divisibility normalization failed to converge")
        for i in range(a - 1):
            di, dj = int(x[i, i]), int(x[i + 1, i + 1])
            if dj % di != 0:
                changed = True
                x[i + 1, i] = dj  # col i += col i+1 touches only row i+1 here
                clear_at(i)
                x[i, i] = gcd(int(x[i, i]), L)
                x[i + 1, i + 1] = gcd(int(x[i + 1, i + 1]), L)
    diag = np.diagonal(x)[:a].copy()
    return QuotientForm(diag=diag, u=u, uinv=uinv)


# --------------------------------------------------------- abelian structure


@dataclass
class AbelianDecomposition:
    """An abelian table group as a product of cyclic factors.

    factors is the invariant-factor chain (each > 1, each dividing the next);
    coords maps element index -> coefficient tuple; basis[k] is the element
    index realizing the k-th unit coefficient vector.
    """

    group_order: int
    factors: Tuple[int, ...]
    basis: Tuple[int, ...]
    _coord_table: np.ndarray  # (order, len(factors))
    _elem_lookup: dict

    def coords(self, a: int) -> Tuple[int, ...]:
        return tuple(int(x) for x in self._coord_table[a])

    def element(self, coords: Sequence[int]) -> int:
        key = tuple(int(c) % f for c, f in zip(coords, self.factors))
        return self._elem_lookup[key]

    @property
    def exponent(self) -> int:
        return self.factors[-1] if self.factors else 1


def abelian_decomposition(group) -> AbelianDecomposition:
    """Invariant-factor decomposition of an abelian table group, computed
    once per group object and kept on it."""
    if group._decomposition is None:
        group._decomposition = _decompose(group)
    return group._decomposition


def _decompose(group) -> AbelianDecomposition:
    if not group.is_abelian():
        raise ValidationError("decomposition requires an abelian group")
    n = group.order
    if n == 1:
        table = np.zeros((1, 0), dtype=np.int64)
        return AbelianDecomposition(1, (), (), table, {(): 0})
    from .groups import _greedy_generators  # local import to avoid a cycle

    gens = _greedy_generators(group)
    ords = [group.element_order(g) for g in gens]
    total = 1
    for o in ords:
        total *= o
    if total > 64 * n:
        raise ValidationError("generator overlap too large for decomposition")
    # enumerate all exponent vectors; record one preimage per element
    k = len(gens)
    exp_of: dict = {}
    relations: List[List[int]] = []
    powers = []  # powers[i][e] = gens[i]^e
    for g, o in zip(gens, ords):
        row = [0]
        for _ in range(o - 1):
            row.append(group.mul(row[-1], g))
        powers.append(row)
    for vec in np.ndindex(*ords):
        elem = 0
        for i in range(k):
            elem = group.mul(elem, powers[i][vec[i]])
        if elem == 0 and any(vec):
            relations.append(list(vec))
        if elem not in exp_of:
            exp_of[elem] = list(vec)
    if len(exp_of) != n:
        raise ValidationError("generators fail to cover the group")
    rel_cols = [[o if i == j else 0 for i in range(k)] for j, o in enumerate(ords)]
    rel_cols += relations
    mat = [[rel_cols[j][i] for j in range(len(rel_cols))] for i in range(k)]
    diag, u, uinv = snf_small(mat)
    diag = [abs(int(d)) for d in diag] + [0] * (k - len(diag))
    keep = [t for t, d in enumerate(diag) if d != 1]
    if any(diag[t] == 0 for t in keep):
        raise ValidationError("relation lattice is not full rank")
    factors = tuple(diag[t] for t in keep)
    # basis element for coefficient position t: product gens[i]^(uinv[i][t])
    basis = []
    for t in keep:
        elem = 0
        for i in range(k):
            elem = group.mul(elem, group.power(gens[i], int(uinv[i][t]) % ords[i]))
        basis.append(elem)
    coord_table = np.zeros((n, len(keep)), dtype=np.int64)
    for elem, vec in exp_of.items():
        y = [sum(u[t][i] * vec[i] for i in range(k)) for t in keep]
        coord_table[elem] = [yy % d for yy, d in zip(y, factors)]
    lookup = {tuple(int(c) for c in coord_table[e]): e for e in range(n)}
    if len(lookup) != n:
        raise ValidationError("coordinate map is not injective")
    dec = AbelianDecomposition(n, factors, tuple(basis), coord_table, lookup)
    # exhaustive additivity check of the coordinate map
    ct = coord_table
    fac = np.asarray(factors, dtype=np.int64)
    if len(keep):
        lhs = ct[group.table]
        rhs = (ct[:, None, :] + ct[None, :, :]) % fac
        if not (lhs == rhs).all():
            raise ValidationError("coordinate map is not additive")
    return dec


def action_matrices(action, dec: AbelianDecomposition) -> np.ndarray:
    """[a, i, j]: the integer matrix of actor element a on the coordinates.

    Matrix columns are coords(a . basis[j]); acting on a coordinate vector is
    M @ vec followed by reduction mod the factors.
    """
    ct = dec._coord_table
    fac = np.asarray(dec.factors, dtype=np.int64)
    mats = np.ascontiguousarray(ct[action.table[:, list(dec.basis)]].transpose(0, 2, 1))
    # sanity: each matrix must reproduce the action on every element
    got = np.einsum("aij,mj->aim", mats, ct) % fac[:, None]
    bad = (got != ct[action.table].transpose(0, 2, 1)).any(axis=(1, 2))
    if bad.any():
        raise ValidationError(f"action of {int(np.argmax(bad))} is not linear in coordinates")
    return mats
