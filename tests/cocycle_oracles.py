"""Oracles for the cocycle primitives.

The package builds, certifies and reduces connecting cocycles and
pushforwards as stacked [b, x, y] arrays.  These functions do what it did
before, one value table at a time: the obstruction of one crossed
homomorphism under one lift, Light's test on one table, and the linear
reduction of one table through `KernelBasis.coords` and
`QuotientForm.coefficients`.  Each raises the same errors, in the same order,
as the code it replaced.  `_z1_full_scan` finds crossed homomorphisms by
testing every value table, where the package searches generator images.
`oracle_lift_scan_witness` compares the connecting class under every section
of the central quotient, where the package checks single-point changes of
the least lift.  `oracle_pushforward` checks one module map at a time, where
the package certifies the stack.  `oracle_inflation_kernel` searches a
coboundary preimage for the inflation of every class, where the package
searches only the classes that the kernel found so far does not decide.
"""

import numpy as np

from cohomoring import ValidationError, verify
from cohomoring.cocycles import CrossedHom
from cohomoring.cohomology2 import coboundary_preimage, inflation
from cohomoring.groups import _descend, _positions
from table_oracles import old_group_hom_outcome


def oracle_connecting_values(q_group, tau_values, c_group, pi, n_in_c, q_action_on_c,
                             lift=None):
    """Obstruction value table of one crossed homomorphism under one lift."""
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
    return vals


def oracle_lift_scan_witness(ext, cd, h2q, c_set, taus, base):
    """The first (endo, section) whose connecting class differs from its class
    at the least lift, or None; endos outer and sections in itertools.product
    order of the fibers of the central quotient map (identity fixed at 0).

    |N|^(|Qbar|-1) classes per endo, ungated: the oracle for the single-point
    certificate of `verify._lift_witness`.
    """
    pi = cd.pi.values
    m = cd.qbar_group.order
    fibers = np.split(np.argsort(pi, kind="stable"),
                      np.cumsum(np.bincount(pi, minlength=m))[:-1])
    fibers[0] = np.zeros(1, dtype=np.int64)
    sections = int(np.prod([len(f) for f in fibers]))

    def members(rows):
        index = np.arange(rows.start, rows.stop)
        rest = index % sections
        lifts = np.empty((len(index), m), dtype=np.int64)
        for j in range(m - 1, -1, -1):  # last fiber fastest
            rest, digit = np.divmod(rest, len(fibers[j]))
            lifts[:, j] = fibers[j][digit]
        return taus[index // sections], lifts

    for rows, classes in verify._connecting_classes(ext, cd, h2q, len(c_set) * sections,
                                                    members):
        owner = np.arange(rows.start, rows.stop) // sections
        moved = (classes != base[owner]).any(axis=1)
        if moved.any():
            k = int(np.argmax(moved))
            lift = members(slice(rows.start + k, rows.start + k + 1))[1][0]
            return c_set[owner[k]].tolist(), lift.tolist()
    return None


def oracle_check_cocycle(q_group, n_group, action, values):
    """Light's test on one value table, one core generator at a time."""
    q = q_group.order
    n = n_group.order
    v = np.asarray(values, dtype=np.int64)
    if v.shape != (q, q):
        raise ValidationError(f"value table must be {q}x{q}, got {v.shape}")
    if v.min() < 0 or v.max() >= n:
        raise ValidationError("cocycle values out of module range")
    if not n_group.is_abelian():
        raise ValidationError("cocycle module must be abelian")
    if action.actor is not q_group or action.module is not n_group:
        raise ValidationError("action must be of the pair group on the module")
    if (v[0] != 0).any() or (v[:, 0] != 0).any():
        raise ValidationError("cocycle is not normalized at the identity")
    add = n_group.table
    tq = q_group.table
    act = action.table
    for s in q_group.core_generators:
        lhs = add[act[:, v[s]], v[:, tq[s]]]      # [x, z] = x . f(s, z) + f(x, sz)
        rhs = add[v[:, s][:, None], v[tq[:, s]]]  # [x, z] = f(x, s) + f(xs, z)
        if not (lhs == rhs).all():
            x, z = map(int, np.argwhere(lhs != rhs)[0])
            raise ValidationError(
                f"cocycle identity fails at ({x}, {s}, {z})",
                witness=(x, s, z),
            )


def oracle_reduce(h2, values):
    """Class coefficients of one value table: the linear route through the
    kernel basis and the quotient form, the canonical lookup otherwise."""
    v = np.asarray(values, dtype=np.int64)
    if h2.method != "linear":
        return h2._reduce_brute(v)
    if not h2.invariant_factors:
        return ()
    coords = h2._dec._coord_table[v[1:, 1:]].reshape(-1).astype(np.int64)
    t = h2._kern.coords(coords)
    if t is None:
        raise ValidationError("value table is not a cocycle for this data")
    y = h2._qf.coefficients(t)
    return tuple(int(y[k]) for k in h2._kept)


def _z1_full_scan(source, module, action):
    """Crossed homomorphisms by testing the law on every normalized value table.

    |module|^(|source|-1) candidates, ungated: the oracle for the generator
    route of `cohomoring.cocycles.enumerate_z1`.
    """
    s = source.order
    m = module.order
    total = m ** (s - 1)
    arr = np.arange(total, dtype=np.int64)
    vals = np.zeros((total, s), dtype=np.int64)
    for x in range(1, s):
        vals[:, x] = arr % m
        arr = arr // m
    mask = np.ones(total, dtype=bool)
    tm = module.table
    act = action.table
    ts = source.table
    for x in range(1, s):
        for y in range(1, s):
            law = tm[vals[:, x], act[x, vals[:, y]]]
            mask &= law == vals[:, ts[x, y]]
    return [CrossedHom(source, module, action, row, validate=False) for row in vals[mask]]


def oracle_pushforward(cocycle, values):
    """One map's pushforward values as `pushforward_values` checked a map
    before it certified stacks: the old `GroupHom` sweep of all pairs, then
    equivariance under every element of the pair group."""
    n = cocycle.n_group
    got = old_group_hom_outcome(n, n, values)
    if got != "ok":
        raise ValidationError(got[0], witness=got[1])
    vals = np.asarray(values, dtype=np.int64)
    act = cocycle.action.table
    if not (act[:, vals] == vals[act]).all():
        raise ValidationError("module map does not commute with the pair-group action")
    return vals[cocycle.values]


def first_error(calls):
    """(text, witness) of the first call that raises a ValidationError, or
    None when every call returns."""
    for call in calls:
        try:
            call()
        except ValidationError as exc:
            return str(exc), exc.witness
    return None


def outcome(call):
    """(text, witness) of the ValidationError that call raises, or None."""
    return first_error([call])


def oracle_inflation_kernel(ext, h2q):
    """Coefficient tuples of the classes of h2q = H2(Q,N) whose inflation to
    the middle group of `ext` is a coboundary, one search per class, the
    zero class first."""
    return {coeffs for coeffs, rep in h2q.classes()
            if coboundary_preimage(inflation(rep, ext.p, ext.g_action)) is not None}
