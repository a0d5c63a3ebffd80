"""Full-row oracles for the ring tables of the crossed-homomorphism, fiber and
module endomorphism rings.

The package locates each sum and product by its values on the core
generators, under a proof that it is a member.  These builders do what it did
before: form every sum and product on the full value table and look it up
with full-row confirmation, so they prove nothing and assume nothing.
`oracle_kernel_fixing_endos` filters all of End(G), where the package
searches with the kernel images pinned, and `oracle_fiber_endos` searches
the quotient-identity endomorphisms directly, where the package integrates
crossed homomorphisms.

The five per-map oracles of the centralizer layer displace, integrate and
descend one value table at a time, validating each displacement as a
`CrossedHom` and each integrated map by its own `_hom_rows` call, where the
package maps and certifies a whole stack at once.

`oracle_coordinate_laws` builds the two expected tables of the 432-element
ring on all order^2 cells, where the package broadcasts coordinate grids, and
`oracle_quotient_mul_table` scatters and gathers every product to build a
quotient table and test its descent, where the package reads one
representative per coset.  `dihedral_model_ring` builds the mod-n pair
model as a certified semidirect ring, and `oracle_pair_model` compares the
fiber ring of D(n) with it on all order^2 cells of both tables, where the
package reads the match off its two pair-formula rows; `oracle_pair_rows`
decides those sum and product formulas on a full n^4 index grid, where the
package checks the additive generators.  `oracle_restriction_hom` compares the
displacement restriction with both ring tables on every cell, where the
five-term row reads its `RingHom` certificate.

`coset_walk` replays, on a finished sum table and one coset at a time, the
walk by which the package fills a ring's tables from generator rows, and
`relabelled_extension` renames the non-identity elements of an extension's
three groups by seeded permutations, so that the rings come out with their
members in another order.
"""

import numpy as np

from cohomoring import ValidationError
from cohomoring.cocycles import CrossedHom
from cohomoring.endo_rings import fiber_endo_ring
from cohomoring.extension import extension_from_json, extension_to_json
from cohomoring.groups import (TableIndex, _descend, _hom_rows, _positions,
                               _search_generator_images, enumerate_endos, make_cyclic)
from cohomoring.rings import BimoduleAction, FiniteRing, semidirect_ring, zn_ring


def oracle_kernel_fixing_endos(ext):
    """Every endomorphism of the middle group, kept when it fixes the
    embedded kernel pointwise, in the order of `enumerate_endos`."""
    em = ext.i.values
    return [h.values for h in enumerate_endos(ext.g_group) if (h.values[em] == em).all()]


def oracle_fiber_endos(ext):
    """Every endomorphism of the middle group inducing the identity on the
    quotient, by a generator-image search of its own: each core generator s
    ranges over its fiber p^-1(p(s)), |N|^k candidates in all, the count the
    package's crossed-homomorphism search runs through alpha(s) = i(psi(s)) s.
    No budget gates it."""
    g = ext.g_group
    pv = ext.p.values
    gens = g.core_generators
    cands = [ext.fiber(int(pv[s])) for s in gens]
    return [vals for block in _search_generator_images(g, g, cands, gens=gens)
            for vals in block if (pv[vals] == pv).all()]


def full_row_cocycle_tables(stacked, source, module, embedding):
    """(add, dia) over the crossed homomorphisms `stacked`, -1 where a sum or
    product is not among them."""
    index = TableIndex(stacked, source.generators, module.order)
    tm = module.table
    moved = embedding.values[stacked]
    add = np.stack([index.find(tm[va[None, :], stacked]) for va in stacked])
    dia = np.stack([index.find(va[moved]) for va in stacked])
    return add, dia


def full_row_cocycle_outcome(stacked, source, module, embedding):
    """What the full-row construction of the crossed-homomorphism ring on
    the value tables `stacked` gives: its (add, mul) tables as lists, or the
    text of the error it raises."""
    add, dia = full_row_cocycle_tables(stacked, source, module, embedding)
    missing = (add < 0) | (dia < 0)
    if missing.any():
        a = int(np.argmax(missing.any(axis=1)))
        return ("crossed homomorphisms not closed under the ring operations at "
                f"({a}, {int(np.argmax(missing[a]))})")
    try:
        FiniteRing(add, dia, one=None, name="Z1")
    except ValidationError as exc:
        return str(exc)
    return add.tolist(), dia.tolist()


def full_row_fiber_tables(fe):
    """(add2, mul2): the twisted sum alpha(x) x^-1 beta(x) and the twisted
    product on the endomorphism tables of a fiber ring, -1 where absent."""
    g = fe.ext.g_group
    tg, ginv = g.table, g.inverse
    arange = np.arange(g.order)
    stacked = np.stack(fe.endos)
    index = TableIndex(stacked, g.generators, g.order)
    ivals = fe.ext.i.values
    add2 = np.stack([index.find(tg[tg[va, ginv[arange]][None, :], stacked])
                     for va in stacked])
    mul2 = np.zeros_like(add2)
    for b in range(fe.size):
        moved = ivals[fe.displacement(b).values]
        mul2[:, b] = index.find(tg[tg[stacked[:, moved], ginv[moved][None, :]], arange[None, :]])
    return add2, mul2


def full_row_module_tables(mr):
    """(add, mul) of the equivariant endomorphisms of a module ring, -1 where
    absent."""
    stacked = mr.values
    index = TableIndex(stacked, mr.module.generators, mr.module.order)
    tm = mr.module.table
    add = np.stack([index.find(tm[va[None, :], stacked]) for va in stacked])
    mul = np.stack([index.find(va[stacked]) for va in stacked])
    return add, mul


def coset_walk(add):
    """(generators, members in the order reached) of the walk that spans
    the additive group of `add` from {0}: the least member not yet reached
    is the next generator g, and the cosets g + C of the last coset C are
    taken, one at a time, until one returns into the span before g."""
    reached = [0]
    generators = []
    while len(reached) < len(add):
        g = min(set(range(len(add))) - set(reached))
        generators.append(g)
        span, coset = set(reached), reached
        while True:
            coset = [int(add[g, x]) for x in coset]
            if coset[0] in span:
                break
            reached = reached + coset
    return generators, reached


def relabelled_extension(ext, seed):
    """`ext` with the non-identity elements of N, G and Q renamed by
    permutations drawn from `seed`; both maps are renamed to match."""
    rng = np.random.default_rng(seed)
    data = extension_to_json(ext)
    perms = {key: np.concatenate([[0], 1 + rng.permutation(data[key]["order"] - 1)])
             for key in ("kernel", "group", "quotient")}

    def group(key):
        old, perm = data[key], perms[key]
        table = np.empty((len(perm), len(perm)), dtype=np.int64)
        table[np.ix_(perm, perm)] = perm[np.asarray(old["table"])]
        labels = [""] * len(perm)
        for a, label in enumerate(old["labels"]):
            labels[perm[a]] = label
        return {"order": old["order"], "table": table.tolist(),
                "generators": perm[old["generators"]].tolist(), "labels": labels}

    def renamed(values, source, target):
        out = np.empty(len(values), dtype=np.int64)
        out[perms[source]] = perms[target][np.asarray(values)]
        return out.tolist()

    return extension_from_json({
        "name": data["name"], "kernel": group("kernel"), "group": group("group"),
        "quotient": group("quotient"),
        "kernel_map": renamed(data["kernel_map"], "kernel", "group"),
        "quotient_map": renamed(data["quotient_map"], "group", "quotient")})


def assert_ring_tables_match_full_rows(ext):
    """The fiber ring of `ext`, its displacement ring and its module ring
    have exactly the tables of the full-row oracles."""
    fe = fiber_endo_ring(ext)
    cring = fe.cocycles
    for got, want in zip((cring.ring.add_table, cring.ring.mul_table),
                         full_row_cocycle_tables(cring.values, ext.g_group, ext.n_group, ext.i)):
        assert (got == want).all(), ext.name
    for got, want in zip((fe.ring.add_table, fe.ring.mul_table), full_row_fiber_tables(fe)):
        assert (got == want).all(), ext.name
    mr = fe.module_ring
    for got, want in zip((mr.ring.add_table, mr.ring.mul_table), full_row_module_tables(mr)):
        assert (got == want).all(), ext.name
    return fe


# ---------------------------------------------- per-map centralizer-layer maps


def oracle_centralizer_displacement(cd, alpha_values):
    """Displacement q -> alpha(u(q)) u(q)^{-1} of one kernel-fixing
    endomorphism, as centralizer positions, validated as a crossed hom."""
    ext = cd.ext
    g = ext.g_group
    alpha = np.asarray(alpha_values, dtype=np.int64)
    u = ext.section
    disp = g.table[alpha[u], g.inverse[u]]
    vals = _positions(g.order, cd.c_sub.embedding.values)[disp]
    if (vals < 0).any():
        q_bad = int(np.nonzero(vals < 0)[0][0])
        raise ValidationError("displacement escapes the kernel centralizer", witness=q_bad)
    return CrossedHom(ext.q_group, cd.c_sub.group, cd.q_action_on_c, vals).values


def oracle_endo_from_centralizer_displacement(cd, phi_values):
    """Integrate one centralizer-valued crossed hom to a kernel-fixing
    endomorphism."""
    ext = cd.ext
    g = ext.g_group
    phi = np.asarray(phi_values, dtype=np.int64)
    arange = np.arange(g.order, dtype=np.int64)
    pv = ext.p.values
    u_of = ext.section[pv]
    npart = ext._n_pos[g.table[arange, g.inverse[u_of]]]
    cemb = cd.c_sub.embedding.values
    vals = g.table[g.table[ext.i.values[npart], cemb[phi[pv]]], u_of]
    if not _hom_rows(g, g, vals[None])[0]:
        raise ValidationError("centralizer displacement does not integrate", witness=phi)
    em = ext.i.values
    if not (vals[em] == em).all():
        raise ValidationError("integrated endomorphism moves the kernel", witness=phi)
    return vals


def oracle_induced_quotient_endo(ext, alpha_values):
    """Push one kernel-preserving endomorphism of the middle group to the
    quotient."""
    alpha = np.asarray(alpha_values, dtype=np.int64)
    pv = ext.p.values
    _, cand, bad = _descend(pv, pv[alpha])
    if bad.any():
        raise ValidationError("endomorphism does not descend to the quotient",
                              witness=int(np.argmax(bad)))
    if not _hom_rows(ext.q_group, ext.q_group, cand[None])[0]:
        raise ValidationError("descended map is not an endomorphism")
    return cand


def oracle_quotient_endo_displacement(cd, phi_values):
    """Displacement x -> phi(x) x^{-1} of one action-preserving quotient
    endo, as central-quotient positions, validated as a crossed hom."""
    q = cd.ext.q_group
    phi = np.asarray(phi_values, dtype=np.int64)
    w = q.table[phi, q.inverse[np.arange(q.order, dtype=np.int64)]]
    vals = _positions(q.order, cd.qbar_in_q.values)[w]
    if (vals < 0).any():
        bad = int(np.nonzero(vals < 0)[0][0])
        raise ValidationError("quotient displacement escapes the kernel of the action",
                              witness=bad)
    return CrossedHom(q, cd.qbar_group, cd.q_action_on_qbar, vals).values


def oracle_quotient_endo_from_displacement(cd, tau_values):
    """Integrate one crossed hom into the central quotient layer to a
    quotient endo."""
    q = cd.ext.q_group
    tau = np.asarray(tau_values, dtype=np.int64)
    vals = q.table[cd.qbar_in_q.values[tau], np.arange(q.order, dtype=np.int64)]
    if not _hom_rows(q, q, vals[None])[0]:
        raise ValidationError("quotient displacement does not integrate", witness=tau)
    if not (cd.ext.action.table[vals] == cd.ext.action.table).all():
        raise ValidationError("integrated quotient endo changes the kernel action")
    return vals


def oracle_closure_witness(index):
    """First pair (x, y) of indexed endos whose composite x(y) is not
    indexed, one x at a time."""
    members = index.tables
    for x in members:
        escapes = index.find(x[members]) < 0
        if escapes.any():
            return x.tolist(), members[int(np.argmax(escapes))].tolist()
    return None


def oracle_descent_witness(ext, members, induced):
    """First pair (x, y) of endos whose composite x(y) descends to something
    other than the composite of their descents, one x at a time."""
    lifted = members[:, ext.section]
    for k, x in enumerate(members):
        bad = (ext.p.values[x[lifted]] != induced[k][induced]).any(axis=1)
        if bad.any():
            return x.tolist(), members[int(np.argmax(bad))].tolist()
    return None


# ------------------------------------------- full-table ring432 and quotients


def oracle_coordinate_laws(ring, pairs, pos, rvals):
    """(passed, witness) for the sum law and then the product law of the
    432-element ring, from both expected tables built in int64 on every cell
    out of the value decomposition of each member index."""
    nr = rvals.shape[0]
    member = np.arange(ring.order)
    kvals = pairs[member // nr, 0]
    lvals = pairs[member // nr, 1]
    svals = rvals[member % nr]
    expect_add = pos[(kvals[:, None] + kvals[None, :]) % 12,
                     (lvals[:, None] + lvals[None, :]) % 12] * nr + \
        ((svals[:, None] + svals[None, :]) % 12) // 2
    expect_mul = pos[(svals[:, None] * kvals[None, :]) % 12,
                     (svals[:, None] * lvals[None, :]) % 12] * nr + \
        ((svals[:, None] * svals[None, :]) % 12) // 2
    laws = []
    for table, expect in ((ring.add_table, expect_add), (ring.mul_table, expect_mul)):
        ok = bool((table == expect).all())
        wit = None
        if not ok:
            a, b = map(int, np.argwhere(table != expect)[0])
            wit = {"left": [int(kvals[a]), int(lvals[a]), int(svals[a])],
                   "right": [int(kvals[b]), int(lvals[b]), int(svals[b])]}
        laws.append((ok, wit))
    return laws


def oracle_quotient_mul_table(ring, pv, h):
    """The h x h product table of the cosets numbered by `pv`, filled by
    scattering every product and confirmed by gathering it back; raises when
    multiplication does not descend."""
    lifted = pv[ring.mul_table]
    mul_q = np.zeros((h, h), dtype=lifted.dtype)
    mul_q[pv[:, None], pv[None, :]] = lifted
    bad = mul_q[pv[:, None], pv[None, :]] != lifted
    if bad.any():
        a, b = map(int, np.argwhere(bad)[0])
        raise ValidationError(
            f"multiplication does not descend to cosets at ({a}, {b})", witness=(a, b))
    return mul_q


def dihedral_model_ring(n):
    """Mod-n pairs (k, l) with product (k1,l1)(k2,l2) = (l1 k2, l1 l2).

    Built as a semidirect ring: the coefficient ring acts on the carrier by
    multiplication on the left and by zero on the right.
    """
    zn = zn_ring(n, name=f"mod-{n} residues")
    carrier = make_cyclic(n)
    mul = np.arange(n, dtype=np.int64)
    left = (mul[:, None] * mul[None, :]) % n
    right = np.zeros((n, n), dtype=np.int64)
    action = BimoduleAction(r_ring=zn, s_group=carrier, left=left, right=right)
    return semidirect_ring(action, name=f"pair ring mod {n}")


def oracle_pair_model(fe, model, n):
    """Whether (k,l) -> f(k,l), the member of the fiber ring `fe` of D(n)
    with displacement k at the reflection and l at the rotation, carries
    both tables of the ring `model` (index k*n + l) onto those of the fiber
    ring, compared on every cell."""
    mem = np.full(n * n, -1, dtype=np.int64)
    for m, psi in enumerate(fe.cocycles.values):
        mem[psi[1] * n + psi[2]] = m
    if model.order != fe.size or (mem < 0).any():
        return False
    return all((mem[model_table] == table[mem[:, None], mem[None, :]]).all()
               for model_table, table in ((model.add_table, fe.ring.add_table),
                                          (model.mul_table, fe.ring.mul_table)))


def oracle_pair_rows(ring, f_index):
    """[(verdict, first witness)] of the rows "sum of f(k,l) and f(p,q) is
    f(k+p,l+q)" and "product of f(k,l) and f(p,q) is f(lp,lq)" of the D(n)
    report, for f = f_index onto the members of `ring`, compared on every
    index pair [k, l, p, q]."""
    n = len(f_index)
    k, l, p, q = np.indices((n,) * 4)
    rows = []
    for table, want in ((ring.add_table, f_index[(k + p) % n, (l + q) % n]),
                        (ring.mul_table, f_index[(l * p) % n, (l * q) % n])):
        bad = np.argwhere(table[f_index[k, l], f_index[p, q]] != want)
        wit = None
        if len(bad):
            k0, l0, p0, q0 = map(int, bad[0])
            wit = {"left": [k0, l0], "right": [p0, q0]}
        rows.append((not len(bad), wit))
    return rows


def oracle_restriction_hom(fe, values=None):
    """Whether `values` (by default the displacement restriction `fe.res`)
    carries both tables of the fiber ring onto those of the module ring,
    compared on every order^2 cell: the sweep the five-term row made before
    it read the `RingHom` certificate."""
    v = fe.res.values if values is None else np.asarray(values, dtype=np.int64)
    source, target = fe.ring, fe.module_ring.ring
    return all((v[table] == image[v[:, None], v[None, :]]).all()
               for table, image in ((source.add_table, target.add_table),
                                    (source.mul_table, target.mul_table)))
