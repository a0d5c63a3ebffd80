"""Machine verification of the exact sequences attached to an extension.

Every verifier enumerates the finite sets at each node of one sequence,
computes all the maps elementwise, and checks kernel-equals-image (or its
pointed-set analogue, fiber over the base point equals image) at every
interior node.  Results come back as a report object listing node sizes,
per-position pass/fail records with kernel and image sizes, and a concrete
counterexample witness whenever a check fails.

Verified sequences, for an extension with abelian kernel N, middle group G
and quotient Q:

* the five-term ring sequence
  0 -> ideal -> quotient-identity endos -> equivariant kernel endos
    -> H2(Q,N) -> H2(G,N),
  where the last map inflates classes and the one before pushes the
  classifying cocycle forward along a displacement;
* its restriction to invertible members, cross-checked against the
  quasi-regular route through the square-zero ideal;
* the pointed sequence through the kernel centralizer
  0 -> kernel-and-quotient-fixing endos -> kernel-fixing endos
    -> action-preserving quotient endos -> H2(Q,N);
* its restriction to invertible members;
* the crossed-homomorphism sequence of the central layer
  0 -> Z1(Q,N) -> Z1(Q,C) -> Z1(Q,Qbar) -> H2(Q,N);
* the quasi-regular sequence 0 -> I -> QR(R) -> QR(S) -> 0 of any surjection
  of finite rings with square-zero kernel.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from .budgets import current_budgets
from .cocycles import _z1_table
from .cohomology2 import (
    H2Group,
    TwoCocycle,
    _coboundary_gate,
    coboundary_preimage,
    compute_h2,
    connecting_values,
    h2_order,
    inflation,
    pushforward_values,
)
from .endo_rings import (
    FiberEndoRing,
    action_preserving_quotient_endos,
    centralizer_displacements,
    endos_from_centralizer_displacements,
    fiber_endo_ring,
    induced_quotient_endos,
    kernel_fixing_endos,
    quotient_endo_displacements,
    quotient_endos_from_displacements,
)
from .extension import AbelianExtension, CentralizerData, centralizer_extension
from .groups import TableIndex, _descend, _is_bijective, _positions, _row_blocks
from .rings import FiniteRing, RingHom, quasi_regular_indices, subring_from_indices
from .store import SweepStore


def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    return obj


@dataclass
class SequenceCheck:
    """One exactness or structure check at a named position of a sequence."""

    position: str
    kernel_size: Optional[int]
    image_size: Optional[int]
    status: str  # "pass", "fail" or "skipped"
    detail: str = ""
    witness: Optional[object] = None

    def line(self) -> str:
        sizes = ""
        if self.kernel_size is not None or self.image_size is not None:
            k = "-" if self.kernel_size is None else str(self.kernel_size)
            i = "-" if self.image_size is None else str(self.image_size)
            sizes = f" kernel={k} image={i}"
        tail = f"  ({self.detail})" if self.detail else ""
        wit = f"  witness={_jsonable(self.witness)!r}" if self.witness is not None else ""
        return f"  [{self.status:>7}] {self.position}:{sizes}{tail}{wit}"


@dataclass
class ExactnessReport:
    """Outcome of verifying one sequence on one instance."""

    sequence_name: str
    instance: str
    nodes: List[Tuple[str, Optional[int]]] = field(default_factory=list)
    checks: List[SequenceCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.status != "fail" for c in self.checks)

    def add(self, position: str, passed: bool, kernel_size: Optional[int] = None,
            image_size: Optional[int] = None, detail: str = "",
            witness: Optional[object] = None) -> None:
        self.checks.append(SequenceCheck(
            position, kernel_size, image_size,
            "pass" if passed else "fail", detail,
            None if passed else witness))

    def skip(self, position: str, detail: str) -> None:
        self.checks.append(SequenceCheck(position, None, None, "skipped", detail))

    def lines(self) -> List[str]:
        node_parts = []
        for name, size in self.nodes:
            node_parts.append(f"{name}({size if size is not None else 'not checked'})")
        out = [f"sequence: {self.sequence_name}",
               f"instance: {self.instance}",
               "nodes: " + " -> ".join(node_parts)]
        out.extend(c.line() for c in self.checks)
        out.append(f"result: {'PASS' if self.ok else 'FAIL'}")
        return out

    def to_json(self) -> Dict:
        """The report as plain JSON data, every witness converted."""
        return self._json_tree(_jsonable)

    def _json_tree(self, plain: Callable = lambda value: value) -> Dict:
        """The report as `cli._emit_json` prints it, each witness passed
        through `plain`; by default no value is copied."""
        return {
            "sequence": self.sequence_name,
            "instance": self.instance,
            "nodes": [[n, s] for n, s in self.nodes],
            "checks": [
                {
                    "position": c.position,
                    "kernel_size": c.kernel_size,
                    "image_size": c.image_size,
                    "status": c.status,
                    "detail": c.detail,
                    "witness": plain(c.witness),
                }
                for c in self.checks
            ],
            "ok": self.ok,
        }


def _set_equal(report: ExactnessReport, position: str, kernel: set, image: set,
               detail: str = "") -> None:
    diff = sorted(kernel.symmetric_difference(image), key=repr)
    report.add(position, not diff, len(kernel), len(image), detail,
               witness=diff[:3] if diff else None)


def _instance_name(ext: AbelianExtension) -> str:
    if ext.name:
        return ext.name
    return (f"{ext.n_group.name or ext.n_group.order} -> "
            f"{ext.g_group.name or ext.g_group.order} -> "
            f"{ext.q_group.name or ext.q_group.order}")


@dataclass
class ExtensionData:
    """What the five verifiers of one extension share, each built once, on
    first use.  What depends on the Q-module N alone (H^2(Q,N), the module
    ring inside `fe`, `c_all` and `z1n`) comes from `store`, which every
    extension of one sweep with the same Q-module shares (a fresh store by
    default).  The three centralizer-layer sequences end in
    one connecting map Z1(Q, Qbar) -> H2(Q,N) (Brown, Cohomology of Groups,
    IV.3), whose classes at the least lift are `delta`, one row per row of
    `z1qbar`."""

    ext: AbelianExtension
    store: SweepStore = field(default_factory=SweepStore)

    @cached_property
    def fe(self) -> FiberEndoRing:
        return fiber_endo_ring(self.ext, self.store)

    @cached_property
    def h2q(self) -> H2Group:
        q, n, action = self.ext.q_group, self.ext.n_group, self.ext.action
        return self.store.q_module("H2", action, lambda: compute_h2(q, n, action))

    @cached_property
    def cd(self) -> CentralizerData:
        return centralizer_extension(self.ext)

    @cached_property
    def b_all(self) -> np.ndarray:
        return kernel_fixing_endos(self.ext)

    @cached_property
    def c_all(self) -> np.ndarray:
        ext = self.ext
        return self.store.q_module("QEnd", ext.action,
                                   lambda: action_preserving_quotient_endos(ext))

    @cached_property
    def z1n(self) -> np.ndarray:
        q, n, action = self.ext.q_group, self.ext.n_group, self.ext.action
        return self.store.q_module("Z1", action, lambda: _z1_table(q, n, action))

    @cached_property
    def eta(self) -> np.ndarray:
        return _eta_coefficients(self.fe, self.h2q, self.ext.classifying_cocycle())

    @cached_property
    def z1c(self) -> np.ndarray:
        return _z1_table(self.ext.q_group, self.cd.c_sub.group, self.cd.q_action_on_c)

    @cached_property
    def z1qbar(self) -> np.ndarray:
        return _z1_table(self.ext.q_group, self.cd.qbar_group, self.cd.q_action_on_qbar)

    @cached_property
    def z1qbar_index(self) -> TableIndex:
        return TableIndex(self.z1qbar, self.ext.q_group.core_generators, self.cd.qbar_group.order)

    @cached_property
    def delta(self) -> np.ndarray:
        return _base_classes(self.ext, self.cd, self.h2q, self.z1qbar)


# ------------------------------------------------------------ five-term (ring)


def _eta_coefficients(fe: FiberEndoRing, h2q: H2Group, f_ext: TwoCocycle) -> np.ndarray:
    """[b, r] class coefficients of the pushforward of the classifying cocycle
    along each equivariant kernel endomorphism b, built, certified and
    reduced in blocks of stacked value tables."""
    h2q.check_data(f_ext.q_group, f_ext.n_group, f_ext.action)
    endos = fe.module_ring.values
    return np.concatenate([h2q.reduce_values(pushforward_values(f_ext, endos[rows]))
                           for rows in _row_blocks(len(endos), f_ext.q_group.order ** 2)])


def _inflation_kernel(ext: AbelianExtension, h2q: H2Group) -> set:
    """Coefficient tuples of the classes of H2(Q,N) whose inflation to the
    middle group is a coboundary.

    Inflation pulls value tables back along p, so coefficients c -> the
    class of the inflated sum of c_r class_reps[r] is additive, and it
    factors through the class group, the sum of the Z/d_r, since d_r
    class_reps[r] is a coboundary on Q and pulls back to one on G.  Its
    kernel K is thus a subgroup.  The classes are walked in `np.ndindex`
    order.  A class is in K when it lies in the span S of the kernel classes
    found so far; S starts at the zero class, which is never searched.  It
    is outside K when it differs by an element of S from a searched class
    outside K, which would otherwise be in K.  Only the classes neither rule
    decides get a representative and a `coboundary_preimage` search, and
    every class of K is either in S when reached or searched and added, so
    S ends as K.  The search's budget gate, the same for every class, is
    read once first.
    """
    _coboundary_gate(ext.g_group, ext.n_group)
    dims = h2q.invariant_factors
    d = np.asarray(dims, dtype=np.int64)
    box = np.array(list(np.ndindex(*dims)), dtype=np.int64).reshape(h2q.order, len(dims))
    strides = np.array([math.prod(dims[r + 1:]) for r in range(len(dims))], dtype=np.int64)

    def flat(c: np.ndarray) -> np.ndarray:
        return (c % d) @ strides

    span = np.zeros(len(box), dtype=bool)
    span[0] = True
    outside: List[int] = []
    for j, c in enumerate(box):
        if span[j] or span[flat(c - box[outside])].any():
            continue
        rep = h2q.rep_from_coeffs(c.tolist())
        if coboundary_preimage(inflation(rep, ext.p, ext.g_action)) is None:
            outside.append(j)
            continue
        shift = flat(box - c)  # span + c, read as a mask: [x] = span[x - c]
        grown = span | span[shift]
        while (grown != span).any():
            span = grown
            grown = span | span[shift]
    return {tuple(row) for row in box[span].tolist()}


def verify_five_term(data: ExtensionData, check_h2g: bool = True) -> ExactnessReport:
    """Verify the five-term ring sequence of the extension.

    Exactness at H2(Q,N) compares the transgression image with the kernel
    of inflation, which `_inflation_kernel` finds as a subgroup with one
    `coboundary_preimage` search per class its span does not decide; the
    H2(G,N) node size comes from `h2_order`.  Neither builds H^2(G,N).
    The restriction row reads `fe.res`, the `RingHom` from `fe.ring` to the
    module ring that `fiber_endo_ring` certified on additive generators.
    check_h2g: True checks exactness and shows the node size when the middle
    group is within `h2g_max_group_order`; False skips both.
    """
    ext, fe, h2q = data.ext, data.fe, data.h2q
    report = ExactnessReport("five-term endomorphism ring sequence", _instance_name(ext))

    mr = fe.module_ring
    ideal = set(int(k) for k in fe.ideal_indices)
    eta = data.eta

    h2g_order = None
    if check_h2g and ext.g_group.order <= current_budgets().h2g_max_group_order:
        # fe.ring is indexed by the displacements, which are Z^1(G,N)
        h2g_order = h2_order(ext.g_group, ext.n_group, ext.g_action, fe.ring.order)

    report.nodes = [
        ("kernel-and-quotient-fixing endos", len(ideal)),
        ("quotient-identity endos", fe.ring.order),
        ("equivariant kernel endos", mr.ring.order),
        ("H2(Q,N)", h2q.order),
        ("H2(G,N)", h2g_order),
    ]

    # Structure checks demanded alongside exactness.
    rv = fe.res.values
    report.add("displacement restriction is a ring homomorphism",
               fe.res.source is fe.ring and fe.res.target is mr.ring,
               detail="RingHom certificate on additive generators")
    # eta(a + g) = eta(a) + eta(g) for all a, at g = 0 and each core
    # generator g: the g passing it are closed under +, so all g pass
    cols = [0, *mr.ring.add_group.core_generators]
    sums = (eta[:, None, :] + eta[cols][None, :, :]) % np.asarray(h2q.invariant_factors,
                                                                  dtype=np.int64)
    report.add("transgression is additive",
               bool((eta[mr.ring.add_table[:, cols]] == sums).all()),
               detail="pushforward classes add across the module sum")

    # Exactness at the ideal: the inclusion is injective by construction.
    report.add("kernel-and-quotient-fixing endos", True, 1, None,
               detail="inclusion of the square-zero ideal is injective")

    # Exactness at the twisted ring: members restricting to the identity on
    # the kernel are exactly the ideal.  Restriction-to-identity matches
    # displacement restriction zero.
    ker_res = {k for k in range(fe.ring.order) if int(rv[k]) == 0}
    _set_equal(report, "quotient-identity endos", ker_res, ideal,
               detail="kernel of restriction vs the ideal")

    # Exactness at the module endos: kernel of the transgression equals the
    # image of the displacement restriction.
    ker_eta = set(np.flatnonzero(~eta.any(axis=1)).tolist())
    im_res = {int(v) for v in rv}
    _set_equal(report, "equivariant kernel endos", ker_eta, im_res,
               detail="kernel of transgression vs restricted displacements")

    # Exactness at H2(Q,N): classes killed by inflation to the middle group
    # are exactly the transgression image.
    if not check_h2g:
        report.skip("H2(Q,N)", "middle-group cohomology not checked")
    else:
        im_eta = {tuple(e) for e in eta.tolist()}
        ker_inf = _inflation_kernel(ext, h2q)
        _set_equal(report, "H2(Q,N)", ker_inf, im_eta,
                   detail="classes killed by inflation vs transgression image")
    return report


# ----------------------------------------------------- five-term (invertibles)


def verify_qr_sequence(ring: FiniteRing, ideal_indices, proj: RingHom,
                       instance: str = "") -> ExactnessReport:
    """Verify 0 -> I -> QR(R) -> QR(S) -> 0 for a ring surjection with
    square-zero kernel I, plus the lifting property: any element whose image
    is quasi-regular is quasi-regular.  No circle table is built: proj's
    `RingHom` certificate proves a + b + ab preserved on its source, `ring`."""
    report = ExactnessReport("quasi-regular extension sequence",
                             instance or (ring.name or f"ring of order {ring.order}"))
    target = proj.target
    ideal = {int(a) for a in ideal_indices}
    pv = proj.values

    ker = {r for r in range(ring.order) if int(pv[r]) == 0}
    _set_equal(report, "kernel of the surjection", ker, ideal,
               detail="stated ideal vs elementwise kernel")
    members = np.array(sorted(ideal), dtype=np.int64)
    prods = ring.mul_table[members[:, None], members]
    report.add("ideal squares to zero", not prods.any(),
               witness=None if not prods.any() else prods)
    report.add("surjectivity", len(set(pv.tolist())) == target.order,
               None, len(set(pv.tolist())))

    qr_r = set(quasi_regular_indices(ring))
    qr_s = set(quasi_regular_indices(target))
    pre = {r for r in range(ring.order) if int(pv[r]) in qr_s}
    _set_equal(report, "quasi-regular lifting", pre, qr_r,
               detail="preimage of quasi-regulars vs quasi-regulars")

    missing = sorted(ideal - qr_r)
    report.add("ideal", not missing, len(ideal), None,
               detail="every ideal member is quasi-regular",
               witness=missing[:3] if missing else None)
    ker_p2 = {r for r in qr_r if int(pv[r]) == 0}
    _set_equal(report, "quasi-regulars of the ring", ker_p2, ideal & qr_r,
               detail="kernel of the induced map vs the ideal")
    im_p2 = {int(pv[r]) for r in qr_r}
    _set_equal(report, "quasi-regulars of the image", im_p2, qr_s,
               detail="induced map is onto the target quasi-regulars")

    report.add("induced map preserves the adjoint product", proj.source is ring)

    report.nodes = [
        ("ideal", len(ideal)),
        ("quasi-regulars of the ring", len(qr_r)),
        ("quasi-regulars of the image", len(qr_s)),
    ]
    return report


def verify_aut_five_term(data: ExtensionData) -> ExactnessReport:
    """Verify the restriction of the five-term sequence to invertible members,
    and cross-check it against the quasi-regular route through the ideal."""
    ext, fe, h2q = data.ext, data.fe, data.h2q
    report = ExactnessReport("five-term automorphism sequence", _instance_name(ext))

    mr = fe.module_ring
    ideal = set(int(k) for k in fe.ideal_indices)
    aut = set(int(k) for k in fe.aut_indices)
    one = mr.ring.one
    assert one is not None

    # Invertible members of each node, by direct bijectivity scan.
    endos = fe.index.tables
    ai = fe.ideal_indices[_is_bijective(endos[fe.ideal_indices])]
    aut_ideal = set(ai.tolist())
    module_aut = set(np.flatnonzero(_is_bijective(mr.values)).tolist())

    report.nodes = [
        ("invertible kernel-and-quotient-fixing endos", len(aut_ideal)),
        ("invertible quotient-identity endos", len(aut)),
        ("invertible equivariant kernel endos", len(module_aut)),
        ("H2(Q,N)", h2q.order),
    ]

    _set_equal(report, "ideal members are all invertible", aut_ideal, ideal)
    qr_ring = set(quasi_regular_indices(fe.ring))
    _set_equal(report, "invertibles equal quasi-regulars", aut, qr_ring,
               detail="bijectivity scan vs adjoint-invertible elements")
    qr_module = set(mr.ring.add_table[one, np.asarray(quasi_regular_indices(mr.ring),
                                                      dtype=np.int64)].tolist())
    _set_equal(report, "module invertibles equal shifted quasi-regulars",
               module_aut, qr_module,
               detail="bijectivity scan vs one-plus-quasi-regulars")

    e = endos[ai]  # e[rows][:, e][a, b] = a o b and e[:, e[rows]][b, a] = b o a
    wit = _first_pair(e, lambda rows: (
        e[rows][:, e] != e[:, e[rows]].transpose(1, 0, 2)).any(axis=2), names=ai.tolist())
    report.add("ideal members commute under composition", wit is None, witness=wit)

    # Restriction sends invertibles to invertibles.
    members = sorted(aut)
    rho = dict(zip(members, mr.ring.add_table[one, fe.res.values[members]].tolist()))
    escapes = sorted(k for k, u in rho.items() if u not in module_aut)
    report.add("restriction preserves invertibility", not escapes,
               witness=escapes[:3] if escapes else None)

    report.add("invertible kernel-and-quotient-fixing endos", True, 1, None,
               detail="inclusion is injective")
    ker_rho = {k for k in aut if rho[k] == one}
    _set_equal(report, "invertible quotient-identity endos", ker_rho, aut_ideal,
               detail="kernel of restriction vs invertible ideal members")
    im_rho = set(rho.values())
    units = np.asarray(sorted(module_aut), dtype=np.int64)
    shifted = mr.ring.add_table[units, mr.ring.neg(one)]  # [u]: u - one
    ker_eta_aut = set(units[~data.eta[shifted].any(axis=1)].tolist())
    _set_equal(report, "invertible equivariant kernel endos", ker_eta_aut, im_rho,
               detail="displaced-transgression kernel vs restricted invertibles")

    # Cross-route: the same exactness through the quasi-regular sequence of
    # the displacement restriction onto its image subring.
    image = sorted({int(v) for v in fe.res.values})
    sub, arr = subring_from_indices(mr.ring, image, name="restricted displacements")
    proj = RingHom(fe.ring, sub, _positions(mr.ring.order, arr)[fe.res.values])
    qr_report = verify_qr_sequence(fe.ring, fe.ideal_indices, proj,
                                   instance=_instance_name(ext))
    for c in qr_report.checks:
        report.checks.append(SequenceCheck(
            "quasi-regular route: " + c.position, c.kernel_size, c.image_size,
            c.status, c.detail, c.witness))
    return report


# ------------------------------------------------- centralizer layer (pointed)


def _connecting_classes(ext: AbelianExtension, cd: CentralizerData, h2q: H2Group,
                        count: int, members: Callable[[slice], tuple]
                        ) -> Iterator[Tuple[slice, np.ndarray]]:
    """Class coefficients of `count` connecting cocycles, one block at a time.

    members(rows) gives (taus, lifts) for the slice `rows` of range(count):
    crossed homs into the central quotient and the sections lifting them
    (None for the least element of each fiber).  Each block of at most
    groups._SEARCH_BLOCK_CELLS cells of values is built and certified by
    `connecting_values` and reduced before the next one is built; the
    generator yields (rows, classes[len(rows), r]).
    """
    q = ext.q_group
    h2q.check_data(q, cd.n_in_c.source, ext.action)
    for rows in _row_blocks(count, q.order ** 2):
        taus, lifts = members(rows)
        vals = connecting_values(q, taus, cd.c_sub.group, cd.pi, cd.n_in_c,
                                 cd.q_action_on_c, ext.action, lifts)
        yield rows, h2q.reduce_values(vals)


def _base_classes(ext: AbelianExtension, cd: CentralizerData, h2q: H2Group,
                  taus: np.ndarray) -> np.ndarray:
    """[b, r] class coefficients of the connecting cocycles of taus[b] at the
    least lift."""
    out = np.empty((len(taus), len(h2q.invariant_factors)), dtype=np.int64)
    for rows, classes in _connecting_classes(ext, cd, h2q, len(taus),
                                             lambda rows: (taus[rows], None)):
        out[rows] = classes
    return out


def _lift_witness(ext: AbelianExtension, cd: CentralizerData, h2q: H2Group,
                  c_set: List[np.ndarray], taus: np.ndarray,
                  base: np.ndarray) -> Optional[Tuple[list, list]]:
    """The first (endo, lift), endo then j then s, whose class differs from
    base, its class at the least lift, after lift[j] := lift[j] n_s, j in
    Qbar \\ {e} and n_s a core generator of N; or None.  A change of lift by
    nu: Qbar -> N moves the cocycle by the coboundary delta(nu o tau) (Brown,
    Cohomology of Groups, IV.3): the class is affine in nu, N being central
    in C, the kernel embedding equivariant and the action by automorphisms
    (`centralizer_extension` and `ActionTable` certify these).  So None
    proves the class independent of all lifts."""
    m = cd.qbar_group.order
    least = _descend(cd.pi.values, cd.pi.values)[0]
    gens = cd.n_in_c.values[list(ext.n_group.core_generators)]
    points = np.repeat(np.arange(1, m), len(gens))  # j of each change, s fastest
    moves = np.tile(least, (len(points), 1))
    moves[np.arange(len(points)), points] = cd.c_sub.group.table[
        least[points], np.tile(gens, m - 1)]
    owner = np.repeat(np.arange(len(c_set)), len(moves))
    move = np.tile(np.arange(len(moves)), len(c_set))
    for rows, classes in _connecting_classes(ext, cd, h2q, len(owner),
                                             lambda rows: (taus[owner[rows]], moves[move[rows]])):
        moved = (classes != base[owner[rows]]).any(axis=1)
        if moved.any():
            k = rows.start + int(np.argmax(moved))
            return c_set[owner[k]].tolist(), moves[move[k]].tolist()
    return None


def _first_pair(members: np.ndarray, bad: Callable[[slice], np.ndarray],
                names: Optional[list] = None) -> Optional[tuple]:
    """The names of the first (x, y), in (x, y) order, that bad(rows) ([x in
    rows, y]) marks, over `_row_blocks` of len(members) maps per row; member
    k is named names[k], or by its value list when names is None."""
    for rows in _row_blocks(len(members), members.size):
        hit = np.argwhere(bad(rows))
        if len(hit):
            pair = (rows.start + int(hit[0, 0]), int(hit[0, 1]))
            return tuple(members[k].tolist() if names is None else names[k] for k in pair)
    return None


def _closure_witness(index: TableIndex) -> Optional[Tuple[list, list]]:
    """First pair (x, y) of indexed endos whose composite x(y) is not indexed."""
    m = index.tables
    return _first_pair(m, lambda rows: index.find(m[rows][:, m]) < 0)


def _descent_witness(ext: AbelianExtension, m: np.ndarray,
                     induced: np.ndarray) -> Optional[Tuple[list, list]]:
    """First pair (x, y) of endos whose composite x(y) descends to something
    other than the composite of their descents; induced[k] descends m[k]."""
    lifted = m[:, ext.section]
    return _first_pair(m, lambda rows: (
        ext.p.values[m[rows][:, lifted]] != induced[rows][:, induced]).any(axis=2))


def _connecting_fiber(report: ExactnessReport, position: str, data: ExtensionData,
                      taus: np.ndarray, descent: np.ndarray, detail: str) -> np.ndarray:
    """Check the fiber over zero of the connecting map on taus (data.delta)
    against descent; return each tau's row in data.z1qbar, -1 (failing the
    check, the tau its witness) where absent."""
    pos = data.z1qbar_index.find(taus)
    if (pos < 0).any():
        report.add(position, False, detail=detail,
                   witness=taus[int(np.argmax(pos < 0))].tolist())
    else:
        fiber = set(np.flatnonzero(~data.delta[pos].any(axis=1)).tolist())
        _set_equal(report, position, fiber, set(descent.tolist()), detail=detail)
    return pos


def verify_centralizer_sequence(data: ExtensionData) -> ExactnessReport:
    """Verify the pointed endomorphism sequence through the kernel centralizer.
    Each map of `endo_rings` between a node and its crossed-hom layer runs
    once on a whole member set; the connecting classes come from data.delta
    at the least lift and from `_lift_witness` after each change of it."""
    ext, cd, h2q = data.ext, data.cd, data.h2q
    report = ExactnessReport("pointed endomorphism sequence of the centralizer layer",
                             _instance_name(ext))
    q = ext.q_group

    # Sets are indexed; set members below are their positions in b_set / c_set.
    b_set = data.b_all
    pv = ext.p.values
    a_set = set(np.flatnonzero((pv[b_set] == pv).all(axis=1)).tolist())
    c_set = data.c_all
    b_index = TableIndex(b_set, ext.g_group.core_generators, ext.g_group.order)
    c_index = TableIndex(c_set, q.core_generators, q.order)

    report.nodes = [
        ("kernel-and-quotient-fixing endos", len(a_set)),
        ("kernel-fixing endos", len(b_set)),
        ("action-preserving quotient endos", len(c_set)),
        ("H2(Q,N)", h2q.order),
    ]

    # Monoid structure: both sets are closed under composition and contain id.
    wit = _closure_witness(b_index)
    report.add("kernel-fixing endos form a monoid", wit is None, witness=wit)

    induced = induced_quotient_endos(ext, b_index.tables)
    descent = c_index.find(induced)
    report.add("descent lands in the action-preserving endos", bool((descent >= 0).all()))
    wit = _descent_witness(ext, b_index.tables, induced)
    report.add("descent is a monoid homomorphism", wit is None, witness=wit)

    # Displacement bijections against the crossed-homomorphism layers.
    phis = centralizer_displacements(cd, b_index.tables)
    round_b = (endos_from_centralizer_displacements(cd, phis) == b_index.tables).all()
    lifted = b_index.find(endos_from_centralizer_displacements(cd, data.z1c))
    report.add("kernel-fixing endos match centralizer crossed homs",
               round_b and set(lifted.tolist()) == set(range(len(b_set))),
               len(b_set), len(data.z1c))
    taus = quotient_endo_displacements(cd, c_index.tables)
    round_c = (quotient_endos_from_displacements(cd, taus) == c_index.tables).all()
    lifted_c = c_index.find(quotient_endos_from_displacements(cd, data.z1qbar))
    report.add("quotient endos match central-layer crossed homs",
               round_c and set(lifted_c.tolist()) == set(range(len(c_set))),
               len(c_set), len(data.z1qbar))

    # Pointed exactness.
    report.add("kernel-and-quotient-fixing endos", True, 1, None,
               detail="inclusion is injective")
    fiber_b = set(np.flatnonzero((induced == np.arange(q.order)).all(axis=1)).tolist())
    _set_equal(report, "kernel-fixing endos", fiber_b, a_set,
               detail="fiber of descent over id vs included endos")

    pos = _connecting_fiber(report, "action-preserving quotient endos", data, taus, descent,
                            detail="fiber of the connecting map over zero vs descended endos")

    # The class must not depend on which section of the central quotient lifts.
    found = pos >= 0
    wit = _lift_witness(ext, cd, h2q, c_set[found], taus[found], data.delta[pos[found]])
    sections = ext.n_group.order ** (cd.qbar_group.order - 1)
    report.add("connecting class is lift independent", wit is None,
               detail=f"{sections} sections per endo", witness=wit)
    return report


def verify_aut_centralizer_sequence(data: ExtensionData) -> ExactnessReport:
    """Verify the invertible-member version of the centralizer sequence,
    where every node is a group and every map but the connecting one is a
    group homomorphism.  Each map runs once on a member set, and the
    connecting classes are read from data.delta."""
    ext, cd, h2q = data.ext, data.cd, data.h2q
    report = ExactnessReport("automorphism sequence of the centralizer layer",
                             _instance_name(ext))
    g = ext.g_group
    q = ext.q_group
    pv = ext.p.values

    aut_b = data.b_all[_is_bijective(data.b_all)]
    aut_a = aut_b[(pv[aut_b] == pv).all(axis=1)]
    aut_c = data.c_all[_is_bijective(data.c_all)]
    a_index = TableIndex(aut_a, g.core_generators, g.order)
    b_index = TableIndex(aut_b, g.core_generators, g.order)
    c_index = TableIndex(aut_c, q.core_generators, q.order)

    report.nodes = [
        ("invertible kernel-and-quotient-fixing endos", len(aut_a)),
        ("invertible kernel-fixing endos", len(aut_b)),
        ("invertible action-preserving quotient endos", len(aut_c)),
        ("H2(Q,N)", h2q.order),
    ]

    for name, index in (
            ("invertible kernel-and-quotient-fixing endos", a_index),
            ("invertible kernel-fixing endos", b_index),
            ("invertible action-preserving quotient endos", c_index)):
        members = index.tables
        no_inverse = index.find(np.argsort(members, axis=1)) < 0
        wit = _closure_witness(index)
        if no_inverse.any():
            wit = members[int(np.argmax(no_inverse))].tolist()
        elif wit is None and index.find(np.arange(members.shape[1])) < 0:
            wit = "identity missing"
        report.add(name + " form a group", wit is None, witness=wit)

    # Set members below are positions in aut_b / aut_c.
    induced = induced_quotient_endos(ext, aut_b)
    descent = c_index.find(induced)
    report.add("descent maps invertibles to invertibles", bool((descent >= 0).all()))
    wit = _descent_witness(ext, b_index.tables, induced)
    report.add("descent is a group homomorphism", wit is None, witness=wit)

    report.add("invertible kernel-and-quotient-fixing endos", True, 1, None,
               detail="inclusion is injective")
    fiber_b = set(np.flatnonzero((induced == np.arange(q.order)).all(axis=1)).tolist())
    in_a = set(b_index.find(a_index.tables).tolist())
    _set_equal(report, "invertible kernel-fixing endos", fiber_b, in_a,
               detail="kernel of descent vs included automorphisms")

    _connecting_fiber(report, "invertible action-preserving quotient endos", data,
                      quotient_endo_displacements(cd, aut_c), descent,
                      detail="fiber of the connecting map over zero vs descended automorphisms")
    return report


# ------------------------------------------- crossed homomorphism layer (cex)


def verify_crossed_hom_sequence(data: ExtensionData) -> ExactnessReport:
    """Verify the pointed crossed-homomorphism sequence of the central layer
    kernel -> centralizer -> central quotient, ending in H2(Q,N).  The maps
    are one gather through cd.n_in_c and one through cd.pi, certified by
    `centralizer_extension` as equivariant homomorphisms: a crossed hom
    composed with one is a crossed hom, so nothing is re-certified."""
    ext, cd, h2q = data.ext, data.cd, data.h2q
    report = ExactnessReport("crossed-homomorphism sequence of the central layer",
                             _instance_name(ext))

    z1n = data.z1n
    report.nodes = [
        ("crossed homs into the kernel", len(z1n)),
        ("crossed homs into the centralizer", len(data.z1c)),
        ("crossed homs into the central quotient", len(data.z1qbar)),
        ("H2(Q,N)", h2q.order),
    ]

    # the sets hold value tuples, so that a failing row's witnesses are value lists
    emb = {tuple(row) for row in cd.n_in_c.values[z1n].tolist()}
    report.add("crossed homs into the kernel", len(emb) == len(z1n), 1, len(emb),
               detail="embedding is injective")

    proj = cd.pi.values[data.z1c]
    ker_proj = {tuple(phi) for phi, img in zip(data.z1c.tolist(), proj) if not img.any()}
    _set_equal(report, "crossed homs into the centralizer", ker_proj, emb,
               detail="kernel of projection vs embedded crossed homs")

    ker_delta = {tuple(tau) for tau, cls in zip(data.z1qbar.tolist(), data.delta)
                 if not cls.any()}
    im_proj = {tuple(img) for img in proj.tolist()}
    _set_equal(report, "crossed homs into the central quotient", ker_delta, im_proj,
               detail="fiber of the connecting map over zero vs projected crossed homs")
    return report


# --------------------------------------------------------------------- driver


def verify_all(ext: AbelianExtension, check_h2g: bool = True,
               store: Optional[SweepStore] = None) -> List[ExactnessReport]:
    """Run every sequence verifier on one extension, sharing one ExtensionData
    whose H^2(Q,N) and module ring come from `store` (a fresh one by default)."""
    data = ExtensionData(ext, SweepStore() if store is None else store)
    data.fe, data.h2q, data.cd  # in this order: a failed row reports the first error
    return [verify_five_term(data, check_h2g=check_h2g), verify_aut_five_term(data),
            verify_centralizer_sequence(data), verify_aut_centralizer_sequence(data),
            verify_crossed_hom_sequence(data)]
