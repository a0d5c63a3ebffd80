"""Command line interface over the library.

Verbs:
  group      construct or load a finite group and print its profile
  extension  build an extension and print its structure data
  z1         crossed homomorphisms of one layer of an extension
  h2         second cohomology classes of a finite pair with an action
  endo       endomorphism objects attached to an extension
  ring       finite ring profiles, including the worked example rings
  verify     run every sequence verifier over a catalog
  examples   fully checked worked instances

Every verb accepts --json for machine output; identical invocations produce
byte-identical output.  The env var COHOMORING_BUDGET scales all budgets.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional

from .catalog import catalog_from_json, default_catalog, dihedral_extension, sweep
from .cocycles import enumerate_z1
from .cohomology2 import compute_h2
from .errors import BudgetExceeded, GuardExceeded, ValidationError
from .examples import dihedral_report, ring432_construct, ring432_report
from .extension import AbelianExtension, extension_from_json, extension_to_json
from .groups import (
    FiniteGroup,
    enumerate_actions,
    group_from_json,
    group_to_json,
    make_cyclic,
    make_dihedral,
    make_direct_product,
)
from .rings import quasi_regular_indices, ring_from_json, ring_to_json, unit_group, zn_ring
from .verify import ExtensionData

__all__ = ["main"]

_LIST_CAP = 64
_RING_JSON_TABLE_CAP = 256


def _emit_json(obj) -> None:
    """Print `obj` as `json.dumps(verify._jsonable(obj), indent=2,
    sort_keys=True)` would, byte for byte, in one pass that copies no tree.

    Keys become `str(k)`, the later value winning a collision, and are
    sorted; tuples are lists, an ndarray is its `.tolist()` and a numpy
    integer an int; a float is written as json writes it (`NaN`,
    `Infinity`, `-Infinity`), and any other type raises TypeError."""
    import numpy as np  # loaded by the package already

    quote = json.encoder.encode_basestring_ascii

    def number(x):
        digits = float.__repr__(x)
        return {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}.get(digits, digits)

    leaf = {str: quote, int: int.__repr__, float: number, type(None): lambda x: "null",
            bool: lambda x: "true" if x else "false"}

    def text(o, nl: str) -> str:
        write = leaf.get(type(o))
        if write is not None:
            return write(o)
        inner = nl + "  "
        if isinstance(o, dict):
            parts = [quote(k) + ": " + text(v, inner)
                     for k, v in sorted({str(k): v for k, v in o.items()}.items())]
            return "{" + inner + ("," + inner).join(parts) + nl + "}" if parts else "{}"
        if isinstance(o, (list, tuple)):
            parts = [text(x, inner) for x in o]
            return "[" + inner + ("," + inner).join(parts) + nl + "]" if parts else "[]"
        if isinstance(o, np.ndarray):
            return text(o.tolist(), nl)
        if isinstance(o, np.integer):
            return int.__repr__(int(o))
        for kind in (str, int, float):  # subclasses, such as np.float64
            if isinstance(o, kind):
                return leaf[kind](o)
        raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")

    print(text(obj, "\n"))


def _load_json_file(path: str):
    # a missing, unreadable or directory path is bad input; an OSError
    # anywhere else (a closed stdout pipe, say) is not
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ValidationError(str(exc)) from exc


# ------------------------------------------------------------- object builders


def _add_extension_source(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--dihedral", type=int, metavar="N",
                     help="dihedral group of order 2N over its rotations")
    src.add_argument("--load", metavar="PATH",
                     help="extension JSON file (kernel/group/quotient plus both maps)")


def _resolve_extension(args) -> AbelianExtension:
    if args.dihedral is not None:
        return dihedral_extension(args.dihedral)
    return extension_from_json(_load_json_file(args.load))


def _product_group(spec: str) -> FiniteGroup:
    tokens = spec.split(",")
    # int() alone would also take "2_0", " 2", "+2" and non-ASCII digits
    if not all(re.fullmatch(r"-?[0-9]+", tok) for tok in tokens):
        raise ValidationError(f"product spec must be comma-separated integers, got {spec!r}")
    factors = [int(tok) for tok in tokens]
    if any(f < 1 for f in factors):
        raise ValidationError(f"product spec needs positive factors, got {spec!r}")
    g = make_cyclic(factors[0])
    name = f"C{factors[0]}"
    for f in factors[1:]:
        name = f"{name}xC{f}"
        g, _, _ = make_direct_product(g, make_cyclic(f), name=name)
    return g


# ---------------------------------------------------------------------- group


def cmd_group(args) -> int:
    if args.cyclic is not None:
        g = make_cyclic(args.cyclic)
    elif args.dihedral is not None:
        g = make_dihedral(args.dihedral)
    elif args.product is not None:
        g = _product_group(args.product)
    else:
        g = group_from_json(_load_json_file(args.load))
    hist = {}
    for a in range(g.order):
        o = int(g.element_order(a))
        hist[o] = hist.get(o, 0) + 1
    if args.json:
        _emit_json({
            "group": group_to_json(g),
            "abelian": g.is_abelian(),
            "exponent": g.exponent(),
            "element_order_histogram": {str(k): v for k, v in sorted(hist.items())},
        })
        return 0
    print(f"group: {g.name or '(unnamed)'}")
    print(f"order: {g.order}")
    print(f"abelian: {'yes' if g.is_abelian() else 'no'}")
    print(f"exponent: {g.exponent()}")
    print("generators: " + " ".join(str(x) for x in g.generators))
    print("element order histogram: "
          + " ".join(f"{o}:{c}" for o, c in sorted(hist.items())))
    return 0


# ------------------------------------------------------------------ extension


def cmd_extension(args) -> int:
    ext = _resolve_extension(args)
    desc = ext.describe()
    split: Optional[bool]
    split_note = ""
    try:
        split = ext.is_split()
    except BudgetExceeded as exc:
        split = None
        split_note = f"not determined ({exc})"
    klass = None
    factors = None
    h2_note = ""
    try:
        h2 = compute_h2(ext.q_group, ext.n_group, ext.action)
        factors = h2.invariant_factors
        klass = h2.reduce(ext.classifying_cocycle())
    except BudgetExceeded as exc:
        h2_note = f"not computed ({exc})"
    if args.json:
        _emit_json({
            "describe": desc,
            "split": split,
            "split_note": split_note,
            "h2_invariant_factors": factors,
            "classifying_class": klass,
            "h2_note": h2_note,
            "extension": extension_to_json(ext),
        })
        return 0
    print(f"extension: {desc['name']}")
    print(f"kernel order: {desc['kernel_order']}")
    print(f"group order: {desc['group_order']}")
    print(f"quotient order: {desc['quotient_order']}")
    print(f"action trivial: {'yes' if desc['action_trivial'] else 'no'}")
    print("split: " + (split_note if split is None else ("yes" if split else "no")))
    if factors is None:
        print(f"quotient-on-kernel class group: {h2_note}")
    else:
        print(f"quotient-on-kernel class group invariant factors: {tuple(factors)}")
        print(f"classifying class coefficients: {tuple(klass)}")
    return 0


# ------------------------------------------------------------------------- z1


def cmd_z1(args) -> int:
    ext = _resolve_extension(args)
    if args.layer == "quotient":
        source, module, action = ext.q_group, ext.n_group, ext.action
    else:
        source, module, action = ext.g_group, ext.n_group, ext.g_action
    zs = enumerate_z1(source, module, action)
    listed = [z.values.tolist() for z in zs[:_LIST_CAP]]
    if args.json:
        _emit_json({
            "layer": args.layer,
            "source_order": source.order,
            "module_order": module.order,
            "count": len(zs),
            "values": listed,
            "values_truncated": len(zs) > _LIST_CAP,
        })
        return 0
    print(f"crossed homomorphisms, {args.layer} layer of {ext.name}")
    print(f"source order: {source.order}")
    print(f"module order: {module.order}")
    print(f"count: {len(zs)}")
    for j, vals in enumerate(listed):
        print(f"  [{j}] " + " ".join(str(v) for v in vals))
    if len(zs) > _LIST_CAP:
        print(f"  ... {len(zs) - _LIST_CAP} more (use --json for machine output)")
    return 0


# ------------------------------------------------------------------------- h2


def cmd_h2(args) -> int:
    if args.dihedral is not None or args.load is not None:
        if args.quotient_cyclic is not None or args.kernel_cyclic is not None:
            raise ValidationError(
                "h2 takes either an extension source or --quotient-cyclic and --kernel-cyclic, not both")
        if args.action_index is not None:
            raise ValidationError(
                "h2 takes --action-index only with --quotient-cyclic and --kernel-cyclic")
        ext = _resolve_extension(args)
        qg, ng, action = ext.q_group, ext.n_group, ext.action
        action_count = None
        instance = ext.name
    else:
        if args.quotient_cyclic is None or args.kernel_cyclic is None:
            raise ValidationError(
                "h2 needs either an extension source or both --quotient-cyclic and --kernel-cyclic")
        qg = make_cyclic(args.quotient_cyclic)
        ng = make_cyclic(args.kernel_cyclic)
        actions = enumerate_actions(qg, ng)
        action_count = len(actions)
        index = args.action_index or 0
        if not 0 <= index < len(actions):
            raise ValidationError(
                f"action index {index} out of range, {len(actions)} actions exist")
        action = actions[index]
        instance = f"C{args.quotient_cyclic} acting on C{args.kernel_cyclic}, action {index}"
    h2 = compute_h2(qg, ng, action, method=args.method)
    small = h2.order <= _LIST_CAP
    reps = []
    if small:
        reps = [[list(coeffs), rep.values.tolist()] for coeffs, rep in h2.classes()]
    if args.json:
        _emit_json({
            "instance": instance,
            "quotient_order": qg.order,
            "kernel_order": ng.order,
            "action_count": action_count,
            "invariant_factors": h2.invariant_factors,
            "order": h2.order,
            "method": h2.method,
            "classes": reps,
            "classes_truncated": not small,
        })
        return 0
    print(f"second cohomology of {instance}")
    print(f"invariant factors: {tuple(h2.invariant_factors)}")
    print(f"order: {h2.order}")
    print(f"method: {h2.method}")
    if small and h2.order > 1:
        print("classes (coefficients, representative table):")
        for coeffs, table in reps:
            flat = "; ".join(" ".join(str(v) for v in row) for row in table)
            print(f"  {tuple(coeffs)}: {flat}")
    return 0


# ----------------------------------------------------------------------- endo


def cmd_endo(args) -> int:
    ext = _resolve_extension(args)
    shared = ExtensionData(ext)
    fe = shared.fe
    res_image = len(set(int(v) for v in fe.res.values))
    data = {
        "instance": ext.name,
        "quotient_identity_endos": fe.ring.order,
        "square_zero_ideal_size": int(len(fe.ideal_indices)),
        "invertible_members": int(len(fe.aut_indices)),
        "equivariant_kernel_endo_ring_order": fe.module_ring.ring.order,
        "restriction_image_size": res_image,
        "kernel_fixing_endos": len(shared.b_all),
        "action_preserving_quotient_endos": len(shared.c_all),
    }
    if args.json:
        _emit_json(data)
        return 0
    print(f"instance: {ext.name}")
    print(f"quotient-identity endomorphisms (ring): {data['quotient_identity_endos']}")
    print(f"  square-zero ideal size: {data['square_zero_ideal_size']}")
    print(f"  invertible members: {data['invertible_members']}")
    print(f"equivariant kernel endomorphisms (ring): {data['equivariant_kernel_endo_ring_order']}")
    print(f"restriction image size: {data['restriction_image_size']}")
    print(f"kernel-fixing endomorphisms (monoid): {data['kernel_fixing_endos']}")
    print(f"action-preserving quotient endomorphisms (monoid): {data['action_preserving_quotient_endos']}")
    return 0


# ----------------------------------------------------------------------- ring


def cmd_ring(args) -> int:
    if args.zn is not None:
        ring = zn_ring(args.zn)
    elif args.ring432:
        ring = ring432_construct()[0].ring
    else:
        ring = ring_from_json(_load_json_file(args.load))
    qr = quasi_regular_indices(ring)
    commutative = bool((ring.mul_table == ring.mul_table.T).all())
    units = None
    if ring.one is not None:
        units = unit_group(ring)[0].order
    data = {
        "name": ring.name,
        "order": ring.order,
        "unital": ring.one is not None,
        "one_index": ring.one,
        "commutative": commutative,
        "quasi_regular_count": len(qr),
        "unit_count": units,
    }
    if ring.order <= _LIST_CAP:
        data["quasi_regular_indices"] = [int(x) for x in qr]
    if args.json:
        if ring.order <= _RING_JSON_TABLE_CAP:
            data["ring"] = ring_to_json(ring)
        else:
            data["ring_tables_omitted"] = True
        _emit_json(data)
        return 0
    print(f"ring: {ring.name or '(unnamed)'}")
    print(f"order: {ring.order}")
    print("unital: " + ("yes, identity index " + str(ring.one) if ring.one is not None else "no"))
    print(f"commutative: {'yes' if commutative else 'no'}")
    print(f"quasi-regular members: {len(qr)}")
    if units is not None:
        print(f"units: {units}")
    if ring.order <= _LIST_CAP:
        print("quasi-regular indices: " + " ".join(str(int(x)) for x in qr))
    return 0


# --------------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    if args.catalog:
        entries = catalog_from_json(_load_json_file(args.catalog))
    else:
        entries = default_catalog()
    if args.json:  # `_emit_json` converts as it prints
        summary = sweep(entries, check_h2g=not args.skip_h2g, plain=lambda value: value)
        _emit_json(summary)
        return 0 if summary["failed"] == 0 else 1
    summary = sweep(entries, check_h2g=not args.skip_h2g)
    print(f"verifying {summary['total']} catalog entries")
    for row in summary["entries"]:
        mark = " ok " if row["ok"] else "FAIL"
        print(f"[{mark}] {row['name']}")
        if row["ok"]:
            continue
        if "error" in row:
            print(f"       error: {row['error']}")
            if "witness" in row:
                print(f"       witness: {row['witness']}")
            continue
        for rep in row["reports"]:
            for check in rep["checks"]:
                if check["status"] == "fail":
                    wit = check["witness"]
                    tail = f" witness={wit!r}" if wit is not None else ""
                    print(f"       {rep['sequence']} / {check['position']}:"
                          f" {check['detail']}{tail}")
    print(f"total: {summary['total']}  failed: {summary['failed']}")
    return 0 if summary["failed"] == 0 else 1


# ------------------------------------------------------------------- examples


def cmd_examples(args) -> int:
    if args.which == "dihedral":
        report = dihedral_report(args.n)
    else:
        report = ring432_report()
    if args.json:
        _emit_json(report._json_tree())
    else:
        for line in report.lines():
            print(line)
    return 0 if report.ok else 1


# --------------------------------------------------------------------- parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohomoring",
        description="computational algebra for finite abelian group extensions")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("group", help="construct or load a finite group")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--cyclic", type=int, metavar="N")
    src.add_argument("--dihedral", type=int, metavar="N")
    src.add_argument("--product", metavar="A,B,...", help="product of cyclic factors")
    src.add_argument("--load", metavar="PATH", help="group JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("extension", help="build an extension and print its structure")
    _add_extension_source(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_extension)

    p = sub.add_parser("z1", help="crossed homomorphisms of one layer")
    _add_extension_source(p)
    p.add_argument("--layer", choices=("quotient", "group"), default="quotient",
                   help="quotient: maps out of the quotient; group: maps out of the whole group")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_z1)

    p = sub.add_parser("h2", help="second cohomology classes")
    src = p.add_mutually_exclusive_group(required=False)
    src.add_argument("--dihedral", type=int, metavar="N")
    src.add_argument("--load", metavar="PATH")
    p.add_argument("--quotient-cyclic", type=int, metavar="Q")
    p.add_argument("--kernel-cyclic", type=int, metavar="N")
    p.add_argument("--action-index", type=int, metavar="I")
    p.add_argument("--method", choices=("auto", "linear", "bruteforce"), default="auto")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_h2)

    p = sub.add_parser("endo", help="endomorphism objects of an extension")
    _add_extension_source(p)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_endo)

    p = sub.add_parser("ring", help="finite ring profile")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--zn", type=int, metavar="N", help="residues mod N")
    src.add_argument("--ring432", action="store_true",
                     help="the 432-element even-pair ring")
    src.add_argument("--load", metavar="PATH", help="ring JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_ring)

    p = sub.add_parser("verify", help="run all sequence verifiers over a catalog")
    p.add_argument("--catalog", metavar="PATH", help="catalog JSON file (default: built-in catalog)")
    p.add_argument("--skip-h2g", action="store_true",
                   help="never compute the final inflation node")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("examples", help="fully checked worked instances")
    which = p.add_subparsers(dest="which", required=True)
    pd = which.add_parser("dihedral", help="the dihedral family instance")
    pd.add_argument("n", type=int)
    pd.add_argument("--json", action="store_true")
    pd.set_defaults(func=cmd_examples)
    pr = which.add_parser("ring432", help="the 432-element even-pair ring")
    pr.add_argument("--json", action="store_true")
    pr.set_defaults(func=cmd_examples)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"error: malformed JSON input ({exc})", file=sys.stderr)
        return 2
    except (ValueError, BudgetExceeded, GuardExceeded, MemoryError) as exc:
        # ValidationError is a ValueError; numpy's MemoryError names the table
        # it could not allocate, and a bare one is named by its type
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
