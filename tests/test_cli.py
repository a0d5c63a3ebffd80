"""Command line interface: verbs, exit codes, JSON output, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import cohomoring
from cohomoring import cli, examples, groups, linalg, rings, verify
from cohomoring.catalog import catalog_from_json, default_catalog, dihedral_extension, sweep
from cohomoring.cli import _emit_json, main
from cohomoring.extension import build_extension, extension_to_json
from cohomoring.groups import group_to_json, make_cyclic
from cohomoring.rings import ring_to_json, zn_ring
from json_oracles import stdlib_json


def _run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_cyclic(capsys):
    code, out, err = _run(capsys, "group", "--cyclic", "6")
    assert code == 0 and not err
    assert "order: 6" in out
    assert "abelian: yes" in out


def test_group_dihedral_profile(capsys):
    code, out, _ = _run(capsys, "group", "--dihedral", "6")
    assert code == 0
    assert "order: 12" in out
    assert "abelian: no" in out
    assert "element order histogram: 1:1 2:7 3:2 6:2" in out


def test_group_product(capsys):
    code, out, _ = _run(capsys, "group", "--product", "3,4")
    assert code == 0
    assert "order: 12" in out
    assert "exponent: 12" in out


def test_group_exponent_is_the_lcm_of_element_orders(capsys):
    # D3 has elements of orders 2 and 3 and none of order 6
    code, out, _ = _run(capsys, "group", "--dihedral", "3")
    assert code == 0 and "exponent: 6\n" in out
    code, out, _ = _run(capsys, "group", "--dihedral", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert (data["exponent"], data["element_order_histogram"]) == (6, {"1": 1, "2": 3, "3": 2})


def test_group_load_and_json(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group_to_json(make_cyclic(5))))
    code, out, _ = _run(capsys, "group", "--load", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["group"]["order"] == 5
    assert data["abelian"] is True


def test_group_load_refuses_an_entry_that_would_wrap_into_range(tmp_path, capsys):
    # at this order the table is stored in int16, where 65537 reads as 1
    n = groups._NARROW_FROM_ORDER
    data = group_to_json(make_cyclic(n))
    data["table"][2][n - 1] = 65537
    path = tmp_path / "group.json"
    path.write_text(json.dumps(data))
    code, out, err = _run(capsys, "group", "--load", str(path))
    assert code == 2 and not out
    assert err == "error: group table entries must be element indices\n"


def test_group_bad_product_spec(capsys):
    # int() alone reads "2_0" as 20 and the empty tokens were dropped
    for spec in ["3,x", "2_0", "2,,3", ",2", "3,", " 3", "+3", "\u0663"]:
        code, _, err = _run(capsys, "group", "--product", spec)
        assert code == 2, spec
        assert err == f"error: product spec must be comma-separated integers, got {spec!r}\n"


def test_extension_dihedral(capsys):
    code, out, _ = _run(capsys, "extension", "--dihedral", "4")
    assert code == 0
    assert "split: yes" in out
    assert "classifying class coefficients: (0,)" in out


def test_extension_load_nonsplit(tmp_path, capsys):
    from cohomoring.cohomology2 import compute_h2
    from cohomoring.extension import extension_from_cocycle
    from cohomoring.groups import trivial_action

    c2 = make_cyclic(2)
    c4 = make_cyclic(4)
    h2 = compute_h2(c2, c4, trivial_action(c2, c4))
    ext = extension_from_cocycle(dict(h2.classes())[(1,)], name="C8 style")
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(extension_to_json(ext)))
    code, out, _ = _run(capsys, "extension", "--load", str(path))
    assert code == 0
    assert "split: no" in out
    assert "classifying class coefficients: (1,)" in out


def test_extension_load_redundant_quotient_generators(tmp_path, capsys):
    # the split search runs over the core generators of the quotient: a C8
    # listing all 8 elements as generators asks for 8 candidates, not 8^8
    from cohomoring.cohomology2 import compute_h2
    from cohomoring.extension import extension_from_cocycle
    from cohomoring.groups import trivial_action

    c8 = make_cyclic(8)
    h2 = compute_h2(c8, c8, trivial_action(c8, c8))
    data = extension_to_json(extension_from_cocycle(dict(h2.classes())[(0,)]))
    data["quotient"]["generators"] = list(range(8))
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(data))
    code, out, _ = _run(capsys, "extension", "--load", str(path))
    assert code == 0
    assert "split: yes\n" in out
    assert "classifying class coefficients: (0,)" in out


def test_z1_quotient_layer(capsys):
    code, out, _ = _run(capsys, "z1", "--dihedral", "4")
    assert code == 0
    assert "count: 4" in out


def test_z1_group_layer_json(capsys):
    code, out, _ = _run(capsys, "z1", "--dihedral", "4", "--layer", "group", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["count"] == 16
    assert data["layer"] == "group"
    assert len(data["values"]) == 16
    assert data["values_truncated"] is False


def test_z1_lists_values_in_ascending_order(capsys):
    # above 256 module elements, raw int64 bytes would put [0, 256] before [0, 1]
    code, out, _ = _run(capsys, "z1", "--dihedral", "257", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["values_truncated"] is True and data["values"][:3] == [[0, 0], [0, 1], [0, 2]]
    assert data["values"] == sorted(data["values"])


def test_h2_pair_mode(capsys):
    code, out, _ = _run(capsys, "h2", "--quotient-cyclic", "2",
                        "--kernel-cyclic", "4", "--action-index", "0")
    assert code == 0
    assert "invariant factors: (2,)" in out
    assert "order: 2" in out


def test_h2_action_index_out_of_range(capsys):
    code, _, err = _run(capsys, "h2", "--quotient-cyclic", "2",
                        "--kernel-cyclic", "4", "--action-index", "9")
    assert code == 2
    assert "out of range" in err


def test_h2_requires_a_source(capsys):
    code, _, err = _run(capsys, "h2", "--quotient-cyclic", "2")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("cyclic", [("--quotient-cyclic", "2"), ("--kernel-cyclic", "4")])
def test_h2_refuses_an_extension_source_with_a_cyclic_option(capsys, cyclic):
    code, out, err = _run(capsys, "h2", "--dihedral", "3", *cyclic)
    assert (code, out) == (2, "")
    assert err == ("error: h2 takes either an extension source or --quotient-cyclic "
                   "and --kernel-cyclic, not both\n")


@pytest.mark.parametrize("source", ["dihedral", "load"])
@pytest.mark.parametrize("index", ["0", "7"])
def test_h2_refuses_an_action_index_with_an_extension_source(tmp_path, capsys, source, index):
    """--action-index picks one of the actions of the cyclic pair; an
    extension carries its own action, so the index is refused, even 0."""
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(extension_to_json(dihedral_extension(3))))
    argv = ["--dihedral", "3"] if source == "dihedral" else ["--load", str(path)]
    code, out, err = _run(capsys, "h2", *argv, "--action-index", index)
    assert (code, out) == (2, "")
    assert err == ("error: h2 takes --action-index only with --quotient-cyclic "
                   "and --kernel-cyclic\n")


def test_h2_cyclic_pair_reads_no_action_index_as_zero(capsys):
    code, out, err = _run(capsys, "h2", "--quotient-cyclic", "2", "--kernel-cyclic", "4")
    assert (code, err) == (0, "")
    assert out == _run(capsys, "h2", "--quotient-cyclic", "2", "--kernel-cyclic", "4",
                       "--action-index", "0")[1]
    assert out.startswith("second cohomology of C2 acting on C4, action 0\n")


def test_h2_methods_agree_via_cli(capsys):
    code_a, out_a, _ = _run(capsys, "h2", "--dihedral", "6", "--method", "linear", "--json")
    code_b, out_b, _ = _run(capsys, "h2", "--dihedral", "6", "--method", "bruteforce", "--json")
    assert code_a == code_b == 0
    a, b = json.loads(out_a), json.loads(out_b)
    assert a["invariant_factors"] == b["invariant_factors"]
    assert a["method"] == "linear" and b["method"] == "bruteforce"


def test_endo_profile(capsys):
    code, out, _ = _run(capsys, "endo", "--dihedral", "6")
    assert code == 0
    assert "quotient-identity endomorphisms (ring): 36" in out
    assert "square-zero ideal size: 6" in out
    assert "invertible members: 12" in out


def test_endo_load_split_v4_by_a4(tmp_path, capsys):
    # the kernel-fixing endomorphisms are searched with the kernel pinned:
    # the End(G) filter would need 2162688 candidates, above the budget
    from test_endo_rings import split_v4_by_a4

    path = tmp_path / "ext.json"
    path.write_text(json.dumps(extension_to_json(split_v4_by_a4()[0])))
    code, out, err = _run(capsys, "endo", "--load", str(path), "--json")
    assert code == 0 and not err
    assert json.loads(out)["kernel_fixing_endos"] == 256


def test_endo_refuses_a_large_ring_before_filling_its_tables(tmp_path, capsys, monkeypatch):
    """Z1(G, N) = End(C2^3) has 512 members, above the scaled ring budget
    409: the coset walk refuses it before it looks up a single key."""
    g = make_cyclic(2)
    for _ in range(2):
        g, _, _ = groups.make_direct_product(g, make_cyclic(2))
    ext = build_extension(groups.identity_hom(g), groups.GroupHom(g, make_cyclic(1), [0] * 8))
    path = tmp_path / "ext.json"
    path.write_text(json.dumps(extension_to_json(ext)))
    looked = []
    find_keys = groups.TableIndex.find_keys
    monkeypatch.setattr(groups.TableIndex, "find_keys",
                        lambda self, keys: looked.append(1) or find_keys(self, keys))
    monkeypatch.setenv("COHOMORING_BUDGET", "0.1")
    code, out, err = _run(capsys, "endo", "--load", str(path))
    assert (code, out, err) == (2, "", "error: ring order 512 exceeds check budget 409\n")
    assert looked == []


def test_ring_zn(capsys):
    code, out, _ = _run(capsys, "ring", "--zn", "12")
    assert code == 0
    assert "quasi-regular members: 4" in out
    assert "units: 4" in out
    assert "quasi-regular indices: 0 4 6 10" in out
    for n in ("0", "-3"):
        code, out, err = _run(capsys, "ring", "--zn", n)
        assert code == 2
        assert err == f"error: ring of integers mod n needs n >= 1, got {n}\n"


def test_ring_zn_refuses_before_its_tables(capsys):
    """`ring --zn n` above `ring_check_max_order` is one line of refusal,
    read before the n^2 tables (80 GB each for n = 100000) are built."""
    for n in ("5000", "100000"):
        code, out, err = _run(capsys, "ring", "--zn", n)
        assert (code, out, err) == (2, "", f"error: ring order {n} exceeds check budget 4096\n")


def test_out_of_memory_is_one_line_of_error(capsys, monkeypatch):
    """A table too large to allocate ends in exit 2 and one line naming it,
    never a traceback; a bare MemoryError is named by its type."""
    text = ("Unable to allocate 37.3 GiB for an array with shape (100000, 100000) "
            "and data type int32")
    for raised, line in ((MemoryError(text), f"error: {text}\n"),
                         (MemoryError(), "error: MemoryError\n")):
        def refuse(*args, **kwargs):
            raise raised
        monkeypatch.setattr(cli, "make_cyclic", refuse)
        assert _run(capsys, "group", "--cyclic", "100000") == (2, "", line)


def test_ring_432(capsys):
    code, out, _ = _run(capsys, "ring", "--ring432")
    assert code == 0
    assert "order: 432" in out
    assert "unital: no" in out
    assert "quasi-regular members: 288" in out


def test_ring_load_json_tables(tmp_path, capsys):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps(ring_to_json(zn_ring(6))))
    code, out, _ = _run(capsys, "ring", "--load", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 6
    assert data["unital"] is True
    assert "ring" in data


_NAMED_PAYLOADS = {"group": lambda: group_to_json(make_cyclic(4)),
                   "ring": lambda: ring_to_json(zn_ring(4)),
                   "extension": lambda: extension_to_json(dihedral_extension(3))}


@pytest.mark.parametrize("verb", sorted(_NAMED_PAYLOADS))
@pytest.mark.parametrize("name", [None, ["x"], {"a": 1}, 7, True, 1.5])
def test_load_takes_a_string_name_or_none(tmp_path, capsys, verb, name):
    """A null "name" loads as an absent one does, under the default name; any
    other name that is no string is one error line and exit 2, never
    written back through str() or verbatim."""
    payload = _NAMED_PAYLOADS[verb]()
    payload.pop("name", None)
    path = tmp_path / "absent.json"
    path.write_text(json.dumps(payload))
    absent = _run(capsys, verb, "--load", str(path), "--json")
    assert absent[0] == 0
    path = tmp_path / "named.json"
    path.write_text(json.dumps(dict(payload, name=name)))
    code, out, err = _run(capsys, verb, "--load", str(path), "--json")
    if name is None:
        assert (code, out, err) == absent
    else:
        assert (code, out) == (2, "")
        assert err == f"error: 'name' must be a string or null, got {name!r}\n"


def test_ring_432_json_omits_tables(capsys):
    code, out, _ = _run(capsys, "ring", "--ring432", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ring_tables_omitted"] is True
    assert "ring" not in data


def test_verify_default_catalog(capsys):
    code, out, _ = _run(capsys, "verify")
    assert code == 0
    assert "failed: 0" in out
    assert "[FAIL]" not in out


def test_verify_json_skips_no_check(capsys):
    code, out, _ = _run(capsys, "verify", "--json")
    assert code == 0
    statuses = [check["status"] for entry in json.loads(out)["entries"]
                for rep in entry["reports"] for check in rep["checks"]]
    assert len(statuses) > 1000
    assert "skipped" not in statuses
    assert set(statuses) == {"pass"}


def test_int64_guard_is_a_failed_row_and_exit_two(capsys, monkeypatch):
    # the guard runs in the column clears of compute_h2, which this entry
    # reaches through H^2(Q,N); h2_order's local elimination needs none
    entry = next(e for e in default_catalog() if e.name == "C3 by C3, action 0, class (1,)")
    monkeypatch.setattr(linalg, "_GUARD", 0)
    summary = sweep([entry])
    assert summary["failed"] == 1
    message = "transform coefficients exceeded the int64 safety guard"
    assert summary["entries"][0]["error"] == message
    code, out, err = _run(capsys, "h2", "--quotient-cyclic", "4", "--kernel-cyclic", "4")
    assert code == 2 and not out
    assert err == f"error: {message}\n"


def test_verify_skip_h2g_json(capsys):
    code, out, _ = _run(capsys, "verify", "--skip-h2g", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["failed"] == 0
    first = data["entries"][0]["reports"][0]
    assert first["nodes"][-1][1] is None


def test_verify_corrupted_catalog_exits_one(tmp_path, capsys):
    data = extension_to_json(dihedral_extension(3))
    data["group"]["table"][1][2] = 0
    doc = {"entries": [{"name": "broken D3", "kind": "extension", "extension": data}]}
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "verify", "--catalog", str(path))
    assert code == 1
    assert "[FAIL] broken D3" in out
    assert "error:" in out

    # entries missing a required part are failed rows too, never a traceback
    quad = {"kernel_group": group_to_json(make_cyclic(2)), "action": [[0, 1]],
            "cocycle": [[0]]}
    del data["group"]
    doc = {"entries": [{"name": "no quotient group", "quadruple": quad},
                       {"name": "no middle group", "extension": data}]}
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "verify", "--catalog", str(path))
    assert code == 1
    assert "[FAIL] no quotient group\n       error: quadruple lacks quotient_group" in out
    assert "[FAIL] no middle group\n       error: extension JSON lacks group" in out

    # an ideal index outside the ring, and non-numeric or ragged tables, fail
    # their own row while the other entries still run
    bad_ideal = {"add_table": [[0, 1], [1, 0]], "mul_table": [[0, 0], [0, 1]]}
    text_kernel = extension_to_json(dihedral_extension(3))
    text_kernel["kernel"]["table"] = "x"
    ragged_kernel = extension_to_json(dihedral_extension(3))
    ragged_kernel["kernel"]["table"] = [[0, 1], [1]]
    doc = {"entries": [{"name": "ideal out of range", "kind": "ring", "ring": bad_ideal,
                        "ideal": [0, 5]},
                       {"name": "text table", "kind": "extension", "extension": text_kernel},
                       {"name": "ragged table", "kind": "extension",
                        "extension": ragged_kernel},
                       {"name": "Z4", "kind": "ring", "ring": ring_to_json(zn_ring(4)),
                        "ideal": [0, 2]}]}
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "verify", "--catalog", str(path))
    assert code == 1
    assert "[FAIL] ideal out of range\n       error: ideal index 5 outside the ring of order 2" in out
    assert "[FAIL] text table\n       error: group table must be a rectangular array" in out
    assert "[FAIL] ragged table\n       error: group table must be a rectangular array" in out
    assert "[ ok ] Z4" in out

    # non-numeric values outside the group tables, a mis-shaped action and an
    # identity outside the ring fail their own row too
    c2 = group_to_json(make_cyclic(2))
    quad = {"quotient_group": c2, "kernel_group": c2, "action": [[0, 1], [0, 1]],
            "cocycle": [[0, 0], [0, 0]]}
    z4 = ring_to_json(zn_ring(4))
    text_map = extension_to_json(dihedral_extension(3))
    text_map["kernel_map"] = "x"
    rows = (("text cocycle", {"quadruple": dict(quad, cocycle="x")},
             "quadruple cocycle must be a rectangular array of integers"),
            ("text action", {"quadruple": dict(quad, action="x")},
             "quadruple action must be a rectangular array of integers"),
            ("short action", {"quadruple": dict(quad, action=[[0, 1, 1]])},
             "quadruple action is not an action"),
            ("text ideal", {"kind": "ring", "ring": z4, "ideal": ["x"]},
             "ideal must be a rectangular array of integers"),
            ("text one", {"kind": "ring", "ring": dict(z4, one="x")},
             "ring identity index must be an integer, got 'x'"),
            ("one outside", {"kind": "ring", "ring": dict(z4, one=9)},
             "declared identity 9 outside the ring of order 4"),
            ("text order", {"kind": "ring", "ring": dict(z4, order="x")},
             "declared order must be an integer, got 'x'"),
            ("text kernel map", {"extension": text_map},
             "kernel map must be a rectangular array of integers"),
            ("number generators", {"quadruple": dict(quad, kernel_group=dict(c2, generators=7))},
             "group generators must be a list of integers, got 7"),
            ("text generators",
             {"quadruple": dict(quad, kernel_group=dict(c2, generators=["x"]))},
             "group generators must be a rectangular array of integers"),
            ("number labels", {"quadruple": dict(quad, quotient_group=dict(c2, labels=5))},
             "group labels must be a list, got 5"),
            # numbers that are not integers are refused, never truncated
            ("float cocycle", {"quadruple": dict(quad, cocycle=[[0, 0], [0, 1.5]])},
             "quadruple cocycle must be a rectangular array of integers"),
            ("boolean in integers", {"quadruple": dict(quad, cocycle=[[0, 0], [0, True]])},
             "quadruple cocycle must be a rectangular array of integers"),
            ("boolean table",
             {"quadruple": dict(quad, kernel_group=dict(c2, table=[[False, True],
                                                                   [True, False]]))},
             "group table must be a rectangular array of integers"),
            ("fractional one", {"kind": "ring", "ring": dict(z4, one=1.5)},
             "ring identity index must be an integer, got 1.5"),
            # an ideal is a flat list: a number or nested lists are not read as one
            ("number ideal", {"kind": "ring", "ring": z4, "ideal": 3},
             "ideal must be a list of integers, got 3"),
            ("nested ideal", {"kind": "ring", "ring": z4, "ideal": [[0], [2]]},
             "ideal must be a list of integers, got [[0], [2]]"))
    doc = {"entries": [dict(entry, name=name) for name, entry, _ in rows]
           + [{"name": "C2 by C2", "quadruple": quad}]}
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "verify", "--catalog", str(path))
    assert code == 1
    for name, _, error in rows:
        assert f"[FAIL] {name}\n       error: {error}\n" in out
    assert "[ ok ] C2 by C2" in out


def test_verify_catalog_with_redundant_generators(tmp_path, capsys):
    # searches and keys run over the core generators: listing every element
    # of D8 as a generator asks for no more candidates than its two do
    data = extension_to_json(dihedral_extension(8))
    data["group"]["generators"] = list(range(16))
    doc = {"entries": [{"name": "D8, every element a generator", "kind": "extension",
                        "extension": data}]}
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc))
    code, out, _ = _run(capsys, "verify", "--catalog", str(path))
    assert code == 0, out
    assert "[ ok ] D8, every element a generator" in out


def test_verify_malformed_catalog_file(tmp_path, capsys):
    path = tmp_path / "catalog.json"
    path.write_text("{ not json")
    code, _, err = _run(capsys, "verify", "--catalog", str(path))
    assert code == 2
    assert "malformed JSON" in err

    path.write_text("[]")
    code, _, err = _run(capsys, "verify", "--catalog", str(path))
    assert code == 2
    assert err == "error: catalog JSON must be an object with an 'entries' list\n"


def test_examples_dihedral(capsys):
    code, out, _ = _run(capsys, "examples", "dihedral", "3")
    assert code == 0
    assert out.strip().endswith("result: PASS")
    assert "sum table, f(k,l) indexed:" in out


def test_examples_dihedral_rejects_out_of_range(capsys):
    code, _, err = _run(capsys, "examples", "dihedral", "2")
    assert code == 2
    assert "needs 3 <= n <= 64" in err


def test_examples_ring432_json(capsys):
    code, out, _ = _run(capsys, "examples", "ring432", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] is True
    assert data["name"] == "432-element even-pair ring"


def test_missing_file_exits_two(capsys):
    code, _, err = _run(capsys, "group", "--load", "/nonexistent/file.json")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("argv", [("group", "--load"), ("verify", "--catalog")])
def test_a_directory_for_a_file_exits_two(tmp_path, capsys, argv):
    code, out, err = _run(capsys, *argv, str(tmp_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Is a directory" in err


def test_output_is_deterministic(capsys, monkeypatch):
    # sha256 of each output as first recorded; a refactor must not move a byte
    for argv, digest in (
        # re-pinned when "exponent" became the lcm of the element orders (10, not 5)
        (["group", "--dihedral", "5", "--json"],
         "b469db07cebf8887d10da74f95e5378d7d1d9fa5457273429058539779ad939d"),
        (["extension", "--dihedral", "5", "--json"],
         "91b787fda32d8735685870ce57c9df3f5096e14fc77600338b856ed9c58924ad"),
        (["z1", "--dihedral", "5", "--json"],
         "3a2dee6b8f7fe04c5f41cd80693a73c6faf55202fa5606fe8b2ae4421ebf0a3b"),
        (["h2", "--dihedral", "5", "--json"],
         "b5c9d80b2b6cd98a89f5e953736c988c257abf7fc756ff06935f4f552e6e4181"),
        (["endo", "--dihedral", "5", "--json"],
         "221a932e5a81fdd7cbcb1865da4cc25d1c7e485c17c680189959c828a31a3d14"),
        (["ring", "--zn", "9", "--json"],
         "0a97dba0c928818091f9a652660d408d176d775c3bf4f5d8173ebd7a89e3a65f"),
        (["examples", "dihedral", "5"],
         "98db77d129282a1a1853449849f08ea1e2ca0198104a491245be10a4f6877b43"),
        (["examples", "ring432"],
         "5e799a52cd6fe05899261f6459816ed85f46a6e0d0cc77be8111f1b0da0b462a"),
        (["examples", "ring432", "--json"],
         "6f345836a9aa07a9f83adcf5e40818ab58b57db71ca078b40d08d8d6d33ee0a4"),
        # the default-budget sweep: every connecting class and pushforward of
        # the catalog, as text and as JSON
        (["verify", "--json"],
         "2f5d5436264a249e62622b41e9b1cc91cc90cbd79dc3182f4596de588fa6a05a"),
        (["verify"],
         "d30fea6ecc34b4aa4cbb5ff0a36d572ad711c313f77d1a7b5df4d8275b459d99"),
        # the pair-formula rows, the fiber ring's invertibles and the kernel
        # of inflation of a 576-member fiber ring
        (["examples", "dihedral", "24", "--json"],
         "a6c571407e144c4359f8bd735ab79e32b0d70a33be65c5fa884b303366a7a99a"),
    ):
        _, first, _ = _run(capsys, *argv)
        _, second, _ = _run(capsys, *argv)
        assert first == second, argv
        assert hashlib.sha256(first.encode()).hexdigest() == digest, argv

    # a tiny budget reaches the ring-order, H^2(G,N) node and "no cohomology
    # method fits" gates
    monkeypatch.setenv("COHOMORING_BUDGET", "0.001")
    code, out, _ = _run(capsys, "verify", "--json")
    assert code == 1
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "1198ebd528bc39fe153e8c8f010267bbe49daeceb1f9b561fdfd7d9e8d13f37c")
    code, out, err = _run(capsys, "examples", "dihedral", "12", "--json")
    assert (code, err) == (2, "error: ring order 144 exceeds check budget 4\n")
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855")


def test_verify_json_writes_exotic_names_as_json_does(tmp_path, capsys):
    """Catalog entry names that json loads but that are no plain strings
    come back in each failed row as the stdlib's indent encoder wrote them:
    NaN and the overflowed 1e400 as `NaN` / `Infinity`, never `nan` /
    `inf`; nested objects with sorted keys; every non-ASCII, control and
    lone-surrogate character escaped."""
    names = ['NaN', '1e400', '-1e400', '0.1', '1' + '0' * 30, 'true', 'null',
             '{"z": [1, {}], "a": [], "m": {"y": -0.0, "b": 2.5e-300, "B": [[]]}}',
             r'"café ☃ 😀 \u0001\t\n\"\\ \ud800 \udfff x"']
    text = '{"entries": [' + ", ".join('{"name": %s}' % n for n in names) + "]}"
    path = tmp_path / "catalog.json"
    path.write_text(text, encoding="utf-8")
    code, out, err = _run(capsys, "verify", "--catalog", str(path), "--json")
    assert (code, err) == (1, "")
    assert out == stdlib_json(sweep(catalog_from_json(json.loads(text)))) + "\n"
    written = [line.strip() for line in out.splitlines() if line.startswith('      "name": ')]
    assert written == ['"name": NaN,', '"name": Infinity,', '"name": -Infinity,',
                       '"name": 0.1,', f'"name": 1{"0" * 30},', '"name": true,',
                       '"name": null,', '"name": {',
                       r'"name": "caf\u00e9 \u2603 \ud83d\ude00 \u0001\t\n\"\\ \ud800 \udfff x",']


def _printed_json(obj) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        _emit_json(obj)
    return buffer.getvalue()


_INT_DTYPES = st.one_of(hnp.integer_dtypes(), hnp.unsigned_integer_dtypes())
_JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=6),
    _INT_DTYPES.flatmap(hnp.from_dtype), hnp.from_dtype(np.dtype(np.float64)),
    hnp.arrays(st.one_of(_INT_DTYPES, st.just(np.bool_), st.just(np.float64)),
               hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=3)))
_JSON_KEYS = st.one_of(st.text(max_size=3), st.integers(-2, 12), st.booleans(), st.none(),
                       st.sampled_from(["1", "True", "None"]))
_JSON_TREES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(_JSON_KEYS, inner, max_size=4)),
    max_leaves=25)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_JSON_TREES)
@example({1: "a", "1": "b", True: [], "True": (), None: {}, "None": np.int8(-1)})
@example([[[[[[[[[[{"deep": [(), {}, np.zeros((0, 2), dtype=np.int16)]}]]]]]]]]]])
def test_json_writer_prints_the_stdlib_bytes(tree):
    """`_emit_json` prints exactly `json.dumps(_jsonable(tree), indent=2,
    sort_keys=True)` on random trees of numpy scalars and arrays, tuples and
    keys that collide once made strings."""
    assert _printed_json(tree) == stdlib_json(tree) + "\n"


@pytest.mark.parametrize("bad", [{1, 2}, np.float32(0.5), np.bool_(True), object()],
                         ids=["set", "float32", "bool_", "object"])
def test_json_writer_refuses_what_json_refuses(bad):
    for tree in (bad, [1, {"a": (bad,)}]):
        with pytest.raises(TypeError) as expected:
            stdlib_json(tree)
        with pytest.raises(TypeError) as raised:
            _printed_json(tree)
        assert str(raised.value) == str(expected.value)


def test_malformed_budget_exits_two(capsys, monkeypatch):
    monkeypatch.setenv("COHOMORING_BUDGET", "abc")
    for argv in (["verify"], ["examples", "dihedral", "3"], ["z1", "--dihedral", "4"],
                 ["h2", "--dihedral", "4"], ["endo", "--dihedral", "4"],
                 ["extension", "--dihedral", "4"], ["ring", "--zn", "12"]):
        code, out, err = _run(capsys, *argv)
        assert code == 2 and not out, argv
        assert err == "error: COHOMORING_BUDGET must be a number, got 'abc'\n", argv
    # building a group spends no budget
    code, out, err = _run(capsys, "group", "--dihedral", "4")
    assert code == 0 and not err
    assert "order: 8" in out


def test_searches_and_circle_tables_stay_counted(capsys, monkeypatch):
    """`verify --json` makes 59 coboundary preimage searches (one per class
    was 109) and builds 56 circle tables (102 while the fiber rings built
    theirs, 68 while each entry built its own module ring: the sweep builds
    22 for 34 entries); `examples dihedral 24 --json` searches once and
    builds no circle table on a ring of more than 24 elements."""
    searched, circles = [], []
    preimage, star_table = verify.coboundary_preimage, rings.star_table

    def counted_preimage(f):
        searched.append(f.q_group.order)
        return preimage(f)

    def counted_star_table(ring):
        circles.append(ring.order)
        return star_table(ring)

    monkeypatch.setattr(verify, "coboundary_preimage", counted_preimage)
    monkeypatch.setattr(rings, "star_table", counted_star_table)
    assert _run(capsys, "verify", "--json")[0] == 0
    assert (len(searched), len(circles)) == (59, 56)
    searched.clear()
    circles.clear()
    assert _run(capsys, "examples", "dihedral", "24", "--json")[0] == 0
    assert searched == [48]
    assert circles and max(circles) <= 24


def test_dihedral_example_builds_no_model_ring(capsys, monkeypatch):
    """`examples dihedral 24 --json` reads the pair-model row off the two
    pair-formula rows: it builds no semidirect ring (the order-576 model ring
    was one) and certifies two ring maps, the fiber ring's restriction and
    the projection of the quasi-regular sequence (the model's transport map
    was a third)."""
    semidirect, ring_maps = [], []
    build, certify = rings.semidirect_ring, rings.RingHom.__init__

    def counted_semidirect(*args, **kwargs):
        semidirect.append(args)
        return build(*args, **kwargs)

    def counted_ring_map(self, *args):
        ring_maps.append(args)
        certify(self, *args)

    for module in (rings, examples):
        monkeypatch.setattr(module, "semidirect_ring", counted_semidirect)
    monkeypatch.setattr(rings.RingHom, "__init__", counted_ring_map)
    assert _run(capsys, "examples", "dihedral", "24", "--json")[0] == 0
    assert (len(semidirect), len(ring_maps)) == (0, 2)


def test_python_dash_m_runs_the_cli(capsys):
    """`python -m cohomoring` prints what `cli.main` prints and exits with
    its code."""
    argv = ["examples", "dihedral", "3", "--json"]
    code, out, _ = _run(capsys, *argv)
    src = str(Path(cohomoring.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-m", "cohomoring", *argv], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (code, out)
    bad = subprocess.run([sys.executable, "-m", "cohomoring", "examples", "dihedral", "2"],
                         env=env, capture_output=True, text=True, timeout=120)
    assert bad.returncode == main(["examples", "dihedral", "2"]) == 2


def test_verify_builds_each_discovery_list_once(capsys, monkeypatch):
    """`verify --json` builds the BFS discovery list of each (group,
    generators) pair once, where every generator search used to rebuild it
    (359 builds for this run)."""
    built = []
    bfs_words = groups._bfs_words

    def counted(g, gens):
        built.append((g, tuple(gens)))  # keeps g alive, so its id stays its own
        return bfs_words(g, gens)

    monkeypatch.setattr(groups, "_bfs_words", counted)
    assert _run(capsys, "verify", "--json")[0] == 0
    assert built
    assert len({(id(g), gens) for g, gens in built}) == len(built)
