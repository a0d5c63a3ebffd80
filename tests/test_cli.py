"""Command line interface: verbs, exit codes, JSON output, determinism."""

import hashlib
import json

import pytest

from cohomoring import linalg
from cohomoring.catalog import CatalogEntry, dihedral_extension, sweep
from cohomoring.cli import main
from cohomoring.extension import extension_to_json
from cohomoring.groups import group_to_json, make_cyclic
from cohomoring.rings import ring_to_json, zn_ring


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


def test_group_load_and_json(tmp_path, capsys):
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group_to_json(make_cyclic(5))))
    code, out, _ = _run(capsys, "group", "--load", str(path), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["group"]["order"] == 5
    assert data["abelian"] is True


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
    monkeypatch.setattr(linalg, "_GUARD", 0)
    summary = sweep([CatalogEntry("D4", "extension", dihedral_extension(4))])
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


def test_output_is_deterministic(capsys, monkeypatch):
    # sha256 of each output as first recorded; a refactor must not move a byte
    for argv, digest in (
        (["group", "--dihedral", "5", "--json"],
         "b3037f6179111c4eccc443d03538db5142d576a19e4908818c09b1f7769d9f9c"),
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
         "33b83d89189d0acc4708c19eee777fd82f1da66f6b19808faa8f372a4eb6720d"),
        # the default-budget sweep: every connecting class and pushforward of
        # the catalog, as text and as JSON
        (["verify", "--json"],
         "3f163786c9ed8878ee26b51b14bbb964fae0b06ba9be289d222bd4cbd53ece01"),
        (["verify"],
         "d30fea6ecc34b4aa4cbb5ff0a36d572ad711c313f77d1a7b5df4d8275b459d99"),
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
            == "f21501de7160dfa1a2b295fff1442f35b0cd91abfc969c1bf58495432ce76372")


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
