"""Fast tests of the benchmark's own parts.

    python3 -m pytest -q perfbench/tests
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cohomoring.cli  # noqa: E402
from catalog_gen import generate_catalog  # noqa: E402
from check import mismatches, summarize  # noqa: E402
from child import SpeedProbe  # noqa: E402
from cohomoring.catalog import catalog_from_json, dihedral_extension, sweep  # noqa: E402
from cohomoring.extension import extension_from_json  # noqa: E402
from cohomoring.groups import group_from_json  # noqa: E402
from tracer import Layer, Tracer, metric_units  # noqa: E402

SUBSET = ("D4 over rotations", "C4 by C2, action 1, class (1,)", "C2xD3 product")


@pytest.fixture(scope="module")
def catalogs():
    return {seed: generate_catalog(seed) for seed in (0, 5)}


def test_relabelled_tables_are_groups(catalogs):
    original, relabelled = catalogs[0]["entries"], catalogs[5]["entries"]
    assert len(relabelled) == 34
    moved = 0
    for before, entry in zip(original, relabelled):
        ext = entry["extension"]
        for part in ("kernel", "group", "quotient"):
            g = group_from_json(ext[part])
            assert g.table[0].tolist() == list(range(g.order))
            moved += ext[part]["table"] != before["extension"][part]["table"]
        extension_from_json(ext)
    assert moved > 0


def test_node_sizes_match_across_seeds(catalogs):
    reference = json.loads((HERE / "references.json").read_text())["catalog_sweep"]
    sizes = []
    for catalog in catalogs.values():
        doc = {"entries": [e for e in catalog["entries"] if e["name"] in SUBSET]}
        values, counts = summarize(sweep(catalog_from_json(doc)))
        assert counts["checks_failed"] == 0
        del values["total"]
        assert set(values) <= set(reference)
        assert mismatches(values, reference) == []
        sizes.append(values)
    assert sizes[0] == sizes[1]
    assert len(sizes[0]) > 20


def _bindings():
    mods = [m for name, m in sys.modules.items()
            if name == "cohomoring" or name.startswith("cohomoring.")]
    funcs = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    inits = {(m.__name__, k): v.__dict__.get("__init__") for m in mods
             for k, v in vars(m).items() if isinstance(v, type)}
    return funcs, inits


def test_removing_the_wrapper_restores_originals():
    before = _bindings()
    original = cohomoring.verify.compute_h2
    with Tracer() as tracer:
        assert cohomoring.verify.compute_h2 is not original
        assert cohomoring.cli.compute_h2 is cohomoring.verify.compute_h2
        cohomoring.verify.verify_five_term(dihedral_extension(3))
    after = _bindings()
    assert after[1] == before[1]
    assert all(after[0][k] is v for k, v in before[0].items())
    got = tracer.metrics()
    assert got["verify.verify_five_term.calls"] == 1
    assert got["cohomology2.compute_h2.calls"] == 2  # H^2(Q,N) and H^2(G,N)
    assert got["cohomology2.compute_h2_middle.calls"] == 1
    assert 0 <= got["cohomology2.compute_h2.self_s"] <= got["cohomology2.compute_h2.s"]


def test_missing_layer_is_absent_not_zero():
    layers = (Layer("groups", "no_such_function", ""), Layer("groups", "FiniteGroup", ""))
    with Tracer(layers) as tracer:
        cohomoring.groups.make_cyclic(4)
    got = tracer.metrics()
    assert tracer.absent == ["groups.no_such_function"]
    assert not any(k.startswith("groups.no_such_function") for k in got)
    assert got["groups.FiniteGroup.calls"] == 1


def test_per_layer_list_matches_tracer():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert listed == metric_units()


def test_speed_probe_trims_outliers():
    with SpeedProbe() as probe:
        pass
    assert len(probe.times) == 1 and probe.typical_s() > 0
    probe.times = [2.0] * 8 + [0.0, 100.0]
    assert probe.typical_s() == 2.0
