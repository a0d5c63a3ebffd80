"""One catalog sweep builds each JSON group, each H^2(Q,N) and each module
ring End_Q(N) once (`store.SweepStore`), and sharing them moves no row."""

import copy
import json
import sys
from itertools import islice

import numpy as np
import pytest

from cohomoring import BudgetExceeded, cli, cohomology2, endo_rings, store
from cohomoring.catalog import CatalogEntry, catalog_from_json, default_catalog, sweep
from cohomoring.cohomology2 import compute_h2
from cohomoring.extension import extension_from_cocycle, extension_to_json
from cohomoring.groups import make_cyclic, make_direct_product, trivial_action
from cohomoring.store import SweepStore


def _counted(monkeypatch, module, name):
    """Wrap `name` in every cohomoring module that holds it; the returned
    list collects the positional arguments of each call."""
    real = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module_name, held in list(sys.modules.items()):
        if module_name.startswith("cohomoring") and getattr(held, name, None) is real:
            monkeypatch.setattr(held, name, counted)
    return calls


def _catalog_doc():
    """The default catalog written out by `extension_to_json`."""
    return {"entries": [{"name": e.name, "kind": "extension",
                         "extension": extension_to_json(e.materialize())}
                        for e in default_catalog()]}


def _relabel_group(group, perm):
    """The group payload with element a renamed perm[a]."""
    table = np.empty((len(perm), len(perm)), dtype=np.int64)
    table[np.ix_(perm, perm)] = perm[np.asarray(group["table"])]
    labels = [None] * len(perm)
    for a, label in enumerate(group["labels"]):
        labels[perm[a]] = label
    return {"order": len(perm), "table": table.tolist(),
            "generators": perm[group["generators"]].tolist(), "labels": labels}


def _relabelled_doc(seed):
    """`_catalog_doc()` with the non-identity elements of each entry's three
    groups permuted at random, entry by entry, and both maps to match."""
    rng = np.random.default_rng(seed)
    entries = []
    for row in _catalog_doc()["entries"]:
        ext = row["extension"]
        perm = {k: np.concatenate([[0], 1 + rng.permutation(ext[k]["order"] - 1)])
                for k in ("kernel", "group", "quotient")}
        kernel_map = np.empty(len(perm["kernel"]), dtype=np.int64)
        kernel_map[perm["kernel"]] = perm["group"][ext["kernel_map"]]
        quotient_map = np.empty(len(perm["group"]), dtype=np.int64)
        quotient_map[perm["group"]] = perm["quotient"][ext["quotient_map"]]
        relabelled = {k: _relabel_group(ext[k], perm[k]) for k in perm}
        relabelled.update(name=ext["name"], kernel_map=kernel_map.tolist(),
                          quotient_map=quotient_map.tolist())
        entries.append({"name": row["name"], "kind": "extension", "extension": relabelled})
    return {"entries": entries}


def test_one_sweep_builds_each_module_and_group_once(monkeypatch, tmp_path, capsys):
    """Over the default catalog, one sweep builds H^2(Q,N), End_Q(N) and
    the action-preserving endomorphisms of Q once per distinct (Q, N,
    action): 22 times each for 34 entries.  Over its
    JSON round trip, read by `verify --catalog`, each distinct group payload
    is loaded and certified once, as one object.  The file names no group,
    so D3 and D4 now share Q and N with "C3 by C2, action 1" and "C4 by C2,
    action 1": 20 builds each."""
    entries = default_catalog()  # builds the class representatives of 9 H^2
    h2 = _counted(monkeypatch, cohomology2, "compute_h2")
    rings = _counted(monkeypatch, endo_rings, "equivariant_endo_ring")
    quotient_endos = _counted(monkeypatch, endo_rings, "action_preserving_quotient_endos")
    assert sweep(entries)["failed"] == 0
    assert (len(h2), len(rings), len(quotient_endos)) == (22, 22, 22)
    assert len({(id(q), id(n), action.table.tobytes()) for q, n, action in h2}) == 22

    doc = {"entries": [{"name": e.name, "kind": "extension",
                        "extension": extension_to_json(e.materialize())} for e in entries]}
    path = tmp_path / "catalog.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    loaded = _counted(monkeypatch, store, "group_from_json")
    h2.clear()
    rings.clear()
    assert cli.main(["verify", "--catalog", str(path), "--json"]) == 0
    capsys.readouterr()
    payloads = [json.dumps(row["extension"][k], sort_keys=True)
                for row in doc["entries"] for k in ("kernel", "group", "quotient")]
    assert len(payloads) == 102
    assert sorted(json.dumps(args[0], sort_keys=True) for args in loaded) == sorted(set(payloads))
    assert (len(h2), len(rings)) == (20, 20)

    shared = SweepStore()
    objects = {}
    for entry, row in zip(catalog_from_json(doc), doc["entries"]):
        ext = entry.materialize(shared)
        for key, group in zip(("kernel", "group", "quotient"),
                              (ext.n_group, ext.g_group, ext.q_group)):
            objects.setdefault(json.dumps(row["extension"][key], sort_keys=True),
                               set()).add(id(group))
    assert len(objects) == len(set(payloads))
    assert all(len(ids) == 1 for ids in objects.values())


def test_sharing_moves_no_row():
    """Relabelled by a fixed seed, every entry of the default catalog gets
    the row in a full sweep that it gets swept alone.  A copy of an entry
    with a corrupted quotient map, put between two entries with the same
    (Q, N, action), fails as it fails alone, and both neighbours pass."""
    doc = _relabelled_doc(11)
    entries = catalog_from_json(doc)
    shared = SweepStore()
    keys = []
    for entry in entries:
        ext = entry.materialize(shared)
        keys.append((id(ext.q_group), id(ext.n_group), ext.action.table.tobytes()))
    assert len(set(keys)) < len(keys)
    first, second = next((i, j) for j in range(len(keys)) for i in range(j)
                         if keys[i] == keys[j])
    broken = copy.deepcopy(doc["entries"][first])
    broken["name"] = "corrupted quotient map"
    qmap = broken["extension"]["quotient_map"]
    qmap[-1] = (qmap[-1] + 1) % broken["extension"]["quotient"]["order"]
    entries.insert(second, catalog_from_json({"entries": [broken]})[0])

    rows = sweep(entries)["entries"]
    assert [row["name"] for row in rows if not row["ok"]] == ["corrupted quotient map"]
    assert rows[first]["ok"] and rows[second + 1]["ok"]
    assert "error" in rows[second]
    for entry, row in zip(entries, rows):
        assert sweep([entry])["entries"][0] == row, entry.name


def test_a_build_that_raises_is_not_kept(monkeypatch):
    """At COHOMORING_BUDGET=0.004 no method fits H^2 of C2^3 on C2, while
    the fiber rings of its extensions (order at most 16) still fit.  Four
    classes share that module: each builds H^2 again and reports its own
    BudgetExceeded row, the row it gets swept alone, while the module ring,
    which fits, is built once."""
    c2 = make_cyclic(2, name="C2")
    v4, _, _ = make_direct_product(make_cyclic(2), make_cyclic(2), name="C2xC2")
    q, _, _ = make_direct_product(v4, make_cyclic(2), name="C2xC2xC2")
    action = trivial_action(q, c2)
    entries = [CatalogEntry(f"class {coeffs}", "extension", extension_from_cocycle(rep))
               for coeffs, rep in islice(compute_h2(q, c2, action).classes(), 4)]
    message = "no cohomology method fits the current budget"
    monkeypatch.setenv("COHOMORING_BUDGET", "0.004")
    with pytest.raises(BudgetExceeded, match=message):
        compute_h2(q, c2, action)

    built = _counted(monkeypatch, cohomology2, "compute_h2")
    rings = _counted(monkeypatch, endo_rings, "equivariant_endo_ring")
    rows = sweep(entries)["entries"]
    assert [row.get("error") for row in rows] == [message] * 4
    assert (len(built), len(rings)) == (4, 1)
    for entry, row in zip(entries, rows):
        assert sweep([entry])["entries"][0] == row, entry.name
