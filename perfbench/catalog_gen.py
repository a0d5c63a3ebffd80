"""Seeded input generator for the `catalog_sweep` workload.

Every extension of the default catalog is written out as explicit tables with
the non-identity elements of N, G and Q relabelled by permutations drawn from
the seed; both maps are relabelled to match and the identity stays at index 0.
Seed 0 keeps the original labelling.  The CLI reads only the emitted file.

    python3 perfbench/catalog_gen.py --seed 3 --out catalog.json
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path
from typing import List

SRC = Path(__file__).resolve().parents[1] / "src"


def draw_permutation(order: int, rng: random.Random, identity: bool) -> List[int]:
    """perm[old index] = new index, fixing 0."""
    rest = list(range(1, order))
    if not identity:
        rng.shuffle(rest)
    return [0] + rest


def relabel_group(data: dict, perm: List[int]) -> dict:
    """The group JSON with element a renamed perm[a]."""
    n = len(perm)
    table = [[0] * n for _ in range(n)]
    labels = [""] * n
    for a, row in enumerate(data["table"]):
        labels[perm[a]] = data["labels"][a]
        for b, c in enumerate(row):
            table[perm[a]][perm[b]] = perm[c]
    return {
        "order": n,
        "table": table,
        "generators": [perm[g] for g in data["generators"]],
        "labels": labels,
    }


def relabel_map(values: List[int], src_perm: List[int], dst_perm: List[int]) -> List[int]:
    out = [0] * len(values)
    for a, b in enumerate(values):
        out[src_perm[a]] = dst_perm[b]
    return out


def relabel_extension(data: dict, rng: random.Random, identity: bool) -> dict:
    pn, pg, pq = (draw_permutation(data[k]["order"], rng, identity)
                  for k in ("kernel", "group", "quotient"))
    return {
        "name": data["name"],
        "kernel": relabel_group(data["kernel"], pn),
        "group": relabel_group(data["group"], pg),
        "quotient": relabel_group(data["quotient"], pq),
        "kernel_map": relabel_map(data["kernel_map"], pn, pg),
        "quotient_map": relabel_map(data["quotient_map"], pg, pq),
    }


def generate_catalog(seed: int) -> dict:
    """The default catalog as a JSON document, relabelled by `seed`."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from cohomoring.catalog import default_catalog
    from cohomoring.extension import extension_to_json

    rng = random.Random(seed)
    entries = []
    for entry in default_catalog():
        ext = relabel_extension(extension_to_json(entry.materialize()), rng, seed == 0)
        entries.append({"name": entry.name, "kind": "extension", "extension": ext})
    return {"entries": entries}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(generate_catalog(args.seed), fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
