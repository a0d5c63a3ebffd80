"""Record the correctness references: one pass of each workload at seed 0.

    python3 perfbench/record_references.py

Run it only on code whose outputs are known to be right; the file it writes,
perfbench/references.json, is what every later benchmark pass is checked
against.
"""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from run import HERE, ROOT, WORKLOADS, Runner


def main() -> int:
    refs = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        work = Path(tmp)
        runner = Runner("catalog_sweep", {}, work, time.perf_counter() + 3600)
        subprocess.run([sys.executable, str(HERE / "catalog_gen.py"), "--seed", "0",
                        "--out", str(work / "catalog.json")], env=runner.env, check=True)
        for name in WORKLOADS:
            runner = Runner(name, {}, work, time.perf_counter() + 3600)
            res = runner.run_pass(traced=False)
            if res["problems"]:
                print(f"{name}: {res['problems']}", file=sys.stderr)
                return 1
            refs[name] = res["values"]
    (HERE / "references.json").write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
