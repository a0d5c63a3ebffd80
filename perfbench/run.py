"""Benchmark of the cohomoring command line on three workloads.

    python3 perfbench/run.py --workload catalog_sweep --seed 3 --seconds 25 --trace 0

Workloads (BENCHMARK.json says why each was chosen):
  catalog_sweep  verify --catalog <default catalog relabelled by the seed> --json
  ring432        examples ring432 --json       (fixed instance, seed ignored)
  dihedral_24    examples dihedral 24 --json   (fixed instance, seed ignored)

Closed loop with one client: passes run one at a time, each calling
`cohomoring.cli.main` in a fresh single-threaded interpreter pinned to one
CPU (perfbench/child.py), for --seconds: no pass starts when more than half
of it would fall after that span.  Every output is checked against
perfbench/references.json; a pass fails on a nonzero exit, a failed check or
a value that differs from the reference.  Set-up time is also sampled by
interpreters that only import the CLI.  The reported time is wall_norm_s, the
pass's wall time rescaled by the speed probe of perfbench/child.py, so that
the host's drifting speed cancels; the raw wall_s and cpu_s are printed.
With --trace 1 each untraced pass is followed by a traced one, and the
result holds the per-layer metrics of perfbench/tracer.py and the tracing
overhead instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from check import mismatches, summarize  # noqa: E402
from tracer import OVERHEAD, metric_units  # noqa: E402

WORKLOADS = {
    "catalog_sweep": ["verify", "--catalog", "{catalog}", "--json"],
    "ring432": ["examples", "ring432", "--json"],
    "dihedral_24": ["examples", "dihedral", "24", "--json"],
}
SERIES = (("wall_norm_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB"))
PRINTED = (("wall_s", "s"), ("cpu_s", "s"), ("probe_s", "s"))  # shown, not in the result
SETUP_SAMPLES = 6  # set-up-only interpreters per run, on top of one per pass
HARD_LIMIT_S = 170.0  # no new pass starts that could end after this


def child_env() -> Dict[str, str]:
    recorded = json.loads((HERE / "environment.json").read_text())
    env = {k: v for k, v in os.environ.items() if k not in recorded["child_env_removed"]}
    env.update(recorded["child_env"])
    return env


class Runner:
    def __init__(self, workload: str, reference: dict, work: Path, hard_end: float):
        self.reference = reference
        self.work = work
        self.hard_end = hard_end
        self.env = child_env()
        self.cli_args = [a.format(catalog=work / "catalog.json") for a in WORKLOADS[workload]]
        self.count = 0

    def spawn(self, args: List[str]) -> subprocess.CompletedProcess:
        """Run one child interpreter to completion; it is killed at the hard limit."""
        timeout = max(1.0, self.hard_end - time.perf_counter())
        return subprocess.run([sys.executable, *args], env=self.env, cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)

    def measure(self, extra: List[str]) -> dict:
        """Start a child with the current clock reading; its JSON result line."""
        args = [str(HERE / "child.py"), "--t0-ns", str(time.perf_counter_ns()), *extra]
        proc = self.spawn(args)
        if proc.returncode != 0:
            raise RuntimeError(f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_sample(self) -> dict:
        return self.measure(["--setup-only"])

    def run_pass(self, traced: bool) -> dict:
        """One pass; `problems` lists every reason it failed."""
        self.count += 1
        out = self.work / f"pass{self.count}.json"
        try:
            res = self.measure(["--out", str(out)] + (["--trace"] if traced else [])
                               + ["--", *self.cli_args])
        except (RuntimeError, ValueError, subprocess.TimeoutExpired) as exc:
            return {"problems": [str(exc)]}
        res["problems"] = []
        if res["exit"] != 0:
            res["problems"].append(f"cli exit code {res['exit']}")
        try:
            values, counts = summarize(json.loads(out.read_text()))
        except (ValueError, KeyError, TypeError) as exc:
            res["problems"].append(f"unreadable cli output: {exc!r}")
            return res
        out.unlink()
        res.update(counts, values=values)
        if counts["checks_failed"]:
            res["problems"].append(f"{counts['checks_failed']} checks failed")
        res["problems"] += mismatches(values, self.reference)
        return res


def quartiles(values: List[float]) -> str:
    if len(values) < 2:
        return "one pass"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"quartiles {q1:.6g}..{q3:.6g}"


def tail_percentile(values: List[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return f"no percentile has ten of {n} passes beyond it"
    pct = 100 * (n - 10) / n
    return f"p{pct:.0f} {sorted(values)[n - 11]:.4f}"


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="cohomoring CLI benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    hard_end = time.perf_counter() + HARD_LIMIT_S

    if not (ROOT / "src" / "cohomoring" / "cli.py").is_file():
        print(f"error: no cohomoring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = json.loads((HERE / "references.json").read_text())[args.workload]
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as tmp:
            return bench(args, reference, Path(tmp), hard_end)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)


def bench(args, reference: dict, work: Path, hard_end: float) -> int:
    runner = Runner(args.workload, reference, work, hard_end)
    try:
        if args.workload == "catalog_sweep":
            gen = runner.spawn([str(HERE / "catalog_gen.py"), "--seed", str(args.seed),
                                "--out", str(work / "catalog.json")])
            if gen.returncode != 0:
                raise RuntimeError(f"catalog generation failed: {gen.stderr.strip()[-2000:]}")
        setups = [runner.setup_sample() for _ in range(SETUP_SAMPLES)]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1

    plain: List[dict] = []
    traced: List[dict] = []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        plain.append(runner.run_pass(traced=False))
        if args.trace:
            traced.append(runner.run_pass(traced=True))
        now = time.perf_counter()
        step = now - began
        # stop where the measured span comes closest to --seconds
        if (now - start + step / 2 >= args.seconds or now + step > hard_end
                or any(p["problems"] and "wall_s" not in p for p in plain + traced)):
            break

    passes = plain + traced
    failed = sum(bool(p["problems"]) for p in passes)
    for p in passes:
        for problem in p["problems"]:
            print(f"pass failed: {problem}", file=sys.stderr)
    timed = [p for p in plain if "wall_s" in p]
    if not timed or (args.trace and not any("layers" in p for p in traced)):
        print("error: no pass completed", file=sys.stderr)
        return 1

    recorded = json.loads((HERE / "environment.json").read_text())
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes, closed loop, "
          f"one client; python {platform.python_version()}, numpy {setups[0]['numpy']}, "
          f"nproc {os.cpu_count()} (references recorded at {recorded['reference_commit'][:7]} "
          f"with python {recorded['python']}, numpy {recorded['numpy']}, "
          f"nproc {recorded['nproc']})")
    if args.trace:
        layers = [p["layers"] for p in traced if "layers" in p]
        metrics = {k: metric(statistics.median(r[k] for r in layers), unit)
                   for k, unit in metric_units().items() if k in layers[0]}
        traced_wall = statistics.median(p["wall_s"] for p in traced if "wall_s" in p)
        untraced_wall = statistics.median(p["wall_s"] for p in timed)
        metrics[OVERHEAD] = metric(traced_wall - untraced_wall, "s")
        for name, m in metrics.items():
            print(f"{name} {m['value']:.6g} {m['unit']}")
        absent = traced[-1].get("absent") or []
        if absent:
            print("absent layers (no longer in the package): " + ", ".join(absent))
    else:
        metrics = {}
        for name, unit in SERIES + PRINTED:
            values = [p[name] for p in (setups + timed if name == "setup_s" else timed)]
            median = statistics.median(values)
            if (name, unit) in SERIES:
                metrics[name] = metric(median, unit)
            print(f"{name} {median:.6g} {unit}: median of {len(values)}, "
                  f"{quartiles(values)}, {tail_percentile(values)}")
        counts = next((p for p in timed if "checks_done" in p), {})
        metrics["checks_done"] = metric(counts.get("checks_done", 0), "count")
        metrics["pass_rate"] = metric((len(passes) - failed) / len(passes), "share")
        print(f"checks_done {metrics['checks_done']['value']} count, "
              f"checks_skipped {counts.get('checks_skipped')} count")
        print(f"pass_rate {metrics['pass_rate']['value']} share, "
              f"error_rate {failed / len(passes)} share ({failed} of {len(passes)} passes failed)")
    print(json.dumps({"correct": failed == 0, "attempted": len(passes), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
