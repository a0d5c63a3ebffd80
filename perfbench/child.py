"""One benchmark pass in a fresh interpreter.

    python3 perfbench/child.py --t0-ns NS --out FILE [--trace] -- <cli args>
    python3 perfbench/child.py --t0-ns NS --setup-only

NS is `time.perf_counter_ns()` read by the parent just before it started this
interpreter (the clock is system-wide on Linux), so set-up time covers
interpreter start and the import of `cohomoring.cli`.  The CLI's standard
output goes to FILE; the measurements are printed as one JSON line.  Only
`--trace` imports the tracer.

The child runs on one CPU.  While the CLI runs, a probe thread times a small
fixed pure-Python kernel every PROBE_INTERVAL_S; on a shared host the speed of
that CPU drifts by tens of percent over minutes, and the probe, which shares the
CPU with the pass, sees the same drift.  `wall_norm_s` is the pass's wall time
rescaled to the reference probe time of perfbench/environment.json.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
PROBE_INTERVAL_S = 0.02
PROBE_TRIM = 0.1  # share of probe times cut from each end before averaging
_CELLS = list(range(64))


def probe_kernel() -> int:
    total = 0
    for x in _CELLS:
        for y in _CELLS[:16]:
            total += _CELLS[(x * y) & 63]
    return total


class SpeedProbe:
    """Times `probe_kernel` every PROBE_INTERVAL_S on a daemon thread."""

    def __init__(self):
        self.times = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            self._sample()

    def _sample(self) -> None:
        t0 = time.perf_counter()
        probe_kernel()
        self.times.append(time.perf_counter() - t0)

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        if not self.times:
            self._sample()

    def typical_s(self) -> float:
        """Mean probe time with PROBE_TRIM of the samples cut from each end."""
        times = sorted(self.times)
        cut = int(len(times) * PROBE_TRIM)
        kept = times[cut:len(times) - cut]
        return sum(kept) / len(kept)


def main() -> int:
    argv = sys.argv[1:]
    cli_args = argv[argv.index("--") + 1:] if "--" in argv else []
    own = argv[:argv.index("--")] if "--" in argv else argv
    parser = argparse.ArgumentParser()
    parser.add_argument("--t0-ns", type=int, required=True)
    parser.add_argument("--out")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(own)
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    sys.path.insert(0, str(HERE.parent / "src"))
    import cohomoring.cli
    import numpy

    result = {"setup_s": (time.perf_counter_ns() - args.t0_ns) / 1e9,
              "numpy": numpy.__version__}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    buf = io.StringIO()
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    with contextlib.redirect_stdout(buf), SpeedProbe() as probe:
        try:
            code = cohomoring.cli.main(cli_args)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        wall1 = time.perf_counter()
        cpu1 = time.process_time()
    reference = json.loads((HERE / "environment.json").read_text())["probe_reference_s"]
    result.update(
        exit=code,
        wall_s=wall1 - wall0,
        wall_norm_s=(wall1 - wall0) * reference / probe.typical_s(),
        probe_s=probe.typical_s(),
        cpu_s=cpu1 - cpu0,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        tracer.remove()
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(buf.getvalue())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
