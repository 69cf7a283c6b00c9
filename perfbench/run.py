"""bowendim benchmark: seeded workloads driven through the public CLI.

Usage, from the repository root:

    python3 perfbench/run.py --workload digits --seed 1 --seconds 25 --trace 0

`--workload all` runs every workload in its own process and prints each one's
metrics.

One client in one process calls `bowendim.cli.main([...])` in a closed loop:
each call starts when the previous one has returned, with BOWENDIM_THREADS=1.
A pass runs every call of the workload once; passes repeat until --seconds
have elapsed, after one warm-up pass.  Every call's exit code and summary are
checked against the workload's reference answers, and sampled pressure.csv
rows against exact partition functions (oracle.py).

--trace 0 prints the end-to-end metrics: set-up time (load_config of every
config, once before each timed pass; the median), the median and tail pass
time, peak RSS of a fresh child process running one pass, and the widest
dimension bracket.  --trace 1 alternates untraced and traced passes and prints
per-layer span self times and work counts (tracing.py), with the tracing
overhead.  Metric names and units are those of BENCHMARK.json.
Human-readable lines come first; the last line of standard output is one JSON
object.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or 'all'")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--rss-child", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "bowendim" / "__init__.py").is_file():
        print(f"no bowendim sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["BOWENDIM_THREADS"] = "1"
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    import harness

    return harness.main(args)


def run_all(args):
    """Every workload in turn, each in its own process; one result per workload."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__).resolve()), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}", file=sys.stderr)
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        res = results[name]
        for metric, m in res["metrics"].items():
            print(f"{name} {metric} = {m['value']} {m['unit']}")
        print(f"{name} failed_frac = {res['failed'] / res['attempted']}"
              f" ({res['failed']} of {res['attempted']} calls)")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
