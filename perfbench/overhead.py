"""Tracing overhead: the traced run's end-to-end numbers minus the untraced run's.

Usage (from the root of a checkout)::

    python3 perfbench/overhead.py [--seed 0] [--seconds 15] [workload ...]

Runs each workload twice with the same seed, ``--trace 0`` then
``--trace 1``, and prints, per workload and end-to-end metric, both
values and the relative difference.  Exits non-zero if either run fails
to produce a result.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _run(workload: str, seed: int, seconds: float, trace: int) -> str:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return proc.stdout


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = parser.parse_args(argv)
    for workload in args.workloads:
        plain = json.loads(_run(workload, args.seed, args.seconds, 0).strip().splitlines()[-1])
        traced_out = _run(workload, args.seed, args.seconds, 1)
        prefix = "# traced end_to_end "
        line = next(l for l in traced_out.splitlines() if l.startswith(prefix))
        traced = json.loads(line[len(prefix):])
        print(f"{workload}: tracing overhead (traced - untraced) / untraced")
        for name, entry in plain["metrics"].items():
            a, b = entry["value"], traced[name]
            rel = (b - a) / a if a else float("nan")
            print(f"  {name:<18} untraced {a:14.6g}  traced {b:14.6g}  {rel:+8.2%}  {entry['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
