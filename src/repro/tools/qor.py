"""Quality-of-result snapshot of the two replayable tiny networks.

For every plan step of ``alexnet_tiny`` and ``mobilenetv2_tiny`` the
snapshot holds the simulated cycles of the step's program and the sha256
of its program dump.  ``BENCH_qor.json`` at the repository root is the
committed snapshot; the tier-1 test ``tests/graph/test_qor.py`` recompiles
both networks and fails if any digest changes or any step's cycle count
rises.

    python -m repro.tools.qor                 # print the snapshot
    python -m repro.tools.qor --out BENCH_qor.json
    python -m repro.tools.qor --check BENCH_qor.json

The snapshot compiles with the disk cache off: a cached program says
nothing about the compiler that is being checked.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from typing import Dict, List

QOR_NETWORKS = ("alexnet_tiny", "mobilenetv2_tiny")


def qor_snapshot() -> Dict[str, Dict[str, Dict[str, object]]]:
    """``{network: {"g<i>": {"cycles", "program_sha256"}}}`` of a fresh compile."""
    from repro.core import diskcache
    from repro.graph import NETWORKS, compile_network

    out: Dict[str, Dict[str, Dict[str, object]]] = {}
    for name in QOR_NETWORKS:
        with diskcache.disabled():
            plan = compile_network(NETWORKS[name]()).plan
        cycles = plan.cycles_by_digest()
        out[name] = {
            f"g{i}": {
                "cycles": cycles[step.digest],
                "program_sha256": hashlib.sha256(
                    plan.programs[step.digest].program.dump().encode()
                ).hexdigest(),
            }
            for i, step in enumerate(plan.steps)
        }
    return out


def qor_regressions(recorded: Dict, current: Dict) -> List[str]:
    """Every step whose dump digest changed or whose cycles rose."""
    problems = []
    for net in sorted(set(recorded) | set(current)):
        want, got = recorded.get(net, {}), current.get(net, {})
        for step in sorted(set(want) | set(got)):
            if step not in want or step not in got:
                problems.append(f"{net}.{step}: plan step added or removed")
                continue
            if got[step]["program_sha256"] != want[step]["program_sha256"]:
                problems.append(f"{net}.{step}: program dump changed")
            if got[step]["cycles"] > want[step]["cycles"]:
                problems.append(
                    f"{net}.{step}: cycles rose {want[step]['cycles']} -> "
                    f"{got[step]['cycles']}"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="qor", description=__doc__.split("\n")[0])
    parser.add_argument("--out", help="write the snapshot as a BENCH file")
    parser.add_argument("--check", help="compare with a recorded BENCH file")
    args = parser.parse_args(argv)
    snapshot = qor_snapshot()
    if args.check:
        with open(args.check) as fh:
            problems = qor_regressions(json.load(fh)["networks"], snapshot)
        for line in problems:
            print(line, file=sys.stderr)
        return 1 if problems else 0
    from repro.tools.bench import _bench_envelope

    doc = dict(_bench_envelope("qor"), networks=snapshot)
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
