"""Output checks that never run inside a timed region.

The reference for network outputs is the scalar IR interpreter
(``evaluate_kernel(..., engine="scalar")``) applied to each subgraph's
*lowered kernel*, chained through the plan's step wiring.  It does not
touch the compiled program, unlike ``NetworkPlan.oracle``, which replays
the program under test.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Mapping

import numpy as np

from common import OUT_ROOT, ROOT, SRC


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def network_feeds(plan, seed: int, net_index: int, count: int) -> List[Dict[str, np.ndarray]]:
    """``count`` seeded input dicts for one network (same seed, same feeds)."""
    from repro.runtime.reference import numpy_dtype

    feeds = []
    for i in range(count):
        rng = np.random.default_rng([seed, net_index, i])
        feeds.append(
            {
                t.key: rng.standard_normal(t.shape).astype(numpy_dtype(t.dtype))
                for t in plan.inputs
            }
        )
    return feeds


def scalar_reference(plan, feed: Mapping[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Network outputs from the scalar interpreter, step by step."""
    from repro.runtime.reference import evaluate_kernel

    values: Dict[str, np.ndarray] = {}
    for step in plan.steps:
        kernel = plan.programs[step.digest].kernel
        sub_feed = {
            cname: values[key] if key in values else feed[key]
            for cname, key in zip(step.canonical_inputs, step.input_keys)
        }
        got = evaluate_kernel(kernel, sub_feed, engine="scalar")
        for cname, key in zip(step.canonical_outputs, step.output_keys):
            values[key] = got[cname]
    return {name: values[key] for name, key in plan.outputs}


def outputs_match(got: Mapping[str, np.ndarray], want: Mapping[str, np.ndarray]) -> bool:
    return set(got) == set(want) and all(same_bits(got[k], want[k]) for k in want)


def program_digest(result) -> str:
    return hashlib.sha256(result.program.dump().encode()).hexdigest()


def source_digest() -> str:
    """sha256 over the program's and the benchmark's source files (names
    and contents): a change to either starts a new exact-repeat record."""
    h = hashlib.sha256()
    bench = os.path.dirname(os.path.abspath(__file__))
    for root in (os.path.join(SRC, "repro"), bench):
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as fh:
                        h.update(fh.read())
    return h.hexdigest()


def check_repeat(workload: str, counts: dict) -> List[str]:
    """Compare deterministic counts with the first run of the same source.

    The first run records them under ``.bench_out`` (keyed by a digest of
    the program's and the benchmark's source); every later run of the same
    workload on the same sources must reproduce them exactly.
    """
    path = os.path.join(OUT_ROOT, f"counts-{workload}-{source_digest()[:16]}.json")
    canonical = json.loads(json.dumps(counts, sort_keys=True))
    if not os.path.exists(path):
        os.makedirs(OUT_ROOT, exist_ok=True)
        tmp = f"{path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(canonical, fh, indent=1, sort_keys=True)
        os.replace(tmp, path)
        return []
    with open(path) as fh:
        recorded = json.load(fh)
    return [
        f"{key}: {recorded.get(key)!r} recorded, {canonical.get(key)!r} now"
        for key in sorted(set(recorded) | set(canonical))
        if recorded.get(key) != canonical.get(key)
    ]
