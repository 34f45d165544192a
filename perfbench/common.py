"""Shared plumbing for the benchmark: paths, run hygiene, statistics.

Nothing here imports the program under test (``repro``); that happens
only after :func:`prepare_environment` has checked the environment and
pointed the disk cache at a private directory.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from typing import Dict, Optional, Sequence

#: The checkout root: the directory that holds ``perfbench/``.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCH_JSON = os.path.join(ROOT, "BENCHMARK.json")
#: Scratch space inside the checkout (private caches, removed per run).
TMP_ROOT = os.path.join(ROOT, ".bench_tmp")
#: Kept outputs inside the checkout (traces, exact-repeat records).
OUT_ROOT = os.path.join(ROOT, ".bench_out")

#: Environment switches that change what the program computes or caches;
#: a measurement taken under any of them is not comparable.
FORBIDDEN_ENV = ("REPRO_FAULT_SPEC", "REPRO_NO_DISK_CACHE", "REPRO_NO_SOLVER_CACHE")


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid result (exit non-zero)."""


def load_spec() -> dict:
    with open(BENCH_JSON) as fh:
        return json.load(fh)


def prepare_environment(workload: str) -> str:
    """Check hygiene, make the private cache dir, put ``src`` on the path.

    Returns the private directory; the caller removes it with
    :func:`cleanup`.
    """
    bad = [name for name in FORBIDDEN_ENV if os.environ.get(name)]
    if bad:
        raise BenchError(f"refusing to run with {', '.join(bad)} set")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise BenchError(f"program source not found under {SRC}")
    private = os.path.join(TMP_ROOT, f"{workload}-{os.getpid()}")
    shutil.rmtree(private, ignore_errors=True)
    os.makedirs(os.path.join(private, "cache"))
    # Set before the program is imported: the disk cache reads it at call
    # time, and nothing may ever touch the user's default cache.
    os.environ["REPRO_CACHE_DIR"] = os.path.join(private, "cache")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    # The compile driver first: importing a leaf such as repro.poly.cache
    # before it trips a circular import inside the program.
    import repro.core.compiler  # noqa: F401

    return private


def cleanup(private: Optional[str]) -> None:
    if private:
        shutil.rmtree(private, ignore_errors=True)
    try:
        os.rmdir(TMP_ROOT)  # only when no other run is using it
    except OSError:
        pass


def fresh_cache(private: str, tag: str) -> str:
    """Point the program's disk cache at a new empty directory."""
    from repro.core import diskcache

    path = os.path.join(private, f"cache-{tag}")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    os.environ["REPRO_CACHE_DIR"] = path
    diskcache.set_cache_dir(path)
    return path


# -- statistics ----------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    if not values:
        raise BenchError("percentile of an empty sample")
    xs = sorted(values)
    if len(xs) == 1:
        return float(xs[0])
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return float(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo))


def median(values: Sequence[float]) -> float:
    if not values:
        raise BenchError("median of an empty sample")
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- host diagnostics ------------------------------------------------------------


def host_calibration() -> Dict[str, float]:
    """A fixed pure-Python and numpy workload, timed (median of 5).

    Not a metric: printed beside each result so a busy or slow host shows
    up when two runs disagree.
    """
    import numpy as np

    def py_loop() -> None:
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        if acc < 0:
            raise AssertionError

    x = np.linspace(0.0, 1.0, 1 << 16)

    def np_loop() -> None:  # element-wise only: no BLAS thread pool
        for _ in range(20):
            np.sort(np.exp(x * 3.0) % 1.0)

    out = {}
    for name, fn in (("python_ms", py_loop), ("numpy_ms", np_loop)):
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fn()
            times.append((time.perf_counter() - t0) * 1e3)
        out[name] = round(median(times), 3)
    return out


def host_info() -> Dict[str, object]:
    import numpy as np

    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "calibration": host_calibration(),
    }


class Metrics:
    """Named measurements with unit and sample count, in insertion order."""

    def __init__(self):
        self.rows: Dict[str, Dict[str, object]] = {}

    def put(self, name: str, value: float, unit: str, samples: int = 1) -> None:
        self.rows[name] = {"value": float(value), "unit": unit, "samples": int(samples)}

    def get(self, name: str) -> float:
        return float(self.rows[name]["value"])

    def table(self) -> str:
        lines = [f"{'metric':<42}{'value':>16}  {'unit':<8}{'samples':>8}"]
        for name, row in self.rows.items():
            lines.append(
                f"{name:<42}{row['value']:>16.6g}  {row['unit']:<8}{row['samples']:>8}"
            )
        return "\n".join(lines)
