"""The two whole-network workloads: cold/warm compile and plan replay.

Both use the two replayable models, ``alexnet_tiny`` and
``mobilenetv2_tiny``, in that order.  Their compiled plans are seed
independent; the replay feeds are drawn from the seed.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from typing import Dict, List

import numpy as np

from checks import (
    check_repeat,
    network_feeds,
    outputs_match,
    program_digest,
    scalar_reference,
)
from common import SRC, Metrics, fresh_cache, median, percentile

NETWORK_NAMES = ("alexnet_tiny", "mobilenetv2_tiny")
BATCH = 8
#: Setup is repeated this many times per run and reported as a median.
SETUP_REPS = 5
#: Warm recompiles (~70 ms each) per cold pass.
WARM_REPS = 5
#: Seeded feeds per network whose scalar reference is computed; every
#: replayed inference uses one of them.
REFERENCE_FEEDS = 2
#: Percentiles of the batch times behind net_replay's ``unit_ms`` and
#: ``throughput_per_s`` (90) and its ``tail_ms`` (95).  The shared 2-vCPU
#: VM the benchmark was defined on switches between a fast and a slow
#: state, about 1.6x apart, within and between runs, whatever the
#: benchmark itself does.  The median and the 75th percentile fell in one
#: state or the other from run to run (ten-run spreads 0.24-0.33); the
#: slowest tenth of the batches is in the slow state in nearly every run,
#: so the 90th percentile repeats best (0.08-0.13).
UNIT_PCT = 90
TAIL_PCT = 95

#: A fresh interpreter importing the program and building both model
#: graphs: the set-up of the cold-compile workload.
_IMPORT_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]);"
    "import repro.core.compiler, repro.verify;"
    "from repro.graph import NETWORKS, compile_network;"
    "[NETWORKS[n]().builder() for n in sys.argv[2:]]"
)


def _compile_all():
    from repro.graph import NETWORKS, compile_network

    return [compile_network(NETWORKS[name]()) for name in NETWORK_NAMES]


def plan_counts(compiled) -> dict:
    """Deterministic facts of a set of compiled networks (exact-repeat)."""
    counts: dict = {"sim_cycles": 0, "plan_peak_bytes": 0, "codegen_insns": 0}
    for cn in compiled:
        plan = cn.plan
        cycles = plan.cycles_by_digest()
        counts["sim_cycles"] += plan.total_cycles()
        counts["plan_peak_bytes"] += plan.arena.planned_peak_bytes
        for digest, result in plan.programs.items():
            counts["codegen_insns"] += result.program.flat_count()
            counts[f"digest.{plan.name}.{digest[:16]}"] = program_digest(result)
        for i, step in enumerate(plan.steps):
            counts[f"cycles.{plan.name}.g{i}"] = cycles[step.digest]
    return counts


def plan_layer_metrics(compiled, counts: dict, out: Dict[str, float]) -> None:
    """Per-layer facts of the plans: per-step cycles and instruction total
    (taken from ``counts``, the :func:`plan_counts` of ``compiled``), pipe
    shares, arena peaks, dedup ratio and degraded compiles."""
    from repro.hw.isa import Pipe

    out.update({f"plan.{k[len('cycles.'):]}.cycles": v for k, v in counts.items()
                if k.startswith("cycles.")})
    out["codegen.insns"] = counts["codegen_insns"]
    instances = reuses = fallbacks = 0
    for cn in compiled:
        plan = cn.plan
        busy = {p: 0.0 for p in Pipe}
        total = 0
        for step in plan.steps:
            report = plan.programs[step.digest].simulate()
            total += report.total_cycles
            for p in Pipe:
                busy[p] += report.busy_cycles[p]
        for p in Pipe:
            out[f"sim.{plan.name}.busy_share.{p.name}"] = busy[p] / max(total, 1)
        out[f"plan.{plan.name}.arena_peak_bytes"] = plan.arena.planned_peak_bytes
        instances += len(plan.steps)
        reuses += cn.dedup_reuses
        fallbacks += sum(
            1 for e in plan.resilience.events if e.get("kind") in ("fallback", "gave_up")
        )
    out["graph.dedup_ratio"] = reuses / max(instances, 1)
    out["resilience.fallbacks"] = out.get("resilience.fallbacks", 0) + fallbacks


def _repeat_problems(workload: str, per_pass: List[dict]) -> List[str]:
    problems = []
    for i, counts in enumerate(per_pass[1:], start=1):
        if counts != per_pass[0]:
            diff = sorted(k for k in counts if counts[k] != per_pass[0].get(k))
            problems.append(f"compile {i} differs from compile 0 in {diff[:5]}")
    problems += check_repeat(workload, per_pass[0])
    return problems


# -- net_compile_cold -------------------------------------------------------------


def compile_setup_seconds() -> List[float]:
    """Wall time of fresh interpreters importing and building the graphs."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        # No timeout: with one, the wait polls in sleeps of up to 50 ms,
        # which rounded these ~0.4 s times to steps of 50 ms.
        subprocess.run(
            [sys.executable, "-c", _IMPORT_SNIPPET, SRC, *NETWORK_NAMES],
            check=True,
        )
        times.append(time.perf_counter() - t0)
    return times


def run_compile_cold(seconds: float, seed: int, private: str, tracer) -> dict:
    """Cold compile of both networks from an empty disk cache and cleared
    solver caches, then ``WARM_REPS`` warm in-process recompiles, repeated
    for ``seconds`` of timed work.  The networks are fixed, so ``seed`` only
    names the run."""
    from repro.poly.cache import clear_solver_caches
    from repro.verify import verify_network_plan

    setup = compile_setup_seconds()
    cold: List[float] = []
    warm: List[float] = []
    per_pass: List[dict] = []
    attempted = failed = 0
    problems: List[str] = []
    timed = 0.0
    last = None
    while timed < seconds or not cold:
        n = len(cold)
        fresh_cache(private, f"pass{n}")
        clear_solver_caches()
        gc.collect()  # every timed region starts from the same collector state
        tracer.set_tag(f"pass-{n}-cold")
        with tracer.measuring(), tracer.span("pass.cold"):
            t0 = time.perf_counter()
            compiled_cold = _compile_all()
            cold.append(time.perf_counter() - t0)
        timed += cold[-1]
        warm_results = []
        for k in range(WARM_REPS):
            clear_solver_caches()
            gc.collect()
            tracer.set_tag(f"pass-{n}-warm-{k}")
            with tracer.measuring(), tracer.span("pass.warm"):
                t0 = time.perf_counter()
                warm_results.append(_compile_all())
                warm.append(time.perf_counter() - t0)
            timed += warm[-1]
        tracer.set_tag(None)
        # The verifier sees the cold result and the first warm one; every
        # other warm result must repeat their counts and dump digests.
        for compiled in (compiled_cold, warm_results[0]):
            for cn in compiled:
                attempted += 1
                try:
                    verify_network_plan(cn.plan)
                except Exception as exc:  # noqa: BLE001 - any rejection counts
                    failed += 1
                    problems.append(f"{cn.plan.name}: verifier: {type(exc).__name__}: {exc}")
        for compiled in [compiled_cold] + warm_results:
            per_pass.append(plan_counts(compiled))
        last = compiled_cold, per_pass[-1 - WARM_REPS]  # the cold plans and their counts
    attempted += 1
    repeat = _repeat_problems("net_compile_cold", per_pass)
    if repeat:
        failed += 1
        problems += repeat

    m = Metrics()
    m.put("setup_s", median(setup), "s", len(setup))
    m.put("unit_ms", 1e3 * median(cold), "ms", len(cold))
    m.put("tail_ms", 1e3 * max(cold), "ms", len(cold))
    m.put("throughput_per_s", len(NETWORK_NAMES) / median(cold), "1/s", len(cold))
    m.put("sim_cycles", per_pass[0]["sim_cycles"], "cycles", len(per_pass))
    layer: Dict[str, float] = {"compile.warm_ms": 1e3 * median(warm)}
    plan_layer_metrics(*last, layer)
    return {
        "metrics": m,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "layer": layer,
        "info": {
            "plan_peak_bytes": per_pass[0]["plan_peak_bytes"],
            "codegen_insns": per_pass[0]["codegen_insns"],
            "passes": len(cold),
        },
    }


# -- net_replay -------------------------------------------------------------------


def run_replay(seconds: float, seed: int, private: str, tracer) -> dict:
    """Closed-loop replay of seeded batches of 8 on both prepared plans."""
    from repro.poly.cache import clear_solver_caches

    fresh_cache(private, "replay")
    clear_solver_caches()
    _compile_all()  # pre-warm the private disk cache, outside every timer

    setup: List[float] = []
    warm: List[float] = []
    prepare: List[float] = []
    prep_feeds: List[list] = []

    def setup_once():
        """Warm compile from the pre-warmed cache + plan preparation (the
        first replay), on fresh plan objects."""
        clear_solver_caches()
        gc.collect()
        t0 = time.perf_counter()
        compiled = _compile_all()
        t1 = time.perf_counter()
        if not prep_feeds:
            prep_feeds.extend(network_feeds(cn.plan, seed, i, 1) for i, cn in enumerate(compiled))
        for cn, feeds in zip(compiled, prep_feeds):
            cn.plan.replay(feeds)
        t2 = time.perf_counter()
        warm.append(t1 - t0)
        prepare.append(t2 - t1)
        setup.append(t2 - t0)
        return compiled

    compiled = setup_once()
    plans = [cn.plan for cn in compiled]

    # References on a few seeded feeds per network, outside every timer.
    feeds = [network_feeds(p, seed, i, REFERENCE_FEEDS) for i, p in enumerate(plans)]
    refs = [[scalar_reference(p, f) for f in fs] for p, fs in zip(plans, feeds)]

    rng = np.random.default_rng([seed, 7])
    batch_ms: List[List[float]] = [[] for _ in plans]
    attempted = failed = 0
    problems: List[str] = []
    timed = 0.0
    i = 0
    while timed < seconds or min(len(b) for b in batch_ms) < 2:
        if len(setup) < SETUP_REPS and timed >= seconds * len(setup) / SETUP_REPS:
            # Later set-up repetitions are spread over the run (outside
            # every batch timer) so their median is not one moment's.
            setup_once()
        net = i % len(plans)
        picks = rng.integers(0, REFERENCE_FEEDS, size=BATCH)
        batch = [feeds[net][k] for k in picks]
        tracer.set_tag(f"batch-{i}:{plans[net].name}")
        with tracer.measuring(), tracer.span("batch"):
            t0 = time.perf_counter()
            outs = plans[net].replay(batch)
            dt = time.perf_counter() - t0
        batch_ms[net].append(dt * 1e3)
        timed += dt
        for k, out in zip(picks, outs):
            attempted += 1
            if not outputs_match(out, refs[net][k]):
                failed += 1
                if len(problems) < 5:
                    problems.append(f"{plans[net].name} batch {i}: output differs from scalar reference")
        i += 1
    tracer.set_tag(None)
    counts = plan_counts(compiled)
    attempted += 1
    repeat = check_repeat("net_replay", counts)
    if repeat:
        failed += 1
        problems += repeat

    m = Metrics()
    m.put("setup_s", median(setup), "s", len(setup))
    samples = sum(map(len, batch_ms))
    m.put("unit_ms", sum(percentile(b, UNIT_PCT) for b in batch_ms), "ms", samples)
    m.put("tail_ms", sum(percentile(b, TAIL_PCT) for b in batch_ms), "ms", samples)
    m.put(
        "throughput_per_s",
        sum(BATCH * 1e3 / percentile(b, UNIT_PCT) for b in batch_ms),
        "1/s",
        samples,
    )
    m.put("sim_cycles", counts["sim_cycles"], "cycles", 1)
    layer: Dict[str, float] = {
        "plan.prepare_s": median(prepare),
        "compile.warm_ms": 1e3 * median(warm),
    }
    plan_layer_metrics(compiled, counts, layer)
    return {
        "metrics": m,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "layer": layer,
        "plans": plans,
        "info": {
            "plan_peak_bytes": counts["plan_peak_bytes"],
            "batches": [len(b) for b in batch_ms],
            "batch_p50_ms": [round(median(b), 3) for b in batch_ms],
        },
    }
