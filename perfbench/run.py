"""Run one workload of the repository benchmark and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload net_compile_cold --seed 0 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json;
``--trace 1`` is a separate run that wraps the program's layer
boundaries with spans and reports the per-layer metrics instead, writes
a Chrome trace-event file under ``.bench_out/`` and cross-checks the span
totals against the program's own ``perf.report()``.  The last line of
standard output is always one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (name -> value and unit).

Exit status: 0 with a result; 2 when the benchmark cannot run here
(missing program source, a forbidden environment switch); 3 when the run
is invalid (for example the load generator fell behind its schedule).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
import traceback

_STARTED = time.perf_counter()
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import (  # noqa: E402  (path set just above)
    OUT_ROOT,
    BenchError,
    cleanup,
    host_info,
    load_spec,
    peak_rss_mb,
    prepare_environment,
)


def _workloads():
    from wl_network import run_compile_cold, run_replay
    from wl_serve import run_serve

    return {
        "net_compile_cold": run_compile_cold,
        "net_replay": run_replay,
        "serve_mixed": run_serve,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def layer_metrics(tracer, result: dict) -> dict:
    """Per-layer values from spans, program counters and the workload."""
    from tracing import step_replay_ms

    agg = tracer.by_name()
    counters = tracer.counter_delta()

    def self_s(name: str) -> float:
        return agg.get(name, {}).get("self_s", 0.0)

    def calls(name: str) -> int:
        return int(agg.get(name, {}).get("calls", 0))

    def ratio(hits: str, misses: str) -> float:
        h, m = counters.get(hits, 0), counters.get(misses, 0)
        return h / (h + m) if h + m else 0.0

    out = {
        "frontend.lower.self_s": self_s("frontend.lower"),
        "frontend.deps.self_s": self_s("frontend.deps"),
        "frontend.cluster.self_s": self_s("frontend.cluster"),
        "frontend.schedule.self_s": self_s("frontend.schedule"),
        "frontend.calls": calls("frontend.run"),
        "poly.ilp.calls": calls("poly.ilp"),
        "poly.ilp.self_s": self_s("poly.ilp"),
        "poly.ilp.cache_hit_ratio": ratio("solver.ilp.hits", "solver.ilp.misses"),
        "poly.fm.calls": calls("poly.fm"),
        "poly.fm.self_s": self_s("poly.fm"),
        "poly.fm.cache_hit_ratio": ratio("solver.fm.hits", "solver.fm.misses"),
        "backend.self_s": self_s("backend"),
        "backend.calls": calls("backend"),
        "hw.simulate.calls": calls("hw.simulate"),
        "hw.simulate.self_s": self_s("hw.simulate"),
        "diskcache.get.calls": calls("diskcache.get"),
        "diskcache.get.self_ms": 1e3 * self_s("diskcache.get"),
        "diskcache.put.calls": calls("diskcache.put"),
        "diskcache.put.self_ms": 1e3 * self_s("diskcache.put"),
        "diskcache.hit_ratio": ratio("diskcache.hits", "diskcache.misses"),
        "exec.program_replays": counters.get("exec.program_replays", 0),
        "exec.vectorized_stmts": counters.get("exec.vectorized", 0),
        "exec.scalar_fallbacks": counters.get("exec.scalar_fallback", 0),
    }
    out.update(result.get("layer", {}))
    for plan in result.get("plans", ()):
        for i, ms in enumerate(step_replay_ms(tracer, plan.name, len(plan.steps))):
            out[f"plan.{plan.name}.g{i}.replay_ms"] = ms
    return out


def trace_summary(workload: str, tracer) -> list:
    """Human-readable lines: top self times and the layer separation."""
    agg = tracer.by_name()
    lines = []
    top = sorted(agg.items(), key=lambda kv: -kv[1]["self_s"])[:12]
    lines.append("# self time by span (top 12):")
    for name, row in top:
        lines.append(
            f"#   {name:<20} calls {int(row['calls']):>7}  self {row['self_s']:9.4f} s"
            f"  total {row['total_s']:9.4f} s"
        )
    front = sum(v["self_s"] for k, v in agg.items() if k.startswith(("frontend.", "poly.")))
    replay = sum(v["self_s"] for k, v in agg.items() if k in ("exec.replay", "graph.replay"))
    execs = agg.get("exec.replay", {}).get("self_s", 0.0)
    if workload == "net_compile_cold":
        cold = agg.get("pass.cold", {}).get("total_s", 0.0)
        lines.append(
            f"# sched+poly self time {front:.3f} s = {front / max(cold, 1e-9):.1%} of cold "
            f"passes ({cold:.3f} s); replay self time {replay:.6f} s"
        )
    elif workload == "net_replay":
        batches = agg.get("batch", {}).get("total_s", 0.0)
        lines.append(
            f"# program_exec+runtime self time {execs:.3f} s = {execs / max(batches, 1e-9):.1%} "
            f"of batch time ({batches:.3f} s); front-end self time {front:.6f} s"
        )
    lines.append(
        f"# {len(tracer.spans)} spans over {tracer.measured_s:.3f} s measured; tracing "
        "overhead vs an untraced run of this seed: python3 perfbench/overhead.py"
    )
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    from tracing import NullTracer, Tracer, check_chrome_trace

    private = None
    tracer = Tracer() if args.trace else NullTracer()
    try:
        private = prepare_environment(args.workload)
        tracer.install()
        result = _workloads()[args.workload](args.seconds, args.seed, private, tracer)
    except BenchError as exc:
        print(f"benchmark not valid: {exc}", file=sys.stderr)
        return 3 if private else 2
    finally:
        if args.trace:
            tracer.uninstall()
        cleanup(private)

    m = result["metrics"]
    attempted, failed = result["attempted"], result["failed"]
    m.put("ok_ratio", 1.0 - failed / max(attempted, 1), "ratio", attempted)
    m.put("peak_rss_mb", peak_rss_mb(), "MiB", 1)

    info = host_info()
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"# host {json.dumps(info, sort_keys=True)}")
    print(f"# details {json.dumps(result.get('info', {}), sort_keys=True)}")
    for problem in result["problems"]:
        print(f"# FAILED: {problem}")
    for note in result.get("notes", ()):
        print(f"# NOTE: {note}")
    print(m.table())

    if args.trace:
        # The traced run's own end-to-end numbers; overhead.py compares
        # them with an untraced run of the same seed.
        print(f"# traced end_to_end {json.dumps({k: v['value'] for k, v in m.rows.items()})}")
        kind, wanted = "per_layer", spec["per_layer"]
        values = layer_metrics(tracer, result)
        problems = tracer.crosscheck()
        for p in problems:
            print(f"# FAILED cross-check with perf.report(): {p}")
        failed += len(problems)
        attempted += 1
        path = os.path.join(OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
        events = tracer.write_chrome(path)
        check_chrome_trace(path)
        print(f"# chrome trace: {path} ({events} events)")
        for line in trace_summary(args.workload, tracer):
            print(line)
    else:
        kind, wanted = "end_to_end", spec["end_to_end"]
        values = {name: m.get(name) for name in m.rows}

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name not in values:
            if kind == "end_to_end":
                print(f"benchmark not valid: metric {name} not measured", file=sys.stderr)
                return 3
            values[name] = 0.0  # a layer this workload does not use
        metrics[name] = {"value": float(values[name]), "unit": entry["unit"]}
    if args.trace:
        lines = [f"{'per-layer metric':<42}{'value':>16}  unit"]
        lines += [f"{k:<42}{v['value']:>16.6g}  {v['unit']}" for k, v in metrics.items()]
        print("\n".join(lines))
    print(f"# elapsed {time.perf_counter() - _STARTED:.1f} s")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - no result line on a crash
        traceback.print_exc()
        sys.exit(4)
