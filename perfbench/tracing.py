"""Span tracing installed from outside the program.

The traced run wraps the program's public functions and methods at each
layer boundary.  Module functions are wrapped at the name their caller
binds (``repro.core.frontend.lower``, not ``repro.ir.lower.lower``), and
methods on their class, so every call made through the normal code path
records a span: name, start, end, parent span, thread and a pass or
request tag.  Spans stay in memory and are written once, at the end, as
Chrome trace-event JSON (loadable in Perfetto or chrome://tracing).

A span's self time is its duration minus the part of it its child spans
cover.  Spans are recorded only while :meth:`Tracer.measuring` is
active, so set-up and output checks never leak into the layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: (module, attribute or Class.method, span name).  Wrapped where the
#: caller looks the name up, so each entry is one layer boundary.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.core.compiler", "build", "compile.build"),
    ("repro.core.compiler", "run_frontend", "frontend.run"),
    ("repro.core.frontend", "lower", "frontend.lower"),
    ("repro.core.frontend", "compute_dependences", "frontend.deps"),
    ("repro.core.frontend", "conservative_clustering", "frontend.cluster"),
    ("repro.sched.scheduler", "PolyScheduler.schedule_kernel", "frontend.schedule"),
    ("repro.poly.ilp", "IlpProblem.minimize", "poly.ilp"),
    ("repro.poly.ilp", "IlpProblem.batch_minimize", "poly.ilp"),
    ("repro.poly.fm", "project_onto", "poly.fm"),
    ("repro.poly.maps", "project_onto", "poly.fm"),
    ("repro.poly.sets", "project_onto", "poly.fm"),
    ("repro.tiling.reverse", "project_onto", "poly.fm"),
    ("repro.core.compiler", "backend_build", "backend"),
    ("repro.hw.simulator", "Simulator.run", "hw.simulate"),
    ("repro.core.diskcache", "DiskCache.get", "diskcache.get"),
    ("repro.core.diskcache", "DiskCache.put", "diskcache.put"),
    ("repro.graph.plan", "NetworkPlan.replay", "graph.replay"),
    ("repro.codegen.program_exec", "ProgramReplay.run", "exec.replay"),
    ("repro.service.core", "CompileService.submit", "service.submit"),
)

#: Spans whose perf.report() stage of the same name times the same call.
PERF_PAIRED = ("frontend.lower", "frontend.deps", "frontend.cluster", "frontend.schedule")
#: perf.report() stages nested inside ``backend_build``.
PERF_BACKEND_STAGES = ("backend.tile_select", "backend.tile_fit", "backend.codegen")

#: Cross-check tolerance between span totals and perf stage totals.
CROSSCHECK_REL = 0.05
CROSSCHECK_ABS_S = 0.005


class Tracer:
    """In-memory span recorder.  Install once per process."""

    def __init__(self):
        self.spans: List[tuple] = []
        self.active = False
        self._tls = threading.local()
        self._ids = itertools.count(1)
        self._installed: List[Tuple[object, str, object]] = []
        self._perf_delta: Dict[str, float] = defaultdict(float)
        self._counter_delta: Dict[str, float] = defaultdict(float)
        self.measured_s = 0.0

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def set_tag(self, tag: Optional[str]) -> None:
        """Tag every span this thread opens from now on (pass/request id)."""
        self._tls.tag = tag

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)

        traced.__wrapped_by_bench__ = True
        return traced

    @contextmanager
    def span(self, name: str):
        """Record one span around the body (a wrapped call, or a pass,
        batch or request opened by the benchmark itself)."""
        if not self.active:
            yield
            return
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            stack.pop()
            self.spans.append(
                (sid, parent, name, t0, t1, threading.get_ident(),
                 getattr(self._tls, "tag", None))
            )

    def install(self, extra: Tuple[Tuple[str, str, object], ...] = ()) -> None:
        """Wrap every target.  A missing target is an error: a layer whose
        boundary moved would otherwise report a silent zero."""
        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            owner, leaf = module, attr
            if "." in attr:
                cls_name, leaf = attr.split(".")
                owner = getattr(module, cls_name, None)
            fn = getattr(owner, leaf, None) if owner is not None else None
            if fn is None:
                raise RuntimeError(f"trace target {module_name}.{attr} not found")
            if getattr(fn, "__wrapped_by_bench__", False):
                continue
            self._installed.append((owner, leaf, fn))
            setattr(owner, leaf, self._wrap(name, fn))
        for owner, leaf, wrapper_factory in extra:
            fn = getattr(owner, leaf, None)
            if fn is None:
                continue  # optional wrappers only add tags to spans
            self._installed.append((owner, leaf, fn))
            setattr(owner, leaf, wrapper_factory(fn))

    def uninstall(self) -> None:
        for owner, leaf, fn in reversed(self._installed):
            setattr(owner, leaf, fn)
        self._installed.clear()

    @contextmanager
    def measuring(self):
        """Record spans, and collect perf/cache counter deltas, inside."""
        before = _counter_snapshot()
        self.active = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.active = False
            self.measured_s += time.perf_counter() - t0
            after = _counter_snapshot()
            for key, value in after.items():
                delta = value - before.get(key, 0.0)
                if key.startswith("perf:"):
                    self._perf_delta[key[5:]] += delta
                else:
                    self._counter_delta[key] += delta

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> Dict[int, float]:
        """Span id -> self time (duration minus the union of its children)."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for sid, parent, _n, t0, t1, _tid, _tag in self.spans:
            if parent:
                children[parent].append((t0, t1))
        out: Dict[int, float] = {}
        for sid, _p, _n, t0, t1, _tid, _tag in self.spans:
            covered = 0.0
            cur_lo = cur_hi = None
            for lo, hi in sorted(children.get(sid, ())):
                lo, hi = max(lo, t0), min(hi, t1)
                if hi <= lo:
                    continue
                if cur_hi is None or lo > cur_hi:
                    if cur_hi is not None:
                        covered += cur_hi - cur_lo
                    cur_lo, cur_hi = lo, hi
                else:
                    cur_hi = max(cur_hi, hi)
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            out[sid] = (t1 - t0) - covered
        return out

    def by_name(self) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        selfs = self.self_times()
        agg: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        for sid, _p, name, t0, t1, _tid, _tag in self.spans:
            row = agg[name]
            row["calls"] += 1
            row["total_s"] += t1 - t0
            row["self_s"] += selfs[sid]
        return dict(agg)

    def counter_delta(self) -> Dict[str, float]:
        return dict(self._counter_delta)

    def crosscheck(self) -> List[str]:
        """Disagreements between span totals and perf.report() stages."""
        agg = self.by_name()
        perf = self._perf_delta
        problems = []

        def close(a: float, b: float) -> bool:
            return abs(a - b) <= CROSSCHECK_REL * max(a, b) + CROSSCHECK_ABS_S

        for name in PERF_PAIRED:
            got = agg.get(name, {}).get("total_s", 0.0)
            want = perf.get(name, 0.0)
            if not close(got, want):
                problems.append(f"{name}: spans {got:.4f}s vs perf {want:.4f}s")
        backend = agg.get("backend", {}).get("total_s", 0.0)
        inner = sum(perf.get(s, 0.0) for s in PERF_BACKEND_STAGES)
        if inner > backend * (1 + CROSSCHECK_REL) + CROSSCHECK_ABS_S:
            problems.append(
                f"backend: perf sub-stages {inner:.4f}s exceed spans {backend:.4f}s"
            )
        return problems

    def write_chrome(self, path: str) -> int:
        """Write the spans as Chrome trace-event JSON; returns event count."""
        if not self.spans:
            base = 0.0
        else:
            base = min(s[3] for s in self.spans)
        tids: Dict[int, int] = {}
        events = []
        for sid, parent, name, t0, t1, tid, tag in sorted(self.spans, key=lambda s: s[3]):
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": round((t0 - base) * 1e6, 3),
                    "dur": round((t1 - t0) * 1e6, 3),
                    "pid": os.getpid(),
                    "tid": tids.setdefault(tid, len(tids) + 1),
                    "args": {"id": sid, "parent": parent, "tag": tag},
                }
            )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        with open(tmp, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
        os.replace(tmp, path)
        return len(events)


class NullTracer:
    """Stands in for :class:`Tracer` in untraced runs: records nothing."""

    active = False

    def install(self, extra=()) -> None:
        pass

    def set_tag(self, tag: Optional[str]) -> None:
        pass

    @contextmanager
    def span(self, name: str):
        yield

    @contextmanager
    def measuring(self):
        yield


def _counter_snapshot() -> Dict[str, float]:
    """The program's own counters, flattened (perf stages, caches, exec)."""
    from repro.core.diskcache import disk_cache_stats
    from repro.poly.cache import solver_cache_stats
    from repro.runtime.vectorized import exec_stats
    from repro.tools import perf

    report = perf.report()
    snap = {f"perf:{k}": v["seconds"] for k, v in report["stages"].items()}
    for name, s in solver_cache_stats().items():
        snap[f"solver.{name}.hits"] = s["hits"]
        snap[f"solver.{name}.misses"] = s["misses"]
    d = disk_cache_stats()
    snap["diskcache.hits"] = d.get("hits", 0)
    snap["diskcache.misses"] = d.get("misses", 0)
    e = exec_stats()
    for key in ("program_replays", "vectorized", "scalar_fallback", "scalar_small"):
        snap[f"exec.{key}"] = e.get(key, 0)
    return snap


def check_chrome_trace(path: str) -> int:
    """Validate a written trace file the way a trace viewer parses it."""
    with open(path) as fh:
        data = json.load(fh)
    events = data["traceEvents"]
    for ev in events:
        if ev["ph"] != "X" or ev["dur"] < 0 or ev["ts"] < 0:
            raise ValueError(f"bad trace event {ev!r}")
        if not isinstance(ev["name"], str) or not isinstance(ev["tid"], int):
            raise ValueError(f"bad trace event {ev!r}")
    return len(events)


def step_replay_ms(tracer: Tracer, network: str, n_steps: int) -> List[float]:
    """Median ms per plan step, from the program replays nested in each
    ``NetworkPlan.replay`` of ``network`` (steps run in schedule order
    once per inference)."""
    plan_spans = {
        s[0] for s in tracer.spans
        if s[2] == "graph.replay" and (s[6] or "").endswith(f":{network}")
    }
    children: Dict[int, List[tuple]] = defaultdict(list)
    for s in tracer.spans:
        if s[2] == "exec.replay" and s[1] in plan_spans:
            children[s[1]].append(s)
    per_step: List[List[float]] = [[] for _ in range(n_steps)]
    for kids in children.values():
        for k, s in enumerate(sorted(kids, key=lambda s: s[3])):
            per_step[k % n_steps].append((s[4] - s[3]) * 1e3)
    out = []
    for xs in per_step:
        xs.sort()
        out.append(xs[len(xs) // 2] if xs else 0.0)
    return out

