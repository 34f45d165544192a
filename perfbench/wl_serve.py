"""``serve_mixed``: an open-loop stream of akgd wire payloads.

An in-process :class:`repro.service.CompileService` (workers = nproc)
is fed by one generator thread on a fixed schedule; the main thread
observes completions.  Payloads go through ``wire.request_from_json``
and results through ``wire.result_to_json`` + ``json.dumps``, the work
the daemon does per line.  Latency runs from each request's *due* time,
so a stalled generator or service shows up in the latency of every
request that should have been sent meanwhile.

The offered load is fixed here, never calibrated at run time, so two
commits see identical traffic for one seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import threading
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from checks import check_repeat
from common import BenchError, Metrics, fresh_cache, median, percentile

#: Requests per second during the nominal phase: about a quarter of the
#: service's capacity on a 2-vCPU host (``throughput_per_s``, 380-420
#: completions/s when this benchmark was defined), so the nominal phase
#: measures latency below saturation.  A constant, never calibrated.
NOMINAL_RPS = 100
#: Share of the run's seconds spent at the nominal rate; the rest walks
#: the ladder.
NOMINAL_SHARE = 2 / 3
#: Offered rates after the nominal phase, each with its share of the
#: ladder's seconds.  The last one is far above what the service sustains
#: here, so its completion rate measures capacity; it gets most of the
#: time, because a short overload is decided by a few slow builds.
LADDER = ((200, 0.2), (600, 0.8))
#: A request slower than this (from its due time) misses.  Cold builds of
#: the demo kernels take 30 ms to over a second, so the limit sits above
#: the cheap ones.
LATENCY_LIMIT_MS = 500.0
#: The run is invalid when the generator's p99 lateness at the nominal
#: rate exceeds this: its own delay would then be a large part of the
#: latency limit, and the offered load no longer what it claims.
GEN_LATE_LIMIT_MS = 200.0
#: At the nominal rate the generator sleeps until this long before a
#: request is due and busy-waits the rest, so its oversleeping does not
#: become latency.  The ladder's rungs only sleep: at 600 req/s the
#: busy-wait would hold the interpreter lock most of the time and take
#: it from the workers whose capacity the rung measures.
SPIN_S = 0.002
#: Traffic mix per block of 100 requests (exact counts, seeded order):
#: hot repeats, shape-class replays, novel builds.  An assumption: the
#: repository holds no record of real akgd traffic (its only recorded
#: service load, the serve suite of ``tools/bench.py``, repeats each
#: kernel 12 times, 92% repeats), so revisit the mix once one exists.
#: Hot repeats are memo hits answered at admission and make up the
#: median latency (``unit_ms``); novel builds (cold compiles) and
#: replays (cache read plus execution) are what ``tail_ms`` (p99) and
#: ``throughput_per_s`` see.
MIX = (("hot", 87), ("replay", 10), ("novel", 3))
#: Set-up (service start + warm-up) is repeated this many times, half
#: before and half after the traffic; ``setup_s`` is the median.
SETUP_REPS = 6
#: How long the collector waits for stragglers after the schedule ends.
DRAIN_TIMEOUT_S = 60.0

#: Compiled once in set-up and then requested again and again.
HOT_SET: Tuple[dict, ...] = (
    {"op": "relu", "shape": [16, 64]},
    {"op": "relu", "shape": [32, 32]},
    {"op": "add", "shape": [16, 64]},
    {"op": "add", "shape": [8, 128]},
    {"op": "softmax", "shape": [16, 64]},
    {"op": "matmul", "shape": [16, 16, 16]},
    {"op": "matmul", "shape": [32, 32, 32]},
)
#: Shape classes (symbolic batch) replayed at varying batch sizes.
REPLAY_CLASSES: Tuple[dict, ...] = (
    {"op": "relu", "shape": [8, 64], "batch_max": 8},
    {"op": "add", "shape": [8, 64], "batch_max": 8},
    {"op": "softmax", "shape": [8, 64], "batch_max": 8},
    {"op": "matmul", "shape": [8, 16, 16], "batch_max": 8},
)
#: Novel builds: element-wise kernels at shapes no other request uses.
#: They are taken in one fixed order, whatever the seed: phases hold
#: whole blocks of 100 requests, so each phase builds the same kernels in
#: every run (the seed only places them).  Which shapes a phase's few
#: dozen builds get otherwise moved its p99 by a quarter between seeds.
NOVEL_OPS = ("relu", "add")
NOVEL_ROWS = range(2, 49)
NOVEL_COLS = range(16, 129, 8)


def _payload(base: dict, **extra) -> dict:
    out = dict(base)
    out.update(extra)
    return out


class _Stream:
    """The seeded request stream: (kind, payload) pairs, never repeating a
    novel shape within one run."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 11])
        hot_shapes = {(p["op"], tuple(p["shape"])) for p in HOT_SET}
        novel = [
            (op, (r, c))
            for op in NOVEL_OPS
            for r in NOVEL_ROWS
            for c in NOVEL_COLS
            if (op, (r, c)) not in hot_shapes
        ]
        order = np.random.default_rng(11).permutation(len(novel))
        self.novel = [novel[i] for i in order]
        self.block: List[str] = []

    def next(self) -> Tuple[str, dict]:
        if not self.block:
            block = [kind for kind, count in MIX for _ in range(count)]
            self.block = [block[i] for i in self.rng.permutation(len(block))]
        kind = self.block.pop()
        if kind == "hot":
            return kind, dict(HOT_SET[int(self.rng.integers(len(HOT_SET)))])
        if kind == "replay":
            cls = REPLAY_CLASSES[int(self.rng.integers(len(REPLAY_CLASSES)))]
            batch = int(self.rng.integers(1, cls["batch_max"] + 1))
            shape = [batch] + list(cls["shape"][1:])
            return kind, _payload(
                cls, kind="replay", shape=shape, seed=int(self.rng.integers(1 << 30))
            )
        if not self.novel:
            raise BenchError("novel kernel shapes exhausted; lower the rate")
        op, shape = self.novel.pop()
        return kind, {"op": op, "shape": list(shape)}


class _Record:
    __slots__ = (
        "idx", "kind", "payload", "due", "sent", "decode_s", "request",
        "ticket", "done", "encode_s", "response", "result", "error",
    )

    def __init__(self, idx: int, kind: str, payload: dict, due: float):
        self.idx, self.kind, self.payload, self.due = idx, kind, payload, due
        self.sent = self.decode_s = self.encode_s = 0.0
        self.request = None  # kept alive so its id() stays unique
        self.ticket = None
        self.done: Optional[float] = None
        self.response: Optional[dict] = None
        self.result = None
        self.error: Optional[str] = None

    @property
    def latency_ms(self) -> float:
        return (self.done - self.due) * 1e3


def _run_phase(svc, stream: _Stream, rate: float, seconds: float, tracer,
               first_idx: int, request_of: Dict[int, int], spin: float = 0.0):
    """Offer ``rate`` req/s for ``seconds``, busy-waiting the last ``spin``
    seconds before each due time; return the finished records."""
    from repro.core.errors import ReproError
    from repro.service.wire import request_from_json, result_to_json

    count = max(1, int(round(rate * seconds)))
    gc.collect()  # every phase starts from the same collector state
    start = time.perf_counter() + 0.05
    records = []
    for i in range(count):
        kind, payload = stream.next()
        records.append(_Record(first_idx + i, kind, json.dumps(payload), start + i / rate))
    pending: Dict[int, _Record] = {}
    lock = threading.Lock()
    gen_done = threading.Event()
    crashed: List[BaseException] = []

    def finish(rec: _Record) -> None:
        """Encode the reply as the daemon would; that ends the latency."""
        result = rec.ticket.result()
        tracer.set_tag(f"req-{rec.idx}")
        with tracer.span("wire.encode"):
            t0 = time.perf_counter()
            line = json.dumps(result_to_json(result))
            rec.done = time.perf_counter()
            rec.encode_s = rec.done - t0
        rec.response = json.loads(line)
        rec.result = result

    def generate() -> None:
        try:
            for rec in records:
                delay = rec.due - time.perf_counter()
                if delay > spin:
                    time.sleep(delay - spin)
                while time.perf_counter() < rec.due:
                    pass
                rec.sent = time.perf_counter()
                tracer.set_tag(f"req-{rec.idx}")
                with tracer.span("wire.decode"):
                    t0 = time.perf_counter()
                    try:
                        rec.request = request_from_json(json.loads(rec.payload))
                    except ReproError as exc:
                        rec.error = f"decode: {exc}"
                    rec.decode_s = time.perf_counter() - t0
                if rec.request is not None:
                    request_of[id(rec.request)] = rec.idx
                    try:
                        rec.ticket = svc.submit(rec.request)
                    except ReproError as exc:
                        rec.error = f"refused: {type(exc).__name__}: {exc}"
                if rec.ticket is None:
                    rec.done = time.perf_counter()
                elif rec.ticket.done():
                    finish(rec)  # answered at admission (memo): reply at once
                else:
                    with lock:
                        pending[rec.idx] = rec
        except BaseException as exc:  # re-raised by the main thread below
            crashed.append(exc)
        finally:
            gen_done.set()

    thread = threading.Thread(target=generate, name="bench-generator", daemon=True)
    thread.start()
    deadline = None
    while True:
        with lock:
            items = list(pending.values())
        progressed = False
        for rec in items:
            if not rec.ticket.done():
                continue
            progressed = True
            finish(rec)
            with lock:
                del pending[rec.idx]
        if gen_done.is_set():
            with lock:
                if not pending:
                    break
            if deadline is None:
                deadline = time.perf_counter() + DRAIN_TIMEOUT_S
            elif time.perf_counter() > deadline:
                raise BenchError(f"{len(pending)} requests never completed")
        if not progressed:
            time.sleep(0.0005)
    thread.join(timeout=DRAIN_TIMEOUT_S)
    if thread.is_alive():
        raise BenchError("generator thread did not finish")
    if crashed:
        raise BenchError(f"generator crashed: {crashed[0]!r}") from crashed[0]
    tracer.set_tag(None)
    return records


def _tag_worker_spans(tracer, request_of: Dict[int, int]):
    """Wrapper factory for CompileService._execute: tags the worker
    thread's spans with the request they serve."""

    def factory(fn):
        def execute(self, entry, worker_name):
            idx = request_of.get(id(entry.request))
            tracer.set_tag(None if idx is None else f"req-{idx}")
            try:
                return fn(self, entry, worker_name)
            finally:
                tracer.set_tag(None)

        return execute

    return factory


def _warm_up(svc) -> Dict[str, dict]:
    """Compile the hot set and one replay per shape class, one request at
    a time (so the time does not depend on how the workers interleave);
    return the hot set's wire responses keyed by payload."""
    from repro.service.wire import request_from_json, result_to_json

    payloads = [dict(p) for p in HOT_SET] + [
        _payload(c, kind="replay", seed=0) for c in REPLAY_CLASSES
    ]
    out = {}
    for p in payloads:
        response = result_to_json(svc.submit(request_from_json(p)).result(timeout=120))
        if not response["ok"]:
            raise BenchError(f"warm-up request {p} failed: {response.get('error')}")
        out[json.dumps(p, sort_keys=True)] = response
    return out


class ReplayReference:
    """Scalar-interpreter outputs for replay requests (memoized)."""

    def __init__(self):
        self._memo: Dict[tuple, str] = {}

    def digest(self, payload: dict, inputs: Dict[str, np.ndarray]) -> str:
        key = (payload["op"], tuple(payload["shape"]), payload["seed"])
        if key not in self._memo:
            from repro.ir.lower import lower
            from repro.runtime.reference import evaluate_kernel
            from repro.service.wire import demo_kernel

            kernel = lower(demo_kernel(payload["op"], payload["shape"]), "reference")
            out = evaluate_kernel(kernel, inputs, engine="scalar")
            (array,) = out.values()
            self._memo[key] = hashlib.sha256(np.ascontiguousarray(array).tobytes()).hexdigest()
        return self._memo[key]


def _check(records: List[_Record], hot: Dict[str, dict], reference: ReplayReference) -> Dict[int, str]:
    """Request index -> what is wrong with its response (empty: all right)."""
    problems: Dict[int, str] = {}
    for rec in records:
        resp = rec.response
        if rec.error:
            problems[rec.idx] = rec.error
        elif not resp.get("ok"):
            problems[rec.idx] = f"error {resp.get('error', {}).get('type')}"
        elif resp.get("degraded"):
            problems[rec.idx] = "degraded compile"
        elif rec.kind == "hot":
            want = hot[json.dumps(json.loads(rec.payload), sort_keys=True)]
            if resp["program_sha256"] != want["program_sha256"] or resp["cycles"] != want["cycles"]:
                problems[rec.idx] = "hot program differs from warm-up"
        elif rec.kind == "replay":
            payload = json.loads(rec.payload)
            got = resp["outputs"]["out"]["sha256"]
            if got != reference.digest(payload, rec.result.value["inputs"]):
                problems[rec.idx] = "replay differs from scalar reference"
    return problems


def run_serve(seconds: float, seed: int, private: str, tracer) -> dict:
    from repro.poly.cache import clear_solver_caches
    from repro.service import CompileService

    workers = os.cpu_count() or 1
    request_of: Dict[int, int] = {}  # id(ServiceRequest) -> request index
    tracer.install(extra=((CompileService, "_execute", _tag_worker_spans(tracer, request_of)),))

    setup: List[float] = []
    digests: Dict[str, set] = {}
    close_errors: List[str] = []

    def start(rep: int):
        """One set-up: service start + warm-up from an empty cache."""
        fresh_cache(private, f"serve{rep}")
        clear_solver_caches()
        gc.collect()
        t0 = time.perf_counter()
        svc = CompileService(workers=workers)
        hot = _warm_up(svc)
        setup.append(time.perf_counter() - t0)
        for key, response in hot.items():
            digests.setdefault(key, set()).add(response["program_sha256"])
        return svc, hot

    def close(svc) -> None:
        try:
            svc.close()
        except Exception as exc:  # noqa: BLE001 - a failed shutdown is a failure, not worked around
            close_errors.append(f"CompileService.close: {type(exc).__name__}: {exc}")

    # Half the set-ups run before the traffic (the last one serves it) and
    # half after it, so their median is not one moment's host speed.
    svc, hot = start(0)
    for rep in range(1, SETUP_REPS // 2):
        close(svc)
        svc, hot = start(rep)

    stream = _Stream(seed)
    before = svc.stats()
    nominal_s = seconds * NOMINAL_SHARE
    phases: List[Tuple[float, List[_Record]]] = []
    try:
        with tracer.measuring():
            records = _run_phase(
                svc, stream, NOMINAL_RPS, nominal_s, tracer, 0, request_of, spin=SPIN_S
            )
            phases.append((NOMINAL_RPS, records))
            for rate, share in LADDER:
                records = _run_phase(
                    svc, stream, rate, (seconds - nominal_s) * share, tracer,
                    sum(len(r) for _, r in phases), request_of,
                )
                phases.append((rate, records))
        after = svc.stats()
    finally:
        close(svc)
    for rep in range(SETUP_REPS // 2, SETUP_REPS):
        close(start(rep)[0])
    # Each set-up compiles the same kernels from an empty cache; a kernel
    # whose program dump differs between them was built nondeterministically
    # (cycles are compared across runs below).
    unstable = sorted(key for key, shas in digests.items() if len(shas) > 1)

    everything = [rec for _, recs in phases for rec in recs]
    reference = ReplayReference()
    problems = _check(everything, hot, reference)
    bad = set(problems)
    messages = [f"request {i}: {why}" for i, why in sorted(problems.items())]
    repeat = check_repeat(
        "serve_mixed", {key: r.get("cycles") for key, r in sorted(hot.items())}
    )
    messages += repeat + close_errors
    failed = len(bad) + (1 if repeat else 0) + len(close_errors)
    nominal = phases[0][1]
    lat = [r.latency_ms for r in nominal]
    late = [(r.sent - r.due) * 1e3 for r in nominal if r.sent]
    served = [(r.done - r.sent) * 1e3 for r in nominal if r.sent]
    gen_late_p99 = percentile(late, 99)
    if gen_late_p99 > GEN_LATE_LIMIT_MS:
        raise BenchError(
            f"generator fell behind: p99 lateness {gen_late_p99:.1f} ms > "
            f"{GEN_LATE_LIMIT_MS} ms; the offered load was not what it claims"
        )
    good = [r for r in nominal if r.idx not in bad and r.latency_ms <= LATENCY_LIMIT_MS]
    top = phases[-1][1]
    capacity = sum(1 for r in top if r.idx not in bad) / (
        max(r.done for r in top) - min(r.due for r in top)
    )

    m = Metrics()
    m.put("setup_s", median(setup), "s", len(setup))
    m.put("unit_ms", percentile(lat, 50), "ms", len(lat))
    m.put("tail_ms", percentile(lat, 99), "ms", len(lat))
    m.put("throughput_per_s", capacity, "1/s", len(top))
    m.put("sim_cycles", sum(r["cycles"] for r in hot.values() if r.get("cycles")), "cycles", len(HOT_SET))

    executed = [r.result for r in everything if r.result is not None and not r.result.cached]
    submitted = max(after["submitted"] - before["submitted"], 1)
    layer = {
        "service.queue_wait_ms.p50": _pct([x.queue_seconds * 1e3 for x in executed], 50),
        "service.queue_wait_ms.p99": _pct([x.queue_seconds * 1e3 for x in executed], 99),
        "service.run_ms.p50": _pct([x.run_seconds * 1e3 for x in executed], 50),
        "service.run_ms.p99": _pct([x.run_seconds * 1e3 for x in executed], 99),
        "service.coalesce_ratio": (after["coalesced"] - before["coalesced"]) / submitted,
        "service.memo_hit_ratio": (after["memo_hits"] - before["memo_hits"]) / submitted,
        "service.shed": sum(1 for r in everything if r.error and r.error.startswith("refused")),
        "wire.decode_ms": median([r.decode_s * 1e3 for r in everything]),
        "wire.encode_ms": median([r.encode_s * 1e3 for r in everything if r.response]),
        "serve.gen_late_ms.p50": percentile(late, 50),
        "serve.gen_late_ms.p99": gen_late_p99,
        "serve.sent_to_done_ms.p50": percentile(served, 50),
        "serve.goodput_rps": len(good) / (len(nominal) / NOMINAL_RPS),
        "serve.sustained_rps": _sustained(phases, bad),
        "resilience.fallbacks": sum(
            1 for r in everything if r.response and r.response.get("degraded")
        ),
        "service.unstable_dumps": len(unstable),
    }
    rungs = [
        f"{rate} req/s: {len(recs)} sent, p99 {percentile([r.latency_ms for r in recs], 99):.1f} ms"
        f" -> {'pass' if _rung_passes(recs, bad) else 'fail'}"
        for rate, recs in phases
    ]
    return {
        "metrics": m,
        "attempted": len(everything) + 1 + SETUP_REPS,  # + the exact-repeat check and each shutdown
        "failed": failed,
        "problems": messages[:10],
        "notes": [
            f"program dump of {key} differed between set-up repetitions "
            "(same cycles): its builds are not byte-deterministic"
            for key in unstable
        ],
        "layer": layer,
        "info": {
            "requests": len(everything),
            "nominal_requests": len(nominal),
            "kinds": {k: sum(1 for r in nominal if r.kind == k) for k, _ in MIX},
            "ladder": rungs,
            "goodput_rps": round(layer["serve.goodput_rps"], 3),
        },
    }


def _pct(values: List[float], q: float) -> float:
    return percentile(values, q) if values else 0.0


def _rung_passes(records: List[_Record], bad=frozenset()) -> bool:
    """p99 within the limit, nothing failed, and no backlog left at the
    end: every request finished within the limit of the schedule's end."""
    if any(r.idx in bad or r.error for r in records):
        return False
    lat = [r.latency_ms for r in records]
    end = max(r.due for r in records)
    return (
        percentile(lat, 99) <= LATENCY_LIMIT_MS
        and max(r.done for r in records) - end <= LATENCY_LIMIT_MS / 1e3
    )


def _sustained(phases, bad) -> float:
    """Completions per second at the highest rate, walking up from the
    nominal one, whose rung passes (measured, not the offered rate); the
    nominal goodput when none does."""
    best = None
    for _rate, recs in phases:
        if not _rung_passes(recs, bad):
            break
        best = recs
    if best is None:
        recs = phases[0][1]
        ok = [r for r in recs if r.idx not in bad and r.latency_ms <= LATENCY_LIMIT_MS]
        return len(ok) / (len(recs) / NOMINAL_RPS)
    start = min(r.due for r in best)
    return len(best) / (max(r.done for r in best) - start)
