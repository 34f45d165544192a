"""The benchmark's own tests.  Run from the root of a checkout:

    python3 -m pytest -q perfbench/tests

They take a few minutes: every workload is smoke-run once at a tiny size.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import common  # noqa: E402
import tracing  # noqa: E402

SPEC = common.load_spec()
SMOKE_SECONDS = {"net_compile_cold": 0.5, "net_replay": 0.5, "serve_mixed": 1.5}


def run_cli(*args, env=None, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=env,
    )


@pytest.fixture
def private():
    path = common.prepare_environment("selftest")
    try:
        yield path
    finally:
        common.cleanup(path)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric_with_unit(workload):
    proc = run_cli("--workload", workload, "--seed", "0",
                   "--seconds", str(SMOKE_SECONDS[workload]), "--trace", "0")
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for entry in SPEC["end_to_end"]:
        got = result["metrics"][entry["name"]]
        assert got["unit"] == entry["unit"]
        assert got["value"] != 0
        # the human-readable table: name, value, unit and sample count
        row = next(l for l in lines if l.split()[:1] == [entry["name"]])
        assert row.split()[2] == entry["unit"] and int(row.split()[3]) >= 1


def test_corrupted_replay_output_counts_as_failure(private, monkeypatch):
    import wl_network
    from repro.graph.plan import NetworkPlan

    real = NetworkPlan.replay

    def corrupt(self, batch, engine="auto"):
        outs = real(self, batch, engine)
        name = next(iter(outs[0]))
        flipped = outs[0][name].copy()
        flipped.view(np.uint8).flat[0] ^= 1
        outs[0][name] = flipped
        return outs

    monkeypatch.setattr(NetworkPlan, "replay", corrupt)
    result = wl_network.run_replay(0.2, 0, private, tracing.NullTracer())
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0


def test_wrong_reference_counts_as_failure(private, monkeypatch):
    import wl_serve

    monkeypatch.setattr(wl_serve.ReplayReference, "digest", lambda self, p, i: "0" * 64)
    result = wl_serve.run_serve(1.0, 0, private, tracing.NullTracer())
    assert result["failed"] > 0
    assert any("scalar reference" in p for p in result["problems"])


def test_traced_smoke_run_builds_a_span_tree(private, tmp_path):
    import wl_serve

    tracer = tracing.Tracer()
    tracer.install()
    try:
        wl_serve.run_serve(1.0, 0, private, tracer)
    finally:
        tracer.uninstall()
    assert tracer.spans
    ids = {s[0] for s in tracer.spans}
    assert all(s[1] == 0 or s[1] in ids for s in tracer.spans)
    assert any(s[1] != 0 for s in tracer.spans), "no nesting recorded"
    assert min(tracer.self_times().values()) >= -1e-9
    names = tracer.by_name()
    for layer in ("service.submit", "compile.build", "frontend.run", "diskcache.get", "exec.replay"):
        assert names[layer]["calls"] > 0, layer
    path = str(tmp_path / "trace.json")
    tracer.write_chrome(path)
    assert tracing.check_chrome_trace(path) == len(tracer.spans)
    assert tracer.crosscheck() == []


def test_self_time_subtracts_the_union_of_children():
    tracer = tracing.Tracer()
    tracer.spans = [
        (1, 0, "a", 0.0, 10.0, 1, None),
        (2, 1, "b", 1.0, 4.0, 1, None),
        (3, 1, "c", 3.0, 6.0, 1, None),  # overlaps b (another thread)
        (4, 2, "d", 1.5, 2.0, 1, None),
    ]
    selfs = tracer.self_times()
    assert selfs == {1: 5.0, 2: 2.5, 3: 3.0, 4: 0.5}


@pytest.mark.parametrize("var", common.FORBIDDEN_ENV)
def test_refuses_forbidden_environment(var):
    env = dict(os.environ, **{var: "1"})
    proc = run_cli("--workload", "serve_mixed", "--seed", "0", "--seconds", "1", env=env)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_cli("--workload", "net_replay", "--seed", "0", "--seconds", "1", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
