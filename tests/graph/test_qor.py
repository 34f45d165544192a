"""Quality-of-result gate: recompiling the tiny networks reproduces the
committed ``BENCH_qor.json`` program dumps byte for byte, and no plan
step gets slower on the simulator."""

import json
from pathlib import Path

from repro.tools.qor import qor_regressions, qor_snapshot

BENCH_QOR = Path(__file__).resolve().parents[2] / "BENCH_qor.json"


def test_networks_match_recorded_qor():
    recorded = json.loads(BENCH_QOR.read_text())["networks"]
    assert qor_regressions(recorded, qor_snapshot()) == []


def test_regressions_flag_digest_and_cycle_changes():
    recorded = {"net": {"g0": {"cycles": 10, "program_sha256": "a"}}}
    assert qor_regressions(recorded, recorded) == []
    faster = {"net": {"g0": {"cycles": 9, "program_sha256": "a"}}}
    assert qor_regressions(recorded, faster) == []
    slower = {"net": {"g0": {"cycles": 11, "program_sha256": "a"}}}
    assert qor_regressions(recorded, slower) == ["net.g0: cycles rose 10 -> 11"]
    changed = {"net": {"g0": {"cycles": 10, "program_sha256": "b"}}}
    assert qor_regressions(recorded, changed) == ["net.g0: program dump changed"]
    assert qor_regressions(recorded, {"net": {}}) == [
        "net.g0: plan step added or removed"
    ]
