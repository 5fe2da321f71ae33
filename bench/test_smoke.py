"""Tests of the benchmark itself (not part of the tier-1 suite).

Run from the repository root:

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracing  # noqa: E402


def test_smoke_prints_every_metric_with_no_failures():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"], cwd=ROOT,
                         capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert sorted(result["workloads"]) == sorted(w["name"] for w in spec["workloads"])
    for name, metrics in result["workloads"].items():
        assert metrics["fail_frac"]["value"] == 0, name
        assert metrics["traced_agrees"] is True, name
        for m in spec["end_to_end"] + spec["per_layer"]:
            got = metrics[m["name"]]
            assert got["unit"] == m["unit"], (name, m["name"])
            assert isinstance(got["value"], (int, float)), (name, m["name"])
        for m in spec["end_to_end"]:
            assert metrics[m["name"]]["value"] > 0, (name, m["name"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "cli", "--seed", "0",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path,
                         capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_wrappers_are_restored_and_missing_deciders_are_absent(monkeypatch):
    tracing.load_modules()
    import hullstop.geometry as geometry
    import hullstop.graph as graph
    import hullstop.termination as termination

    ratio_step = termination.ratio_step
    diameter = graph.DiGraph.__dict__["diameter"]
    monkeypatch.delattr(geometry, "_phase_one_feasible")
    tracer = tracing.Tracer()
    tracer.op = 0
    with tracer.installed():
        assert termination.ratio_step is not ratio_step
        g = graph.generate_digraph(6, "ring")
        assert g.diameter == 5
    assert termination.ratio_step is ratio_step
    assert graph.DiGraph.__dict__["diameter"] is diameter
    assert "geometry.tableau" not in tracer.present
    assert "geometry.wolfe" in tracer.present

    stats = tracing.stats_by_op(tracer.spans)
    assert stats[0].n("graph.generate") == 1 and stats[0].n("graph.diameter") == 1

    class Ref:
        halts = {"radius": 7}
        bytes_written = {}

    metrics = tracing.layer_metrics(tracing.OpStats(), [stats[0]], Ref, tracer.present, 1.0, 1.0)
    assert metrics["geometry.tableau_calls"] == {"value": None, "unit": "count", "absent": True}
    assert metrics["geometry.tableau_settled_ratio"]["absent"] is True
    assert metrics["geometry.wolfe_calls"]["value"] == 0
    assert metrics["graph.D"]["value"] == 5
    assert metrics["halt_k.radius"]["value"] == 7
