"""The benchmark's own tests: quick runs of every workload and its checks.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import run
import spans
import workloads
from conftest import BENCH

ROOT = os.path.dirname(BENCH)
SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


def quick_run(workload: str, trace: int, seed: int = 3, cwd: str = ROOT):
    command = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--quick"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_spec_names_match_the_code():
    assert {m["name"] for m in SPEC["per_layer"]} == set(spans.Tracer().layer_metrics(0))
    assert NAMES == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == \
        {"setup_s", "solve_rel", "solve_cpu_rel", "peak_rss_mb"}


@pytest.mark.parametrize("workload", NAMES)
def test_quick_run_reports_every_metric(workload):
    results = {}
    for trace, group in ((0, "end_to_end"), (1, "per_layer")):
        proc = quick_run(workload, trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert [m["name"] for m in SPEC[group]] == list(result["metrics"])
        for spec in SPEC[group]:
            metric = result["metrics"][spec["name"]]
            assert metric["unit"] == spec["unit"] and np.isfinite(metric["value"])
        results[trace] = result["metrics"]
    assert all(results[0][k]["value"] > 0 for k in results[0])
    assert results[1]["solver.solves"]["value"] >= 1


def test_per_layer_counts_repeat_for_a_seed():
    counts = []
    for _ in range(2):
        proc = quick_run("asymptotic_step_33", 1, seed=5)
        assert proc.returncode == 0, proc.stderr
        metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items()
                       if v["unit"] in ("count", "ratio", "bytes")})
    assert counts[0] == counts[1]
    assert counts[0]["perron.lifts"] > 0 and counts[0]["solver.dense_solves"] > 0


def test_exits_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = quick_run("newton_hemisphere_129", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def _quick(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    return cls(7, cls.quick_nodes, str(tmp_path))


def _failed(checks):
    return {c.name for c in checks if not c.passed}


def test_asymptotic_checks_catch_perturbations(tmp_path):
    wl = _quick("asymptotic_step_33", tmp_path)
    statuses, u = wl.read_back(wl.run())
    assert _failed(wl.check_solution(statuses, u)) == set()

    raised = u.copy()
    raised.values[1:-1, 1:-1] += 1e-3
    assert "whole_box_newton.agrees" in _failed(wl.check_solution(statuses, raised))

    moved = u.copy()
    moved.values[len(u.axes[0]) // 2, 0] += 1e-6
    assert "bottom_face.step_formula" in _failed(wl.check_solution(statuses, moved))

    assert "cli.checks_pass" in _failed(wl.check_solution(statuses + ["FAIL"], u))

    above = u.copy()
    above.values[5, 5] = wl.hi + 1e-3
    assert "max_principle.above" in _failed(wl.check_solution(statuses, above))


def test_newton_checks_catch_perturbations(tmp_path):
    wl = _quick("newton_hemisphere_129", tmp_path)
    u, _ = wl.run()
    assert _failed(wl.check_solution(u)) == set()
    raised = u.copy()
    raised.values[1:-1, 1:-1] += 1e-3
    assert {"hemisphere.error", "residual_norm"} <= _failed(wl.check_solution(raised))


def test_dilation_checks_catch_perturbations(tmp_path):
    wl = _quick("dilation_65", tmp_path)
    u, _ = wl.run()
    assert _failed(wl.check_solution(u)) == set()
    raised = u.copy()
    raised.values[1:-1, 1:-1] += 1e-3
    assert "qh_residual" in _failed(wl.check_solution(raised))
    bent = u.copy()
    x, y = u.meshgrid()
    bent.values += 1e-3 * np.sin(np.pi * (x / 0.9 + 0.5)) * np.sin(np.pi * (y - 0.25) / 0.7)
    assert "oracle.mean_curvature" in _failed(wl.check_solution(bent))


def test_self_time_subtracts_child_spans():
    tracer = spans.Tracer()
    inner = tracer._wrap("solver.inner", lambda: time.sleep(0.02), leaf=False)
    outer = tracer._wrap("perron.outer", lambda: (inner(), time.sleep(0.01)), leaf=False)
    tracer.enabled = True
    outer()
    child, parent = tracer.spans
    assert child[4] == parent[0] and parent[4] == -1
    assert parent[6] == child[3] - child[2]
    assert parent[3] - parent[2] - parent[6] >= 0.01e9
