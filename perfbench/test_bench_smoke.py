"""Smoke test of the benchmark itself, at a tiny corpus scale.

Run from the root of a checkout with ``python -m pytest perfbench``.
Every workload runs at scale 0.02 in both modes, must pass its output
check, and must print exactly the metrics ``BENCHMARK.json`` names,
each with its unit.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)

WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_bench(cwd, workload, trace, seed=7):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--scale", "0.02"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_emits_every_metric_and_checks_clean(workload, trace):
    completed = run_bench(ROOT, workload, trace)
    assert completed.returncode == 0, completed.stderr
    *_, properties, last = completed.stdout.splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {metric["name"]: metric["unit"]
                for metric in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == expected
    for name in expected:
        assert isinstance(result["metrics"][name]["value"], float)
    if not trace:
        for name, metric in result["metrics"].items():
            assert metric["value"] > 0, name
    recorded = json.loads(properties)["input"]
    assert recorded["workload"] == workload and recorded["seed"] == 7
    for key in ("scale", "files", "bytes", "tokens", "nproc", "python",
                "jobs", "executor"):
        assert key in recorded


def test_per_layer_counts_match_the_workload():
    completed = run_bench(ROOT, "serve-edit", 1)
    metrics = json.loads(completed.stdout.splitlines()[-1])["metrics"]
    assert metrics["engine.units_swept"]["value"] == 1.0
    assert metrics["store.puts"]["value"] == 2.0
    assert metrics["unattributed_s"]["value"] < (
        0.1 * metrics["trace.traced_s"]["value"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"),
                    tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    completed = run_bench(str(tmp_path), WORKLOADS[0], 0)
    assert completed.returncode != 0
    assert completed.stdout == ""
