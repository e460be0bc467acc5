"""Smoke test of the benchmark itself: every workload at a tiny size emits
every metric that BENCHMARK.json names, with its unit, and passes its
output checks.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    for m in expected:
        assert f"{workload}  {m['name']} = " in proc.stdout


def test_same_seed_same_inputs():
    sys.path.insert(0, str(HERE))
    import workloads

    for name in WORKLOADS:
        assert workloads.make(name, 7, "o") == workloads.make(name, 7, "o")


def test_metric_map_matches_benchmark_json():
    doc = json.loads((HERE / "metric_map.json").read_text())
    mapped = {k: v for layer in doc["per_layer"] for k, v in layer["metrics"].items()}
    assert mapped == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in doc["end_to_end"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
