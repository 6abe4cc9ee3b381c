"""Smoke test of the benchmark at tiny size: python3 -m pytest bench/test_smoke.py"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_end_to_end_metric_on_every_workload(workload):
    result = result_of(run("--workload", workload, "--seed", "3", "--seconds", "0.3",
                           "--trace", "0"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_default_seed_matches_recorded_digests():
    result = result_of(run("--workload", "map", "--seed", "0", "--seconds", "0.3"))
    assert result["correct"]


def test_traced_run_reports_every_layer_metric():
    result = result_of(run("--workload", "point", "--seed", "3", "--seconds", "1.2",
                           "--trace", "1"))
    assert result["correct"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, metric in result["metrics"].items():
        if name.endswith(("self_us", "_ms", ".calls")) and "normal_modes" not in name:
            assert metric["value"] > 0, name


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "point", "--seed", "1", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert done.returncode != 0 and "correct" not in done.stdout
