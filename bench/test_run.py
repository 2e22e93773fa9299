"""Smoke tests of the benchmark itself: python3 -m pytest -q bench"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


# link_free is not in BENCHMARK.json but stays runnable by hand.
@pytest.mark.parametrize("workload", [w["name"] for w in spec()["workloads"]] + ["link_free"])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    p = run("--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace), "--smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = spec()["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in listed)
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if trace and workload == "link_free":
        assert result["metrics"]["channel.symbols"]["value"] == 0


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    p = run("--workload", "link_free", "--seed", "1", "--seconds", "1", "--trace", "0",
            cwd=str(tmp_path))
    assert p.returncode != 0
    assert not p.stdout.strip()
