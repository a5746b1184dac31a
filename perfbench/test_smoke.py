"""Smoke test of the benchmark at a tiny size (about half a minute):

    python3 -m pytest -q perfbench/test_smoke.py

Every metric BENCHMARK.json names must print with its unit, an injected
failing op must count in `failed` rather than abort the run, the traced
run must reproduce the untraced run's records, and a canary figure that
moves from fixtures/canary.json, up or down, must make the run incorrect.
"""

from __future__ import annotations

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


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result(workload: str, *flags: str, trace: int = 0) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--tiny", *flags)
    assert proc.returncode == 0, proc.stderr[-3000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    specs = SPEC["per_layer" if trace else "end_to_end"]
    units = {name: m["unit"] for name, m in res["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in specs}
    assert all(isinstance(m["value"], (int, float)) for m in res["metrics"].values())
    return res


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_print_and_check(workload):
    res = result(workload)
    assert res["correct"] and res["failed"] == 0 and res["attempted"] > 0
    assert res["metrics"]["ok_frac"]["value"] == 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_injected_failure_is_counted(workload):
    res = result(workload, "--inject-failure")
    assert not res["correct"]
    assert 0 < res["failed"] < res["attempted"]
    ok = res["metrics"]["ok_frac"]["value"]
    assert ok == (res["attempted"] - res["failed"]) / res["attempted"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reproduces_untraced(workload):
    res = result(workload, trace=1)
    assert res["correct"] and res["failed"] == 0
    assert res["metrics"]["trace_overhead"]["value"] > 0


@pytest.mark.parametrize("factor", [1.0 + 1e-5, 1.0 - 1e-5])
def test_canary_drift_is_incorrect(tmp_path, factor):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    canary = tmp_path / "perfbench" / "fixtures" / "canary.json"
    figures = json.loads(canary.read_text())
    figures["tiny"]["distill"]["loss_final"] *= factor
    canary.write_text(json.dumps(figures))
    proc = bench("--workload", "distill", "--seed", "3", "--seconds", "1",
                 "--trace", "0", "--tiny", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr[-3000:]
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert not res["correct"] and res["failed"] == 0
    assert "loss_final" in proc.stderr


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
