"""Smoke self-test of the benchmark: every workload once, at tiny sizes.

Run from the repository root (about a minute and a half on two cores):

    python3 -m pytest perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Workloads whose operations must never fail at this commit; sim-small
# reports its non-convergences as measured.
MUST_NOT_FAIL = {"cli-volle", "fit-large", "inference-mc"}


def run(cwd, workload, trace):
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py",
            "--workload", workload,
            "--seed", "1",
            "--seconds", "1",
            "--trace", str(trace),
            "--size", "tiny",
        ],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_declared_metric_is_emitted(workload, trace):
    proc = run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    values = [m["value"] for m in result["metrics"].values()]
    assert all(isinstance(v, (int, float)) and v == v for v in values)
    if not trace:
        assert all(v > 0 for v in values)
    assert result["attempted"] >= 1
    if workload in MUST_NOT_FAIL:
        assert result["failed"] == 0, proc.stdout
        assert result["correct"] is True


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(tmp_path, "sim-small", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
