"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They start run.py as a subprocess, with short runs (about a
minute in all on two cores).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spec
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = ("count", "bytes")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=180)


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def exact_counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in EXACT or name == "allocation.evals_per_solve"}


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    args = ("--workload", workload, "--seed", "default", "--seconds", "1",
            "--trace", "1")
    first, second = (result_line(bench(*args)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert {m["name"] for m in BENCHMARK["per_layer"]} == set(first["metrics"])
    counts = exact_counts(first)
    assert counts == exact_counts(second)
    assert counts["gsvd.gsvd.calls"] > 0


@pytest.mark.parametrize("workload", spec.WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = result_line(bench("--workload", workload, "--seed", "holdout",
                               "--seconds", "1", "--trace", "0"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for m in BENCHMARK["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_refuses_to_run_without_the_package_source():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = bench("--workload", "snr", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert "metrics" not in proc.stdout


def test_self_time_subtracts_the_union_of_overlapping_children():
    parent = ["p", 0.0, 10.0, None, None]
    # Two pool threads: [1, 4] and [3, 6] overlap; [8, 12] runs past the end.
    kids = [["a", 1.0, 4.0, 0, None], ["b", 3.0, 6.0, 0, None],
            ["c", 8.0, 12.0, 0, None]]
    assert tracer._self_time(parent, kids) == pytest.approx(10.0 - 5.0 - 2.0)
