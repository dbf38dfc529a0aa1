"""Self-test of the benchmark: every metric printed, counts repeatable.

    python3 -m pytest -q bench/test_bench.py

Runs each workload with --seconds 0 on a fixed seed, untraced once (the
run's minimum of 25 operations) and traced twice (the first two inputs, each
once untraced and once traced).  Also keeps
a known library defect visible: the staged-3 triple left out of the pool.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from orbitcode import engine  # noqa: E402
from orbitcode.errors import EngineError  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 7


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def result(workload: str, trace: int) -> tuple[dict, list[str]]:
    done = bench(
        "--workload", workload, "--seed", str(SEED), "--seconds", "0", "--trace", str(trace)
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    data = json.loads(lines[-1])
    assert set(data) == {"correct", "attempted", "failed", "metrics"}
    assert data["correct"] and data["failed"] == 0 and data["attempted"] >= 2, done.stderr
    return data, lines[:-1]


def digest(lines: list[str]) -> str:
    return next(line.split()[1] for line in lines if line.startswith("trace_sha256"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_printed_and_counts_repeat(workload):
    untraced, lines = result(workload, 0)
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in untraced["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.split()[0] == name and line.split()[2] == unit for line in lines), name
        assert untraced["metrics"][name]["value"] > 0, name
    assert any(line.startswith("failed_frac") and "ratio" in line for line in lines)
    if workload == "coding-64":
        control = next(line for line in lines if line.startswith("negative_control"))
        rejected, total = control.split()[2], control.split()[4]
        assert rejected == total and int(total) >= 2

    first, traced_lines = result(workload, 1)
    second, _ = result(workload, 1)
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for run in (first, second):
        assert {name: m["unit"] for name, m in run["metrics"].items()} == layers
    for name, unit in layers.items():
        if unit == "count":
            assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert digest(lines) == digest(traced_lines)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = bench(
        "--workload", "coding-64", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.xfail(raises=EngineError, strict=True, reason="window grows once per step")
def test_staged_run_on_triple_b91():
    """Left out of the staged-3 pool (workloads.py); a fix turns this into an XPASS."""
    engine.staged_run([(1, 0, 1, 1), (1, 0, 0, 1), (0, 0, 0, 1)])
