"""The benchmark's own tests: reduced-size runs and the checks' power.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import checks
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(Path(cwd) / "bench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def run_child(tmp_path, workload: str, tag: str) -> Path:
    subprocess.run([sys.executable, str(BENCH / "child.py"), workload, "3", str(tmp_path),
                    tag, repr(time.clock_gettime(time.CLOCK_MONOTONIC)), "--small"],
                   cwd=ROOT, check=True, capture_output=True, timeout=120)
    return tmp_path / f"{tag}.out"


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_small_run_passes_its_checks(workload):
    proc = run_bench("--workload", workload, "--seed", "5", "--seconds", "0", "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] < result["attempted"]
    assert set(result["metrics"]) == {m["name"] for m in CONFIG["end_to_end"]}
    for m in CONFIG["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_run_reports_every_per_layer_metric():
    proc = run_bench("--workload", "default_serial", "--seconds", "0", "--trace", "1",
                     "--small")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {m["name"] for m in CONFIG["per_layer"]}
    for m in CONFIG["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert result["metrics"]["cli.eval_row.calls"]["value"] == workloads.spec_rows(
        workloads.small_spec(1))


def test_jobs2_output_is_byte_identical_to_serial(tmp_path):
    serial = run_child(tmp_path, "default_serial", "serial")
    jobs2 = run_child(tmp_path, "default_jobs2", "jobs2")
    assert serial.read_bytes() == jobs2.read_bytes()


@pytest.fixture(scope="module")
def small_rows(tmp_path_factory):
    out = run_child(tmp_path_factory.mktemp("rows"), "default_serial", "rows")
    _, rows, problems = checks.read_csv_rows(out)
    spec = workloads.small_spec(3)
    assert problems == [] and checks.check_sweep(rows, spec) == []
    return rows, spec


def _first_ok(rows) -> dict:
    return next(r for r in rows if r["status"] == "ok" and r["lhs"] > 0.1)


def test_checks_reject_a_perturbed_lhs(small_rows):
    rows, spec = small_rows
    rows = [dict(r) for r in rows]
    row = _first_ok(rows)
    row["lhs"] *= 1.0 + 1e-6
    row["slack"] = row["rhs"] - row["lhs"]
    assert any("antiderivative" in p for p in checks.check_sweep(rows, spec))


def test_checks_reject_a_violation(small_rows):
    rows, spec = small_rows
    rows = [dict(r) for r in rows]
    _first_ok(rows)["status"] = "violation"
    assert any(p.startswith("violation") for p in checks.check_sweep(rows, spec))


def test_bare_benchmark_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "oracle", "--seconds", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
