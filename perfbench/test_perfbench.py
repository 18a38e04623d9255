"""Self-tests for the benchmark in this directory.

The smoke mode runs every workload's pass on a tiny file and must emit
exactly the metrics BENCHMARK.json names, with their units.  An injected
fault (one flipped byte in a shard file before decode) must be counted as
a failed operation and make the run exit non-zero.  Without the program's
sources beside it, the benchmark must fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run_bench(bench_dir: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(bench_dir / "run.py"), "--workload", "bulk-k8", "--seed", "7",
         "--seconds", "0", *extra],
        capture_output=True, text=True, timeout=300,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_emits_every_named_metric(trace, section):
    proc = run_bench(HERE, "--smoke", "--trace", trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = result_line(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] > 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in SPEC[section]}


def test_flipped_shard_byte_is_a_failed_op():
    proc = run_bench(HERE, "--smoke", "--inject-fault")
    assert proc.returncode == 1
    result = result_line(proc)
    assert result["correct"] is False and result["failed"] >= 1
    assert "# FAILED bulk-k8: pass 0 decode.lost0: exit code 4" in proc.stdout


def test_fails_without_program_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path / "perfbench", "--smoke")
    assert proc.returncode not in (0, None)
    assert '"correct"' not in proc.stdout
