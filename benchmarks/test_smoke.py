"""Smoke run of the benchmark harness at tiny input sizes.

    python3 -m pytest benchmarks/test_smoke.py

Each test copies BENCHMARK.json, the harness and (usually) src/ into a fresh
directory laid out like a checkout, and runs the harness there.
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
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
SKIP = shutil.ignore_patterns("__pycache__", "BENCH_*.json")


def make_checkout(tmp_path: Path, with_src: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=SKIP)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=SKIP)
    return tmp_path


def run(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, f"{HERE.name}/run.py", *args], cwd=root,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, spec", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_of_every_workload_is_clean(tmp_path, trace, spec):
    root = make_checkout(tmp_path)
    done = run(root, "--workload", "all", "--seed", "2", "--seconds", "0",
               "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 8, done.stderr
    names = {m["name"] for m in BENCH[spec]}
    for workload in BENCH["workloads"]:
        prefix = workload["name"] + "/"
        got = {k[len(prefix):]: v for k, v in result["metrics"].items() if k.startswith(prefix)}
        assert set(got) == names
        if spec == "end_to_end":
            assert all(v["value"] > 0 for v in got.values())
    if trace:
        spans = json.loads((root / ".bench_run" / "spans-exact-grid.json").read_text())["spans"]
        assert {s["name"] for s in spans} >= {"cli.exact", "exact.xor_distribution"}


def test_single_workload_prints_the_contract_line(tmp_path):
    root = make_checkout(tmp_path)
    done = run(root, "--workload", "exact-grid", "--seed", "7", "--seconds", "0",
               "--trace", "0", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_exits_nonzero_without_sources(tmp_path):
    root = make_checkout(tmp_path, with_src=False)
    done = run(root, "--workload", "exact-grid", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode == 2
    assert not done.stdout.strip()
