"""The benchmark command prints its result contract, and refuses to run
without the package sources."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parents[2]


def _bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_one_run_prints_every_end_to_end_metric():
    result = _bench(ROOT, "--workload", "design_screen", "--seed", "3",
                    "--seconds", "1", "--trace", "0")
    assert result.returncode == 0, result.stderr
    last = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 4 * (24 + 30)
    assert {k: v["unit"] for k, v in last["metrics"].items()} == run.END_TO_END_UNITS
    assert all(v["value"] > 0 for v in last["metrics"].values())
    assert any(line.startswith("env {") for line in result.stdout.splitlines())


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "out", "__pycache__"))
    result = _bench(tmp_path, "--workload", "ber_study", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
