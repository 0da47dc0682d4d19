"""The BENCH writer's parser and summary, on a recorded ``perfbench/run.py``
stdout (``--workload design_screen --seed 3 --seconds 2 --trace 0``)."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench.py"

RECORDED = """\
env {"blas": "scipy-openblas", "blas_threads": 2, "blas_version": "0.3.31.188.0", "cpu_model": "Intel(R) Xeon(R) Processor", "git_commit": null, "nproc": 2, "numpy": "2.4.6", "python": "3.11.7", "source_sha256": "7d471639bdd4304338b8425ed5d31ea215229e05d5f317b938c0236cfdc89990"}
design_screen seed 3: 4 study calls, 216 operations, 0 failed (ops_failed_frac 0)
  setup_s                                                0.300994 s
  wall_s                                                 0.493023 s
  cpu_s                                                  0.469368 s
  trials_per_s                                        1.22677e+06 1/s
  codebooks_per_s                                         109.533 1/s
  peak_rss_mb                                             42.9492 MB
  ops_ok_frac                                                   1 ratio
{"correct": true, "attempted": 216, "failed": 0, "metrics": {"setup_s": {"value": 0.30099350650016277, "unit": "s"}, "wall_s": {"value": 0.49302259300020523, "unit": "s"}, "cpu_s": {"value": 0.4693679999999998, "unit": "s"}, "trials_per_s": {"value": 1226768.1325327083, "unit": "1/s"}, "codebooks_per_s": {"value": 109.53286897613467, "unit": "1/s"}, "peak_rss_mb": {"value": 42.94921875, "unit": "MB"}, "ops_ok_frac": {"value": 1.0, "unit": "ratio"}}}
"""


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_parser_reads_the_env_line_and_the_last_json_line(bench):
    env, result = bench.parse_run_output(RECORDED)
    assert env["numpy"] == "2.4.6" and env["nproc"] == 2 and env["git_commit"] is None
    assert (result["correct"], result["attempted"], result["failed"]) == (True, 216, 0)
    assert result["metrics"]["wall_s"] == {"value": 0.49302259300020523, "unit": "s"}
    assert set(result["metrics"]) == {"setup_s", "wall_s", "cpu_s", "trials_per_s",
                                      "codebooks_per_s", "peak_rss_mb", "ops_ok_frac"}


def test_parser_returns_none_for_a_run_that_printed_no_result(bench):
    assert bench.parse_run_output("") == (None, None)
    env, result = bench.parse_run_output(RECORDED.rsplit("\n{", 1)[0] + "\n")
    assert env is not None and result is None


def test_summary_keeps_median_and_quartiles_per_metric(bench):
    _, result = bench.parse_run_output(RECORDED)
    runs = [{"metrics": {"wall_s": {"value": v, "unit": "s"}}} for v in (4.0, 1.0, 3.0, 2.0, 5.0)]
    runs.append({"metrics": None})  # a run that printed no result
    assert bench.summarise(runs) == {
        "wall_s": {"unit": "s", "n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0}}
    single = bench.summarise([result])
    assert single["ops_ok_frac"] == {"unit": "ratio", "n": 1, "median": 1.0, "q1": 1.0,
                                     "q3": 1.0}
