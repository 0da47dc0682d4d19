"""The BENCH writer's parser and summary, on a recorded ``perfbench/run.py``
stdout (``--workload design_screen --seed 3 --seconds 2 --trace 0``), its
reading of a run's gate problem from a synthetic stderr, and its
parent/change comparison on synthetic runs."""

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


# A synthetic stderr of a run whose pooled check tripped, followed by the
# per-call lines run.py prints after it.
GATE_STDERR = """\
gate: pooled cell ('element', 'random', 0): 11 errors in 55000 trials, reference 0 (bound 10.9)
call 0007: errors table: B element random 1 errors
call 0012 raised:
Traceback (most recent call last):
"""


def test_study_calls_come_from_the_summary_line(bench):
    assert bench.study_calls(RECORDED) == 4
    summary = "ber_study seed 12: 214 study calls, 6848 operations, 0 failed\n"
    assert bench.study_calls(summary) == 214
    assert bench.study_calls("") is None
    assert bench.study_calls("error: no frisim sources\n") is None


def test_gate_line_is_the_first_gate_or_call_problem(bench):
    assert bench.gate_line(GATE_STDERR) == (
        "gate: pooled cell ('element', 'random', 0): 11 errors in 55000 trials, "
        "reference 0 (bound 10.9)")
    crash = "Warning: something\ncall 0012 raised:\nTraceback (most recent call last):\n"
    assert bench.gate_line(crash) == "call 0012 raised:"
    assert bench.gate_line("") is None
    assert bench.gate_line("error: worker timed out\n  gate: indented\n") is None


def test_summary_keeps_median_and_quartiles_per_metric(bench):
    _, result = bench.parse_run_output(RECORDED)
    runs = [{"metrics": {"wall_s": {"value": v, "unit": "s"}}} for v in (4.0, 1.0, 3.0, 2.0, 5.0)]
    runs.append({"metrics": None})  # a run that printed no result
    assert bench.summarise(runs) == {
        "wall_s": {"unit": "s", "n": 5, "median": 3.0, "q1": 2.0, "q3": 4.0}}
    single = bench.summarise([result])
    assert single["ops_ok_frac"] == {"unit": "ratio", "n": 1, "median": 1.0, "q1": 1.0,
                                     "q3": 1.0}


def _runs(metric, values):
    return [{"metrics": {metric: {"value": v, "unit": "1/s"}}} for v in values]


END_TO_END = [{"name": "codebooks_per_s", "better": "higher", "bound": 0.25},
              {"name": "wall_s", "better": "lower", "bound": 0.25}]


def test_compare_counts_won_pairs_and_checks_the_iqr_and_the_bound(bench):
    # Parent quartiles 2 and 4 (IQR 2, median 3); the change's median is 6.
    parent = _runs("codebooks_per_s", [1.0, 2.0, 3.0, 4.0, 5.0])
    change = _runs("codebooks_per_s", [1.0, 6.0, 6.0, 7.0, 4.0])
    assert bench.compare(parent, change, END_TO_END) == {"codebooks_per_s": {
        "pairs": 5, "pairs_won": 3, "parent_iqr": 2.0, "median_change": 3.0,
        "gain_exceeds_iqr": True, "worse_than_bound": False}}


def test_compare_reads_the_better_direction_and_skips_unpaired_runs(bench):
    # Lower is better: the change's median 1.5 against the parent's 1.0 is
    # worse by more than 25 %. The tie at 1.0 counts for neither side, and the
    # fifth change run has no parent result to pair with.
    parent = _runs("wall_s", [1.0, 1.0, 1.0, 1.0]) + [{"metrics": None}]
    change = _runs("wall_s", [1.5, 1.0, 0.5, 1.5, 1.5])
    assert bench.compare(parent, change, END_TO_END)["wall_s"] == {
        "pairs": 4, "pairs_won": 1, "parent_iqr": 0.0, "median_change": 0.5,
        "gain_exceeds_iqr": False, "worse_than_bound": True}
    # A metric one side lacks is left out.
    assert "codebooks_per_s" not in bench.compare(parent, change, END_TO_END)
