"""``tools/gate_margin.py``'s replay of the gate's pooled check on synthetic
call checks."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "gate_margin.py"


@pytest.fixture(scope="module")
def gate_margin():
    spec = importlib.util.spec_from_file_location("gate_margin", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check(gate, cell, trials, errors, ref_errors):
    check = gate.CallCheck()
    check.add_cell(cell, trials, errors, ref_errors)
    return check


def test_one_extra_error_per_pass_fails_from_the_eleventh_visit(gate_margin):
    # A reference of 0 errors allows 7 sqrt(2) + 1 = 10.9 pooled errors
    # whatever the trial count, so one error per pass fails at 11 passes.
    gate = gate_margin.gate
    checks = [_check(gate, ("element",), 5000, 1, 0), _check(gate, ("block:4x4",), 5000, 4, 4)]
    visits, problems = gate_margin.first_failing_visits("granularity_sweep", checks)
    assert visits == 11
    assert problems == ["pooled cell ('element',): 11 errors in 55000 trials, "
                        "reference 0 (bound 10.9)"]
    assert gate_margin.first_failing_visits("granularity_sweep", checks, max_visits=10) == \
        (None, [])


def test_matching_counts_pass_every_visit_count_and_a_far_count_fails_at_once(gate_margin):
    gate = gate_margin.gate
    exact = [_check(gate, ("group:2x2",), 20000, 37, 37)]
    assert gate_margin.first_failing_visits("granularity_sweep", exact) == (None, [])
    far = [_check(gate, ("group:2x2",), 20000, 400, 37)]
    assert gate_margin.first_failing_visits("granularity_sweep", far)[0] == 1


def test_a_pooled_shift_that_grows_with_the_visits_fails_in_between(gate_margin):
    # A shift of 100 errors per pass against a reference of 1 000 in 100 000
    # trials: the bound grows as sqrt(v) and the shift as v, so one visit
    # passes and the first v whose shift exceeds its bound fails.
    gate = gate_margin.gate
    checks = [_check(gate, ("element", "random", 0), 100_000, 1100, 1000)]
    visits, _ = gate_margin.first_failing_visits("codebook_screen", checks)
    expected = next(v for v in range(1, 31)
                    if 100 * v > gate.error_bound(1000 * v, 100_000 * v))
    assert visits == expected
    assert 1 < visits <= 30


def test_call_seconds_is_the_run_split_over_every_visit(gate_margin):
    # 55 s over 32 entries visited 8 times each leaves 0.2148 s per call;
    # one more visit each needs faster calls.
    assert gate_margin.call_seconds(8, run_seconds=55, pool_size=32) == 55 / 256
    assert gate_margin.call_seconds(9, run_seconds=55, pool_size=32) < 55 / 256
    assert gate_margin.call_seconds(1, run_seconds=10, pool_size=4) == 2.5
