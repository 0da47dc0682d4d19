"""Output gate: checks the CSV artifacts of one study against the reference
pinned in ``reference/<study>.json``.

An operation is one (channel seed, mode, method) design-and-evaluate
combination of a BER study, or one (base seed, mode) entry of a granularity
sweep. It fails when it is missing from the artifacts (a stage that lands in
the errors table leaves no row), or when its row fails a check:

* Design outputs are deterministic and must equal the reference exactly:
  ``d_min`` of every codebook, and ``K``, ``K_eff``, ``raw_bits`` and
  ``overhead_fraction`` of every sweep entry.
* Monte Carlo error counts may change when a detector draws its noise
  differently, so each count ``e`` over ``n`` trials only has to satisfy
  ``|e - e_ref| <= Z * sqrt(2 n p (1 - p)) + 1`` with ``p = (e_ref + 1) / (n + 2)``,
  ``Z`` standard deviations of the difference of two independent binomial
  counts. A sweep's ``p_e`` is checked as its error count over all
  estimation trials.

Two more checks run on the error counts pooled over every call of a run
(``run_problems``); a failure there fails the whole run:

* Each Monte Carlo cell - (mode, method, SNR index) of a BER study, or the
  mode of a sweep - summed over every operation the run visited must satisfy
  the same bound on the pooled trial count. Its standard deviation is far
  smaller than a single cell's, so a detector or noise change that moves every
  cell a little fails here although each cell alone passes.
* ``ber_study`` must keep the paper's ordering of error rates,
  greedy < layout < random, at every SNR point where greedy's rate lies in
  [1e-3, 1e-1], as the acceptance test states it. Eight channel seeds are too
  few for layout and random to separate, so the ordering is checked on the
  pooled errors only.

This module only parses text, so it does not depend on the code under test.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

Z = 7.0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

ORDERING = ("response_maxmin_greedy", "layout_maxmin", "random")
ORDERING_WINDOW = (1e-3, 1e-1)


@dataclass(frozen=True)
class BerLayout:
    """Where a BER-style study call writes its tables."""

    codebooks_csv: str
    per_seed_csv: str
    errors_csv: str
    check_ordering: bool


@dataclass(frozen=True)
class SweepLayout:
    """Where a sweep study call writes its tables: one directory per base seed."""

    sweep_csv: str
    errors_csv: str


LAYOUTS = {
    "ber_study": BerLayout("scenario_a_codebooks.csv", "scenario_a_ber_per_seed.csv",
                           "scenario_a_errors.csv", check_ordering=True),
    "codebook_screen": BerLayout("codebooks.csv", "ber_per_seed.csv", "errors.csv",
                                 check_ordering=False),
    "granularity_sweep": SweepLayout("scenario_b_sweep.csv", "scenario_b_errors.csv"),
}

# Benchmark workload -> the studies each of its calls runs, one after another.
# Study ``s`` writes under ``<call dir>/<s>`` and is checked against
# ``reference/<s>.json``.
WORKLOADS = {
    "ber_study": ("ber_study",),
    "design_screen": ("codebook_screen", "granularity_sweep"),
}


@dataclass
class CallCheck:
    """Gate verdict and work counts for one study call."""

    attempted: int = 0
    failed: int = 0
    trials: int = 0
    codebooks: int = 0
    problems: list[str] = field(default_factory=list)
    # Monte Carlo cell -> [trials, errors, reference errors], summed over the
    # call's operations whose design matched; a cell is (mode, method, SNR index)
    # of a BER study or (mode,) of a sweep
    totals: dict[tuple, list[int]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)

    def add_cell(self, cell: tuple, trials: int, errors: int, ref_errors: int) -> None:
        total = self.totals.setdefault(cell, [0, 0, 0])
        total[0] += trials
        total[1] += errors
        total[2] += ref_errors


def read_csv(path: Path) -> list[dict[str, str]]:
    """Rows of a frisim CSV table as column -> text; ``#`` lines are metadata."""
    lines = [line for line in path.read_text().splitlines()
             if line.strip() and not line.startswith("#")]
    if not lines:
        raise ValueError(f"{path} has no column header")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValueError(f"{path}: row {line!r} does not match the header")
        rows.append(dict(zip(header, cells)))
    return rows


def error_bound(ref_errors: int, trials: int) -> float:
    """Largest admissible |errors - ref_errors| for one Monte Carlo cell."""
    p = (ref_errors + 1) / (trials + 2)
    return Z * math.sqrt(2.0 * trials * p * (1.0 - p)) + 1.0


def load_reference(study: str) -> dict:
    """Pinned reference of every pool entry: ``{entry: [op, ...]}`` plus ``trials``."""
    data = json.loads((REFERENCE_DIR / f"{study}.json").read_text())
    data["entries"] = {int(k): v for k, v in data["entries"].items()}
    return data


def _error_messages(path: Path) -> list[str]:
    if not path.exists():
        return []
    return [f"errors table: {row['stage']} {row['mode']} {row['method']} "
            f"seed {row['seed']}: {row['message']}" for row in read_csv(path)]


def _check_ber(layout: BerLayout, ref_ops: list, trials: int, call_dir: Path) -> CallCheck:
    check = CallCheck()
    codebooks = {}
    cells: dict[tuple, list[tuple[int, int]]] = {}
    if (call_dir / layout.codebooks_csv).exists():
        for row in read_csv(call_dir / layout.codebooks_csv):
            codebooks[(int(row["seed"]), row["method"], row["mode"])] = float(row["d_min"])
    if (call_dir / layout.per_seed_csv).exists():
        for row in read_csv(call_dir / layout.per_seed_csv):
            key = (int(row["seed"]), row["method"], row["mode"])
            got = cells.setdefault(key, [])
            got.append((int(row["trials"]), int(row["errors"])))
            check.trials += int(row["trials"])
    check.codebooks = len(codebooks)
    check.problems.extend(_error_messages(call_dir / layout.errors_csv))

    expected = set()
    for seed, method, mode, d_min, ref_errors in ref_ops:
        key = (seed, method, mode)
        expected.add(key)
        check.attempted += 1
        if key not in codebooks:
            check.fail(f"{key}: no codebook row")
            continue
        if codebooks[key] != d_min:
            check.fail(f"{key}: d_min {codebooks[key]!r} != reference {d_min!r}")
            continue
        got = cells.get(key, [])
        if len(got) != len(ref_errors):
            check.fail(f"{key}: {len(got)} Monte Carlo cells, reference has "
                       f"{len(ref_errors)}")
            continue
        for i, ((n, e), r) in enumerate(zip(got, ref_errors)):
            check.add_cell((mode, method, i), n, e, r)
        bad = [(n, e, r) for (n, e), r in zip(got, ref_errors)
               if n != trials or abs(e - r) > error_bound(r, trials)]
        if bad:
            n, e, r = bad[0]
            check.fail(f"{key}: {e} errors in {n} trials, reference {r} in {trials} "
                       f"(bound {error_bound(r, trials):.1f})")
    for key in codebooks.keys() - expected:
        check.attempted += 1
        check.fail(f"{key}: codebook row not in the reference")
    return check


def _check_sweep(layout: SweepLayout, ref_ops: list, trials: int,
                 call_dir: Path) -> CallCheck:
    check = CallCheck()
    rows = {}
    for base in sorted({op[0] for op in ref_ops}):
        base_dir = call_dir / f"b{base}"
        if (base_dir / layout.sweep_csv).exists():
            for row in read_csv(base_dir / layout.sweep_csv):
                rows[(base, row["mode"])] = row
        check.problems.extend(_error_messages(base_dir / layout.errors_csv))
    check.codebooks = len(rows)
    check.trials = trials * len(rows)

    for base, mode, k, k_eff, raw_bits, overhead, ref_errors in ref_ops:
        key = (base, mode)
        check.attempted += 1
        row = rows.pop(key, None)
        if row is None:
            check.fail(f"{key}: no sweep row")
            continue
        design = (int(row["K"]), int(row["K_eff"]), float(row["raw_bits"]),
                  float(row["overhead_fraction"]))
        if design != (k, k_eff, raw_bits, overhead):
            check.fail(f"{key}: K, K_eff, raw_bits, overhead_fraction {design} != "
                       f"reference {(k, k_eff, raw_bits, overhead)}")
            continue
        errors = round(float(row["p_e"]) * trials)
        check.add_cell((mode,), trials, errors, ref_errors)
        if abs(errors - ref_errors) > error_bound(ref_errors, trials):
            check.fail(f"{key}: {errors} errors in {trials} trials, reference "
                       f"{ref_errors} (bound {error_bound(ref_errors, trials):.1f})")
    for key in rows:
        check.attempted += 1
        check.fail(f"{key}: sweep row not in the reference")
    return check


def check_call(study: str, reference: dict, entry: int, call_dir: Path) -> CallCheck:
    """Check the artifacts one study call on pool ``entry`` wrote to ``call_dir``."""
    layout = LAYOUTS[study]
    ref_ops = reference["entries"][entry]
    if isinstance(layout, BerLayout):
        return _check_ber(layout, ref_ops, reference["trials"], call_dir)
    return _check_sweep(layout, ref_ops, reference["trials"], call_dir)


def run_problems(study: str, checks: list[CallCheck]) -> list[str]:
    """Why the error counts pooled over every call of a run fail the gate, if they do."""
    pooled: dict[tuple, list[int]] = {}
    for check in checks:
        for cell, counts in check.totals.items():
            total = pooled.setdefault(cell, [0, 0, 0])
            for j, count in enumerate(counts):
                total[j] += count
    problems = []
    for cell, (trials, errors, ref_errors) in sorted(pooled.items()):
        bound = error_bound(ref_errors, trials)
        if abs(errors - ref_errors) > bound:
            problems.append(f"pooled cell {cell}: {errors} errors in {trials} trials, "
                            f"reference {ref_errors} (bound {bound:.1f})")
    if getattr(LAYOUTS[study], "check_ordering", False):
        ordering = _ordering_problem(pooled)
        if ordering:
            problems.append(ordering)
    return problems


def _ordering_problem(pooled: dict[tuple, list[int]]) -> str | None:
    """Why pooled error rates break greedy < layout < random, if they do."""
    by_method: dict[tuple[str, int], list[int]] = {}
    for (_, method, i), (trials, errors, _) in pooled.items():
        total = by_method.setdefault((method, i), [0, 0])
        total[0] += trials
        total[1] += errors
    rate = {key: errors / trials for key, (trials, errors) in by_method.items() if trials}
    low, high = ORDERING_WINDOW
    window = sorted(i for method, i in rate
                    if method == ORDERING[0] and low <= rate[(method, i)] <= high)
    if not window:
        return f"greedy's pooled error rate never falls inside {ORDERING_WINDOW}"
    for i in window:
        rates = [rate.get((method, i), -1.0) for method in ORDERING]
        if not rates[0] < rates[1] < rates[2]:
            return (f"pooled error rates {dict(zip(ORDERING, rates))} at SNR point {i} "
                    f"break the greedy < layout < random ordering")
    return None
