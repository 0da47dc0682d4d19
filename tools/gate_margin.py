"""Gate margin of each benchmark study: the visits per pool entry from which
the benchmark gate's pooled check fails.

    python3 tools/gate_margin.py

Regenerates every pool entry of the three benchmark studies through
``tools/output_hashes.py``'s ``generate``, checks each entry's CSVs once with
``perfbench/gate.py``'s ``check_call`` against the pinned reference, and
replays ``gate.run_problems`` on those checks repeated v times, for v = 1 to
30. A benchmark run that visits each entry v times pools exactly these
counts, since every visit of an entry writes the same CSVs. Prints, per
study, the first v that fails and its first problem, or that every v up to 30
passes, and how many operations fail a single visit if any do. Beside a
failing v it prints the time per study call at which a run of
``BENCHMARK.json``'s ``run_seconds`` makes v visits per entry,
``run_seconds / (POOL_SIZE * v)``. The run's set-up launches use part of
its seconds, so the real threshold is somewhat lower: calls must be a
little faster than that to reach v.

A real run visits the entries unevenly until its last pass is complete, in
the order ``perfbench/workloads.py``'s ``plan`` draws from the workload seed.
So for each workload and each seed ``tools/bench.py`` runs, the tool also
replays that order call by call and prints the first call count N at which
the run's pooled check fails (any of the workload's studies), with
``run_seconds / N``. A timed run's call i visits ``plan[i % 32]``; a traced
run's calls come in pairs on one entry, so call i visits
``plan[(i // 2) % 32]``, and N is rounded up to the even count such a run
ends on. Counts below one pass over the pool are not reported: there the
ordering check of ``ber_study`` pools fewer channel seeds than it needs (it
fails a run of 1-4 calls at some seeds), and no run of ``run_seconds`` makes
so few calls. Edits nothing; a full pass takes about as long as
``output_hashes.py --check``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench  # noqa: E402
import output_hashes  # noqa: E402  (puts src/ and perfbench/ on the path)

import gate  # noqa: E402

MAX_VISITS = 30
RUN_SECONDS = json.loads((output_hashes.ROOT / "BENCHMARK.json").read_text())["run_seconds"]
# tools/bench.py runs pair i at workload seed i + 1.
WORKLOAD_SEEDS = range(1, bench.PAIRS + 1)
POOL_SIZE = output_hashes.workloads.POOL_SIZE


def first_failing_visits(study: str, checks: list,
                         max_visits: int = MAX_VISITS) -> tuple[int | None, list[str]]:
    """The smallest v in 1..max_visits at which ``gate.run_problems`` fails
    on ``checks`` repeated v times, with its problems; (None, []) if none."""
    for visits in range(1, max_visits + 1):
        problems = gate.run_problems(study, checks * visits)
        if problems:
            return visits, problems
    return None, []


def call_seconds(visits: int, run_seconds: float = RUN_SECONDS,
                 pool_size: int = POOL_SIZE) -> float:
    """Seconds per study call at which a run of ``run_seconds`` makes
    ``visits`` visits to each of ``pool_size`` pool entries, set-up aside."""
    return run_seconds / (pool_size * visits)


def visited_entries(order: list[int], calls: int, traced: bool) -> list[int]:
    """The pool entry of each of a run's first ``calls`` study calls, for a run
    that visits the pool in ``order`` (``perfbench/worker.py``'s loop)."""
    return [order[(i // 2 if traced else i) % len(order)] for i in range(calls)]


def first_failing_call(study: str, checks: dict[int, gate.CallCheck],
                       entries: list[int], start: int) -> int | None:
    """The smallest N >= ``start`` at which ``gate.run_problems`` fails on
    the checks of the first N ``entries`` visited; None if none."""
    pooled = gate.CallCheck()
    for calls, entry in enumerate(entries, 1):
        for cell, counts in checks[entry].totals.items():
            pooled.add_cell(cell, *counts)
        if calls >= start and gate.run_problems(study, [pooled]):
            return calls
    return None


def seed_margins(checks: dict[str, dict[int, gate.CallCheck]], seed: int,
                 max_calls: int = MAX_VISITS * POOL_SIZE) -> dict[tuple[str, str], int | None]:
    """(workload, "timed" or "traced") -> the first call count from one pass
    over the pool on at which a run at workload ``seed`` fails the pooled
    check of any of its studies, or None up to ``max_calls``. ``checks`` holds
    every study's check per entry."""
    margins = {}
    for workload, studies in gate.WORKLOADS.items():
        order = output_hashes.workloads.plan(workload, seed)
        for kind in ("timed", "traced"):
            entries = visited_entries(order, max_calls, kind == "traced")
            failing = [n for n in (first_failing_call(study, checks[study], entries,
                                                      start=len(order))
                                   for study in studies) if n is not None]
            first = min(failing, default=None)
            # A traced run ends on an even call count.
            if first is not None and kind == "traced":
                first += first % 2
            margins[(workload, kind)] = first
    return margins


def _margin_cell(calls: int | None) -> str:
    if calls is None:
        return f"passes {MAX_VISITS * POOL_SIZE}"
    return f"{calls} at {RUN_SECONDS / calls:.3f} s"


def main() -> int:
    all_checks = {}
    with tempfile.TemporaryDirectory(prefix="frisim-margin-") as tmp:
        root = Path(tmp)
        output_hashes.generate(root)
        for study in output_hashes.STUDIES:
            reference = gate.load_reference(study)
            checks = [gate.check_call(study, reference, entry,
                                      root / output_hashes.entry_dir(study, entry))
                      for entry in output_hashes.ENTRIES]
            all_checks[study] = dict(zip(output_hashes.ENTRIES, checks))
            failed = sum(check.failed for check in checks)
            visits, problems = first_failing_visits(study, checks)
            line = f"{study}: "
            line += (f"fails from {visits} visits per entry, reached by a {RUN_SECONDS} s run "
                     f"at {call_seconds(visits):.3f} s per call ({problems[0]})" if visits
                     else f"passes at every visit count up to {MAX_VISITS}")
            if failed:
                line += f"; {failed} operations fail a single visit"
            print(line)

    print(f"first failing call count per workload seed, with the {RUN_SECONDS} s run "
          f"split over it:")
    columns = [(workload, kind) for workload in gate.WORKLOADS for kind in ("timed", "traced")]
    print("seed  " + "".join(f"{workload + ' ' + kind:<24}" for workload, kind in columns))
    for seed in WORKLOAD_SEEDS:
        margins = seed_margins(all_checks, seed)
        print(f"{seed:<6}" + "".join(f"{_margin_cell(margins[c]):<24}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
