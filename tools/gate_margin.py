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
little faster than that to reach v. Edits nothing; a full pass takes about
as long as ``output_hashes.py --check``.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import output_hashes  # noqa: E402  (puts src/ and perfbench/ on the path)

import gate  # noqa: E402

MAX_VISITS = 30
RUN_SECONDS = json.loads((output_hashes.ROOT / "BENCHMARK.json").read_text())["run_seconds"]


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
                 pool_size: int = output_hashes.workloads.POOL_SIZE) -> float:
    """Seconds per study call at which a run of ``run_seconds`` makes
    ``visits`` visits to each of ``pool_size`` pool entries, set-up aside."""
    return run_seconds / (pool_size * visits)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="frisim-margin-") as tmp:
        root = Path(tmp)
        output_hashes.generate(root)
        for study in output_hashes.STUDIES:
            reference = gate.load_reference(study)
            checks = [gate.check_call(study, reference, entry,
                                      root / output_hashes.entry_dir(study, entry))
                      for entry in output_hashes.ENTRIES]
            failed = sum(check.failed for check in checks)
            visits, problems = first_failing_visits(study, checks)
            line = f"{study}: "
            line += (f"fails from {visits} visits per entry, reached by a {RUN_SECONDS} s run "
                     f"at {call_seconds(visits):.3f} s per call ({problems[0]})" if visits
                     else f"passes at every visit count up to {MAX_VISITS}")
            if failed:
                line += f"; {failed} operations fail a single visit"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
