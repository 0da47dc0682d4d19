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
passes, and how many operations fail a single visit if any do. Edits
nothing; a full pass takes about as long as ``output_hashes.py --check``.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import output_hashes  # noqa: E402  (puts src/ and perfbench/ on the path)

import gate  # noqa: E402

MAX_VISITS = 30


def first_failing_visits(study: str, checks: list,
                         max_visits: int = MAX_VISITS) -> tuple[int | None, list[str]]:
    """The smallest v in 1..max_visits at which ``gate.run_problems`` fails
    on ``checks`` repeated v times, with its problems; (None, []) if none."""
    for visits in range(1, max_visits + 1):
        problems = gate.run_problems(study, checks * visits)
        if problems:
            return visits, problems
    return None, []


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
            line += (f"fails from {visits} visits per entry ({problems[0]})" if visits
                     else f"passes at every visit count up to {MAX_VISITS}")
            if failed:
                line += f"; {failed} operations fail a single visit"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
