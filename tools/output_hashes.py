"""Byte-identity check of the benchmark studies' CSV outputs.

    python3 tools/output_hashes.py --check    # compare with output_hashes.json
    python3 tools/output_hashes.py --write    # re-pin output_hashes.json

Regenerates every pool entry of the three benchmark studies (``ber_study``,
``codebook_screen`` and ``granularity_sweep``, 32 entries each) through the
study definitions in ``perfbench/workloads.py``, and hashes each CSV they
write. ``output_hashes.json`` maps each CSV's path, relative to the output
root (``<study>/<entry>/...``), to its sha256. ``--check`` names every file
that moved, is missing or is extra, and exits 1 if there is any. Run it from
any directory; a full pass takes about 25 s on one core.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASH_FILE = ROOT / "output_hashes.json"
for _path in (ROOT / "src", ROOT / "perfbench"):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

import workloads  # noqa: E402

STUDIES = ("ber_study", "codebook_screen", "granularity_sweep")
ENTRIES = range(workloads.POOL_SIZE)


def entry_dir(study: str, entry: int) -> str:
    return f"{study}/{entry:02d}"


def generate(root: Path, studies=STUDIES, entries=ENTRIES) -> dict[str, str]:
    """Run each study on each pool entry under ``root``; returns the hashes
    of every CSV written, keyed by path relative to ``root``."""
    for study in studies:
        definition = workloads.STUDIES[study]
        for entry in entries:
            work = root / "_inputs" / entry_dir(study, entry)
            work.mkdir(parents=True)
            definition.run(definition.build_input(entry, work),
                           root / entry_dir(study, entry))
    return {path.relative_to(root).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*.csv"))}


def compare(pinned: dict[str, str], actual: dict[str, str], studies=STUDIES,
            entries=ENTRIES) -> list[str]:
    """One line per file that moved, is missing or is extra, among the pinned
    files of the given studies and entries."""
    prefixes = tuple(entry_dir(s, e) + "/" for s in studies for e in entries)
    expected = {path: digest for path, digest in pinned.items() if path.startswith(prefixes)}
    problems = [f"moved: {path}" for path in sorted(expected.keys() & actual.keys())
                if expected[path] != actual[path]]
    problems += [f"missing: {path}" for path in sorted(expected.keys() - actual.keys())]
    problems += [f"extra: {path}" for path in sorted(actual.keys() - expected.keys())]
    return problems


def load() -> dict[str, str]:
    return json.loads(HASH_FILE.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--check", action="store_true",
                        help="compare the regenerated CSVs with the pinned hashes")
    action.add_argument("--write", action="store_true",
                        help="pin the regenerated CSVs' hashes")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="frisim-hashes-") as tmp:
        actual = generate(Path(tmp))
    if args.write:
        HASH_FILE.write_text(json.dumps(actual, indent=1, sort_keys=True) + "\n")
        print(f"pinned {len(actual)} CSV hashes in {HASH_FILE.name}")
        return 0
    problems = compare(load(), actual)
    for problem in problems:
        print(problem)
    print(f"{len(actual)} CSVs regenerated, {len(problems)} differ from {HASH_FILE.name}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
