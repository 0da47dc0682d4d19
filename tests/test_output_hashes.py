"""Two pool entries of each benchmark study against ``output_hashes.json``.

``tools/output_hashes.py --check`` regenerates all 32 entries of every study;
this test runs the first and the last entry of each, so a change that moves a
study's bytes fails tier-1 before the full check is run.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_hashes.py"


@pytest.fixture(scope="module")
def output_hashes():
    spec = importlib.util.spec_from_file_location("output_hashes", _TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("study", ["ber_study", "codebook_screen", "granularity_sweep"])
def test_pool_entries_match_the_pinned_hashes(output_hashes, study, tmp_path):
    entries = (0, output_hashes.ENTRIES[-1])
    actual = output_hashes.generate(tmp_path, (study,), entries)
    assert actual, "the study wrote no CSV"
    assert output_hashes.compare(output_hashes.load(), actual, (study,), entries) == []


def test_compare_names_moved_missing_and_extra_files(output_hashes):
    pinned = {"s/00/a.csv": "1", "s/00/b.csv": "2", "s/01/a.csv": "3"}
    actual = {"s/00/a.csv": "1", "s/00/b.csv": "9", "s/00/c.csv": "4"}
    assert output_hashes.compare(pinned, actual, ("s",), (0, 1)) == [
        "moved: s/00/b.csv", "missing: s/01/a.csv", "extra: s/00/c.csv"]
    # Entries outside the compared range are neither missing nor checked.
    assert output_hashes.compare(pinned, actual, ("s",), (0,)) == [
        "moved: s/00/b.csv", "extra: s/00/c.csv"]
