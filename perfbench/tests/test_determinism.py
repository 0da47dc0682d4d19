"""A workload seed fixes the inputs and the CSV bytes; another seed changes the inputs."""

from pathlib import Path

import pytest

import workloads


def _files(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_byte_identical_csvs(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    entry = workloads.plan(name, 5)[0]
    for run in ("a", "b"):
        workload.run(workload.build_input(entry, tmp_path / run), tmp_path / run / "out")
    first, second = _files(tmp_path / "a" / "out"), _files(tmp_path / "b" / "out")
    assert first and any(str(path).endswith(".csv") for path in first)
    assert first == second


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_drives_the_inputs(name, tmp_path):
    assert workloads.plan(name, 5) == workloads.plan(name, 5)
    assert sorted(workloads.plan(name, 5)) == list(range(workloads.POOL_SIZE))
    assert workloads.plan(name, 5) != workloads.plan(name, 6)
    first, other = next((a, b) for a, b in zip(workloads.plan(name, 5),
                                               workloads.plan(name, 6)) if a != b)
    workload = workloads.WORKLOADS[name]
    # A config file counts by its text, so that only what frisim reads is compared.
    inputs = [[part.read_text() if isinstance(part, Path) else repr(part)
               for part in workload.build_input(entry, tmp_path / str(entry))]
              for entry in (first, other)]
    assert all(a != b for a, b in zip(*inputs))
