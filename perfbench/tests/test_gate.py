"""The output gate accepts the pinned outputs and rejects corrupted ones."""

import math
import shutil

import numpy as np
import pytest

import gate
import workloads
from frisim import (ChannelParams, build_grid, build_response_map, coupling_matrix,
                    draw_channel, enumerate_candidates, pairwise_distances, partition,
                    select_maxmin_greedy)
from frisim.pipeline import TAG_CANDIDATES, TAG_CHANNEL, TAG_MAP, scenario_a_config
from frisim.seeding import derive_seed

BER = workloads.STUDIES["ber_study"]
SWEEP = workloads.STUDIES["granularity_sweep"]
LAYOUT = gate.LAYOUTS["ber_study"]


@pytest.fixture(scope="module")
def ber_call(tmp_path_factory):
    out = tmp_path_factory.mktemp("ber") / "call"
    BER.run(BER.build_input(0, out.parent), out)
    config = scenario_a_config(seed_count=BER.seeds_per_call, base_seed=BER.base_seed(0))
    return config, out


@pytest.fixture(scope="module")
def sweep_call(tmp_path_factory):
    out = tmp_path_factory.mktemp("sweep") / "call"
    SWEEP.run(SWEEP.build_input(0, out.parent), out)
    return out


@pytest.fixture()
def ber_copy(ber_call, tmp_path):
    config, out = ber_call
    return config, shutil.copytree(out, tmp_path / "call")


def _rewrite(path, edit):
    """Apply ``edit(row) -> row`` to every data row of a CSV, keeping metadata."""
    lines = path.read_text().splitlines()
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    header = lines[first].split(",")
    for i in range(first + 1, len(lines)):
        row = edit(dict(zip(header, lines[i].split(","))))
        lines[i] = ",".join(row[c] for c in header)
    path.write_text("\n".join(lines) + "\n")


def _check(study, call_dir):
    return gate.check_call(study, gate.load_reference(study), 0, call_dir)


def test_pinned_outputs_pass(ber_call, sweep_call):
    check = _check("ber_study", ber_call[1])
    assert (check.attempted, check.failed) == (32, 0), check.problems
    assert gate.run_problems("ber_study", [check] * 20) == []
    sweep = _check("granularity_sweep", sweep_call)
    assert (sweep.attempted, sweep.failed) == (30, 0), sweep.problems
    assert gate.run_problems("granularity_sweep", [sweep] * 20) == []


def _swapped_greedy_d_min(config, seed):
    """d_min of the greedy codebook of ``seed`` with its last member swapped for
    the nearest candidate outside it; also returns the unswapped d_min."""
    grid = build_grid(config.grid_rows, config.grid_cols, config.grid_spacing)
    candidates = enumerate_candidates(
        partition(grid, config.modes[0]), config.n_act, config.m_samples,
        config.min_unit_spacing, seed=derive_seed(config.candidate_seed, TAG_CANDIDATES, 0))
    params = ChannelParams(rx_antennas=config.rx_antennas, fading=config.fading,
                           coupling_strength=config.rho,
                           seed=derive_seed(seed, TAG_CHANNEL))
    design_map = build_response_map(candidates, draw_channel(grid, params),
                                    coupling_matrix(grid, config.rho, config.kernel),
                                    0.0, seed=derive_seed(seed, TAG_MAP, 0))
    distances = pairwise_distances(design_map).values
    codebook = select_maxmin_greedy(pairwise_distances(design_map), config.k)
    members = list(codebook.members)
    outside = [i for i in np.argsort(distances[members[-1]]) if i not in members]
    members[-1] = int(outside[0])
    sub = distances[np.ix_(members, members)]
    return codebook.d_min, float(sub[np.triu_indices(len(members), k=1)].min())


def test_swapped_codebook_member_fails_its_operation(ber_copy):
    config, call_dir = ber_copy
    seed = config.seeds[2]
    original, swapped = _swapped_greedy_d_min(config, seed)
    assert original != swapped

    def swap(row):
        if int(row["seed"]) == seed and row["method"] == "response_maxmin_greedy":
            assert float(row["d_min"]) == original
            row["d_min"] = repr(swapped)
        return row

    _rewrite(call_dir / LAYOUT.codebooks_csv, swap)
    check = _check("ber_study", call_dir)
    assert check.failed == 1
    assert f"({seed}, 'response_maxmin_greedy', 'element')" in check.problems[0]


@pytest.mark.parametrize("beyond_bound", [False, True])
def test_shifted_error_count(ber_copy, beyond_bound):
    config, call_dir = ber_copy
    seed = config.seeds[0]
    target = {}

    def shift(row):
        if (int(row["seed"]) == seed and row["method"] == "random"
                and float(row["snr_db"]) == 5.0):
            bound = gate.error_bound(int(row["errors"]), int(row["trials"]))
            target["bound"] = bound
            step = math.floor(bound) + 1 if beyond_bound else math.floor(bound)
            row["errors"] = str(int(row["errors"]) + step)
        return row

    _rewrite(call_dir / LAYOUT.per_seed_csv, shift)
    assert target["bound"] > 1
    check = _check("ber_study", call_dir)
    assert check.failed == (1 if beyond_bound else 0), check.problems


def test_missing_row_fails_its_operation(ber_copy):
    config, call_dir = ber_copy
    path = call_dir / LAYOUT.codebooks_csv
    lines = path.read_text().splitlines()
    path.write_text("\n".join(line for line in lines
                              if not line.startswith(f"{config.seeds[1]},layout_maxmin,"))
                    + "\n")
    check = _check("ber_study", call_dir)
    assert (check.attempted, check.failed) == (32, 1)


def test_broken_ordering_is_reported(ber_call):
    check = _check("ber_study", ber_call[1])
    for (mode, method, i), cell in check.totals.items():
        if method == "layout_maxmin":
            cell[1] = cell[2] = check.totals[(mode, "random", i)][1] + 1
    problems = gate.run_problems("ber_study", [check])
    assert len(problems) == 1 and "ordering" in problems[0]


def test_errors_scaled_in_every_cell_fail_the_gate(ber_copy):
    _, call_dir = ber_copy

    def scale(row):
        row["errors"] = str(round(int(row["errors"]) * 1.2))
        return row

    _rewrite(call_dir / LAYOUT.per_seed_csv, scale)
    check = _check("ber_study", call_dir)
    assert check.failed > 0
    problems = gate.run_problems("ber_study", [check])
    assert any(p.startswith("pooled cell") for p in problems), problems


def test_shift_inside_every_cell_bound_fails_the_pooled_check(ber_copy):
    """Half a bound more errors in every cell passes each cell alone, but not
    pooled over the eight channel seeds of one call."""
    _, call_dir = ber_copy

    def shift(row):
        bound = gate.error_bound(int(row["errors"]), int(row["trials"]))
        row["errors"] = str(int(row["errors"]) + math.floor(bound / 2))
        return row

    _rewrite(call_dir / LAYOUT.per_seed_csv, shift)
    check = _check("ber_study", call_dir)
    assert check.failed == 0, check.problems
    problems = gate.run_problems("ber_study", [check])
    assert any(p.startswith("pooled cell") for p in problems), problems
