import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frisim import geometry
from frisim.geometry import (GranularityMode, InfeasibleConstraintError, build_grid,
                             default_min_unit_spacing, enumerate_candidates,
                             load_candidate_set, partition, save_candidate_set,
                             unit_centroids)
from oracles import layout_distance, min_pairwise_spacing


def _element_sets(cands):
    """Each candidate's active element ids, as a sorted tuple."""
    rows = cands.partition.elements[cands.units].reshape(len(cands), -1)
    return [tuple(sorted(row)) for row in rows.tolist()]


def test_build_grid_two_elements():
    grid = build_grid(1, 2, 0.5)
    assert grid.n_elements == 2
    assert np.array_equal(grid.positions, [[0.0, 0.0], [0.5, 0.0]])


def test_build_grid_positions_cover_and_scale():
    grid = build_grid(8, 8, 0.25)
    assert grid.positions.shape == (64, 1 + 1)
    assert grid.positions.max(axis=0).tolist() == [1.75, 1.75]
    # row-major ids: element (r, c) sits at (c*spacing, r*spacing)
    assert grid.positions[8 * 3 + 5].tolist() == [5 * 0.25, 3 * 0.25]


def test_build_grid_pairwise_distance_multiset():
    pos = build_grid(2, 2, 0.5).positions
    dists = sorted(float(np.hypot(*(pos[i] - pos[j])))
                   for i in range(4) for j in range(i + 1, 4))
    assert dists == pytest.approx([0.5, 0.5, 0.5, 0.5, math.sqrt(0.5), math.sqrt(0.5)])


@pytest.mark.parametrize("rows,cols,spacing", [(0, 4, 0.5), (4, 0, 0.5), (4, 4, 0.0),
                                               (4, 4, -0.1)])
def test_build_grid_rejects_bad_shapes(rows, cols, spacing):
    with pytest.raises(ValueError):
        build_grid(rows, cols, spacing)


@pytest.mark.parametrize("mode,count,size", [
    (GranularityMode.element(), 64, 1),
    (GranularityMode.group(2, 2), 16, 4),
    (GranularityMode.block(4, 4), 4, 16),
])
def test_partition_unit_counts(mode, count, size):
    part = partition(build_grid(8, 8, 0.5), mode)
    assert part.unit_count == count
    assert part.elements.shape == (count, size)
    assert sorted(part.elements.ravel().tolist()) == list(range(64))  # disjoint full cover


def test_partition_rejects_non_dividing_tile():
    with pytest.raises(InfeasibleConstraintError):
        partition(build_grid(8, 8, 0.5), GranularityMode.group(3, 3))


def test_partition_tiles_are_contiguous_rectangles():
    part = partition(build_grid(4, 6, 1.0), GranularityMode.group(2, 3))
    # unit 0 is the top-left 2x3 tile in row-major ids, unit 1 the tile to its right
    assert part.elements.tolist() == [[0, 1, 2, 6, 7, 8], [3, 4, 5, 9, 10, 11],
                                      [12, 13, 14, 18, 19, 20], [15, 16, 17, 21, 22, 23]]
    assert part.unit_of_element.tolist() == [0, 0, 0, 1, 1, 1] * 2 + [2, 2, 2, 3, 3, 3] * 2


def test_mode_labels_round_trip():
    for mode in (GranularityMode.element(), GranularityMode.group(2, 2),
                 GranularityMode.block(4, 4)):
        assert GranularityMode.parse(mode.label) == mode
    with pytest.raises(ValueError):
        GranularityMode.parse("group:2")


def test_default_spacing_rule():
    assert default_min_unit_spacing(GranularityMode.element()) == 0.0
    assert default_min_unit_spacing(GranularityMode.group(2, 2)) == 0.5
    assert default_min_unit_spacing(GranularityMode.block(4, 4)) == 0.5


def test_enumerate_block_mode_gives_one_config_per_block():
    part = partition(build_grid(8, 8, 0.5), GranularityMode.block(4, 4))
    for spacing in (0.0, 0.5):
        cands = enumerate_candidates(part, 16, 512, spacing, seed=1)
        assert len(cands) == 4
        assert cands.units.tolist() == [[0], [1], [2], [3]]


def test_enumerate_group_mode_exhaustive_count():
    part = partition(build_grid(8, 8, 0.5), GranularityMode.group(2, 2))
    for spacing in (0.0, 0.5):  # group centres sit 1.0 apart, so 0.5 rejects none
        cands = enumerate_candidates(part, 16, 2000, spacing, seed=1)
        assert len(cands) == math.comb(16, 4)
        seen = {tuple(row) for row in cands.units.tolist()}
        assert len(seen) == 1820  # all distinct


def test_enumerate_diagonal_spacing_filter():
    part = partition(build_grid(2, 2, 0.5), GranularityMode.element())
    cands = enumerate_candidates(part, 2, 16, 0.6, seed=1)
    actives = sorted(_element_sets(cands))
    assert actives == [(0, 3), (1, 2)]  # only the diagonals reach 0.7071


def test_enumerate_subsamples_uniformly_without_replacement():
    part = partition(build_grid(8, 8, 0.5), GranularityMode.group(2, 2))
    cands = enumerate_candidates(part, 16, 100, 0.0, seed=9)
    assert len(cands) == 100
    units = [tuple(row) for row in cands.units.tolist()]
    assert len(set(units)) == 100
    assert units == sorted(units)  # ids assigned in lexicographic layout order


def test_enumerate_rejection_path_on_large_space():
    # 64 single-element units exceeds the exhaustive-enumeration limit
    part = partition(build_grid(8, 8, 0.5), GranularityMode.element())
    cands = enumerate_candidates(part, 16, 256, 0.0, seed=5)
    assert len(cands) == 256
    layouts = set(_element_sets(cands))
    assert len(layouts) == 256


def test_enumerate_rejects_n_act_off_the_unit_size():
    part = partition(build_grid(8, 8, 0.5), GranularityMode.group(2, 2))
    with pytest.raises(InfeasibleConstraintError, match="multiple of the unit size 4"):
        enumerate_candidates(part, 6, 10, 0.0, seed=1)
    with pytest.raises(ValueError) as caught:
        enumerate_candidates(part, 0, 10, 0.0, seed=1)
    assert not isinstance(caught.value, InfeasibleConstraintError)


def test_enumerate_warns_when_rejection_sampling_falls_short():
    # 25 single-element units are sampled, not enumerated; at a pitch of 0.5
    # only the 10 element pairs at least 2.5 apart pass the spacing rule.
    grid = build_grid(5, 5, 0.5)
    part = partition(grid, GranularityMode.element())
    with pytest.warns(UserWarning, match="requested 50 candidates but found 10 in 10000 attempts"):
        cands = enumerate_candidates(part, 2, 50, 2.5, seed=4)
    pos = grid.positions
    feasible = {(a, b) for a in range(25) for b in range(a + 1, 25)
                if np.hypot(*(pos[a] - pos[b])) >= 2.5}
    assert set(_element_sets(cands)) == feasible


def _bad_pairs(part, min_unit_spacing):
    """Element-mode unit pairs closer than ``min_unit_spacing``; None when the
    rule is off."""
    if not min_unit_spacing:
        return None
    pos = part.grid.positions[part.elements[:, 0]]
    bad = np.hypot(*(pos[:, None] - pos[None, :]).transpose(2, 0, 1)) < min_unit_spacing
    np.fill_diagonal(bad, False)
    return bad


def _draw_by_draw(unit_count, n_units, m_samples, bad, seed, budget=None):
    """The rejection sampler written out one ``Generator.choice`` call per
    draw: each draw is sorted into a tuple and kept if it is new and no pair
    of ``bad`` rules it out. Returns the kept tuples, sorted, and the attempts
    spent. ``budget`` defaults to the sampler's, max(10 000, 200 m_samples)."""
    budget = max(10_000, 200 * m_samples) if budget is None else budget
    rng = np.random.default_rng(seed)
    found, attempts = set(), 0
    while len(found) < m_samples and attempts < budget:
        attempts += 1
        draw = tuple(sorted(rng.choice(unit_count, size=n_units, replace=False).tolist()))
        if draw not in found and (bad is None or not bad[np.ix_(draw, draw)].any()):
            found.add(draw)
    return sorted(found), attempts


def _rows(cands):
    return [tuple(row) for row in cands.units.tolist()]


@pytest.mark.parametrize("seed", [1, 2, 3, 4])
@pytest.mark.parametrize("n_act, spacing", [(4, 0.0), (8, 0.0), (4, 0.6), (8, 0.6)])
def test_rejection_sampler_keeps_the_draw_by_draw_stream(seed, n_act, spacing):
    part = partition(build_grid(8, 8, 0.5), GranularityMode.element())
    expect, _ = _draw_by_draw(64, n_act, 40, _bad_pairs(part, spacing), seed)
    cands = enumerate_candidates(part, n_act, 40, spacing, seed=seed)
    assert _rows(cands) == expect


@pytest.mark.parametrize("seed", [3, 5])
def test_rejection_sampler_shortfall_keeps_the_draw_by_draw_stream(seed):
    # Fourteen of 64 elements with no two adjacent: 10 000 attempts find
    # fewer than 40 such layouts.
    part = partition(build_grid(8, 8, 0.5), GranularityMode.element())
    expect, attempts = _draw_by_draw(64, 14, 40, _bad_pairs(part, 0.6), seed)
    assert attempts == 10_000 and len(expect) < 40
    with pytest.warns(UserWarning, match=f"found {len(expect)} in 10000 attempts"):
        cands = enumerate_candidates(part, 14, 40, 0.6, seed=seed)
    assert _rows(cands) == expect


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_batched_draws_replay_choice_bit_for_bit(data):
    # Two chained batches give the sorted picks of the same number of
    # choice() calls and leave the generator in the same state.
    n = data.draw(st.integers(2, 80))
    k = data.draw(st.integers(1, n))
    count = data.draw(st.integers(2, 40))
    split = data.draw(st.integers(1, count - 1))
    seed = data.draw(st.integers(0, 2**32 - 1))
    one = np.random.default_rng(seed)
    expect = [sorted(one.choice(n, k, replace=False).tolist()) for _ in range(count)]
    batched = np.random.default_rng(seed)
    got = np.concatenate([geometry._choice_rows(batched, n, k, split),
                          geometry._choice_rows(batched, n, k, count - split)])
    assert got.tolist() == expect
    assert batched.bit_generator.state == one.bit_generator.state


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_sampler_keeps_the_draw_by_draw_attempts_and_rows(data):
    # Unit counts 2-80 on a 1-8 row grid of pitch 0.5, where a spacing of 0.6
    # rules out neighbours. Small spaces run out of subsets, so the budget ends
    # many runs; it is cut to max(2 000, 5 m) to keep those runs short.
    n = data.draw(st.integers(2, 80))
    rows = max(r for r in range(1, 9) if n % r == 0 and r * r <= n)
    part = partition(build_grid(rows, n // rows, 0.5), GranularityMode.element())
    k = data.draw(st.integers(1, n))
    bad = _bad_pairs(part, data.draw(st.sampled_from([0.0, 0.6])))
    m = data.draw(st.integers(1, 300))
    seed = data.draw(st.integers(0, 2**32 - 1))
    expect, attempts = _draw_by_draw(n, k, m, bad, seed, budget=max(2_000, 5 * m))
    with mock.patch.multiple(geometry, _MIN_ATTEMPTS=2_000, _ATTEMPTS_PER_SAMPLE=5):
        chosen, spent = geometry._sample(n, k, m, bad, seed)
    assert ([tuple(row) for row in chosen.tolist()], spent) == (expect, attempts)


def test_sampler_keeps_the_stream_through_many_repeated_draws():
    # 200 of the 300 pairs of 25 units: later draws mostly repeat kept pairs.
    part = partition(build_grid(5, 5, 0.5), GranularityMode.element())
    expect, attempts = _draw_by_draw(25, 2, 200, None, 6)
    assert len(expect) == 200 and attempts > 250
    assert geometry._sample(25, 2, 200, None, 6)[1] == attempts
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _rows(enumerate_candidates(part, 2, 200, 0.0, seed=6)) == expect


@pytest.mark.parametrize("rows, cols, n_units", [
    (100, 100, 201),  # 10 000 units: choice() runs Floyd's algorithm
    (73, 137, 200),   # 10 001 units, but n_units <= 10 001 // 50: Floyd's algorithm
    (73, 137, 201),   # 10 001 units and n_units > 10 001 // 50: choice()'s tail shuffle
])
def test_sampler_keeps_the_stream_on_both_sides_of_numpys_tail_shuffle(rows, cols, n_units):
    part = partition(build_grid(rows, cols, 0.5), GranularityMode.element())
    expect, attempts = _draw_by_draw(rows * cols, n_units, 3, None, 8)
    assert attempts == 3
    assert _rows(enumerate_candidates(part, n_units, 3, 0.0, seed=8)) == expect


@pytest.mark.parametrize("seed", [1, 2])
def test_a_space_no_larger_than_m_samples_is_listed_outright(seed):
    # 25 subsets of 24 out of 25 units: the sampler finds them all, then
    # spends its whole budget; listing them gives the same rows, unwarned.
    part = partition(build_grid(5, 5, 0.5), GranularityMode.element())
    expect, attempts = _draw_by_draw(25, 24, 40, None, seed)
    assert len(expect) == 25 and attempts == 10_000
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _rows(enumerate_candidates(part, 24, 40, 0.0, seed=seed)) == expect
        full = enumerate_candidates(partition(build_grid(8, 8, 0.5), GranularityMode.element()),
                                    62, 4096, 0.0, seed=seed)
    assert len(full) == math.comb(64, 62)


def test_enumerate_is_deterministic():
    part = partition(build_grid(8, 8, 0.5), GranularityMode.element())
    a = enumerate_candidates(part, 16, 64, 0.0, seed=7)
    b = enumerate_candidates(part, 16, 64, 0.0, seed=7)
    assert np.array_equal(a.units, b.units)
    c = enumerate_candidates(part, 16, 64, 0.0, seed=8)
    assert not np.array_equal(a.units, c.units)


@pytest.mark.parametrize("mode", [GranularityMode.element(), GranularityMode.group(2, 2)])
def test_enumerate_without_a_spacing_applies_the_mode_rule(mode):
    part = partition(build_grid(8, 8, 0.5), mode)
    auto = enumerate_candidates(part, 16, 64, None, seed=4)
    rule = enumerate_candidates(part, 16, 64, default_min_unit_spacing(mode), seed=4)
    assert auto.min_unit_spacing == default_min_unit_spacing(mode)
    assert np.array_equal(auto.units, rule.units)


def test_enumerate_spacing_rule_holds_on_every_output():
    grid = build_grid(4, 4, 0.5)
    part = partition(grid, GranularityMode.element())
    cands = enumerate_candidates(part, 3, 200, 0.9, seed=2)
    for row in cands.units:
        assert min_pairwise_spacing(part, row) >= 0.9


@pytest.mark.parametrize("n_act,m_samples,spacing,err", [
    (16, 0, 0.0, ValueError),
    (16, 10, -1.0, ValueError),
    (3, 10, 0.0, ValueError),          # not a multiple of the 4-element unit
    (80, 10, 0.0, InfeasibleConstraintError),  # needs 20 of 16 units
])
def test_enumerate_rejects_bad_arguments(n_act, m_samples, spacing, err):
    part = partition(build_grid(8, 8, 0.5), GranularityMode.group(2, 2))
    with pytest.raises(err):
        enumerate_candidates(part, n_act, m_samples, spacing, seed=1)


def test_enumerate_impossible_spacing_is_infeasible():
    part = partition(build_grid(2, 2, 0.5), GranularityMode.element())
    with pytest.raises(InfeasibleConstraintError):
        enumerate_candidates(part, 2, 16, 10.0, seed=1)


def test_min_pairwise_spacing_single_unit_sentinel():
    grid = build_grid(8, 8, 0.5)
    part = partition(grid, GranularityMode.block(4, 4))
    assert min_pairwise_spacing(part, [2]) == math.inf


def test_min_pairwise_spacing_adjacent_elements():
    grid = build_grid(8, 8, 0.5)
    part = partition(grid, GranularityMode.element())
    assert min_pairwise_spacing(part, [0, 1]) == 0.5


def test_min_pairwise_spacing_matches_brute_force():
    grid = build_grid(8, 8, 0.5)
    part = partition(grid, GranularityMode.group(2, 2))
    corner_units = [0, 3, 12, 15]  # tile corners of the 4x4 unit grid
    cent = unit_centroids(part)
    brute = min(float(np.hypot(*(cent[a] - cent[b])))
                for i, a in enumerate(corner_units)
                for b in corner_units[i + 1:])
    assert min_pairwise_spacing(part, corner_units) == pytest.approx(brute)


def test_layout_distance_hand_values():
    grid = build_grid(8, 8, 0.5)
    part = partition(grid, GranularityMode.element())
    a = range(16)
    assert layout_distance(part, a, a) == 0
    assert layout_distance(part, a, range(16, 32)) == 32  # disjoint supports
    c = list(range(12)) + [40, 41, 42, 43]
    assert layout_distance(part, a, c) == 8  # 12 shared of 16
    # a 2x2 unit holds four elements, so one unit swapped moves eight
    group = partition(grid, GranularityMode.group(2, 2))
    assert layout_distance(group, [0, 1], [0, 2]) == 8


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sets(st.integers(0, 15), min_size=1, max_size=8),
                min_size=3, max_size=3))
def test_layout_distance_is_a_metric(unit_sets):
    part = partition(build_grid(4, 4, 0.5), GranularityMode.element())
    a, b, c = (sorted(s) for s in unit_sets)
    dab, dba = layout_distance(part, a, b), layout_distance(part, b, a)
    assert dab == dba >= 0
    assert (dab == 0) == (a == b)
    assert dab <= layout_distance(part, a, c) + layout_distance(part, c, b)


def test_masks_activate_the_tiles_of_each_unit_row():
    for mode in (GranularityMode.element(), GranularityMode.group(2, 2),
                 GranularityMode.block(4, 4)):
        part = partition(build_grid(8, 8, 0.5), mode)
        cands = enumerate_candidates(part, 16, 10, 0.0, seed=1)
        masks = cands.masks()
        assert masks.shape == (len(cands), 64)
        gr, gc = mode.unit_rows, mode.unit_cols
        tiles_per_row = 8 // gc
        for i, row in enumerate(cands.units.tolist()):
            # unit u is the tile at tile row u // tiles_per_row, tile column
            # u % tiles_per_row; its elements follow from the grid alone
            expected = np.zeros(64)
            for u in row:
                tr, tc = divmod(u, tiles_per_row)
                for r in range(tr * gr, (tr + 1) * gr):
                    for c in range(tc * gc, (tc + 1) * gc):
                        expected[8 * r + c] = 1.0
            assert np.array_equal(masks[i], expected)
            assert masks[i].sum() == 16
        assert cands.masks() is masks and not masks.flags.writeable


def test_unit_and_element_arrays_are_read_only(tmp_path):
    part = partition(build_grid(8, 8, 0.5), GranularityMode.group(2, 2))
    cands = enumerate_candidates(part, 16, 64, 0.0, seed=1)
    save_candidate_set(cands, tmp_path / "cands.txt")
    loaded = load_candidate_set(tmp_path / "cands.txt")
    for array in (part.elements, part.unit_of_element, cands.units, loaded.units):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0


def test_reference_functions_reject_empty_or_out_of_range_units():
    part = partition(build_grid(4, 4, 0.5), GranularityMode.element())
    for units, message in (([], "at least one unit"),
                           ([99], "out of range for 16 units"),
                           ([-1, 3], "out of range for 16 units")):
        with pytest.raises(ValueError, match=message):
            min_pairwise_spacing(part, units)
        with pytest.raises(ValueError, match=message):
            layout_distance(part, [0], units)
        with pytest.raises(ValueError, match=message):
            layout_distance(part, units, [0])


def test_candidate_set_round_trip(tmp_path):
    part = partition(build_grid(4, 4, 0.5), GranularityMode.group(2, 2))
    cands = enumerate_candidates(part, 8, 20, 0.5, seed=3)
    path = tmp_path / "cands.txt"
    save_candidate_set(cands, path)
    loaded = load_candidate_set(path)
    assert loaded.grid == cands.grid == part.grid
    assert loaded.partition.mode == cands.partition.mode
    assert loaded.seed == cands.seed
    assert loaded.min_unit_spacing == cands.min_unit_spacing
    assert np.array_equal(loaded.units, cands.units)
    assert _element_sets(loaded) == _element_sets(cands)


def test_load_candidate_set_rejects_partial_units(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("\n".join([
        "# frisim candidate-set v1",
        "rows=4", "cols=4", "spacing=0.5", "mode=group:2x2",
        "min_unit_spacing=0", "seed=1", "count=1",
        "config=0,1,4",  # three elements cannot cover a 2x2 unit
    ]) + "\n")
    with pytest.raises(ValueError):
        load_candidate_set(path)


def test_load_candidate_set_rejects_count_mismatch(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("\n".join([
        "# frisim candidate-set v1",
        "rows=4", "cols=4", "spacing=0.5", "mode=element",
        "min_unit_spacing=0", "seed=1", "count=2",
        "config=0",
    ]) + "\n")
    with pytest.raises(ValueError):
        load_candidate_set(path)


def _candidate_file(tmp_path, *config_lines):
    path = tmp_path / "hand.txt"
    path.write_text("\n".join([
        "# frisim candidate-set v1",
        "rows=2", "cols=2", "spacing=0.5", "mode=element",
        "min_unit_spacing=0", "seed=1", f"count={len(config_lines)}",
        *config_lines,
    ]) + "\n")
    return path


def test_load_candidate_set_rejects_mixed_unit_counts(tmp_path):
    with pytest.raises(ValueError, match="mixes configurations of 1 and 2 units"):
        load_candidate_set(_candidate_file(tmp_path, "config=0", "config=1,2"))


def test_load_candidate_set_rejects_a_file_without_configurations(tmp_path):
    with pytest.raises(ValueError, match="no config= line"):
        load_candidate_set(_candidate_file(tmp_path))


def test_load_candidate_set_rejects_an_empty_config_line(tmp_path):
    with pytest.raises(ValueError, match="at least one unit"):
        load_candidate_set(_candidate_file(tmp_path, "config=0", "config="))


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines + ["seed=2"], "candidate-set file repeats key 'seed'"),
    (lambda lines: [line for line in lines if not line.startswith("mode=")],
     "candidate-set file is missing key 'mode'"),
    (lambda lines: lines + ["foo=bar"], "candidate-set file has a stray line 'foo=bar'"),
], ids=["repeated-key", "missing-key", "stray-line"])
def test_load_candidate_set_rejects_a_broken_container(tmp_path, edit, message):
    part = partition(build_grid(4, 4, 0.5), GranularityMode.element())
    path = tmp_path / "cands.txt"
    save_candidate_set(enumerate_candidates(part, 2, 5, 0.0, seed=1), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=message):
        load_candidate_set(path)
