import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frisim.channel import (ChannelParams, MapProvenance, ResponseMap,
                            build_response_map, coupling_matrix, draw_channel)
from frisim.codebook import (Codebook, DistanceMatrix, effective_size,
                             layout_distances, load_codebook,
                             pairwise_distances, response_distance,
                             save_codebook, select_codebook, select_layout_maxmin,
                             select_maxmin_exact, select_maxmin_greedy,
                             select_random, subset_d_min)
from frisim.geometry import (GranularityMode, InfeasibleConstraintError, build_grid,
                             enumerate_candidates, layout_distance, partition)


def _map_of(values) -> ResponseMap:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    return ResponseMap(values=arr, provenance=MapProvenance(0, 0.0, "none"))


def _scalar_distances(values) -> DistanceMatrix:
    return pairwise_distances(_map_of(np.asarray(values, dtype=complex)[:, None]))


def _brute_force_best(values: np.ndarray, k: int):
    best_d, best = -1.0, None
    for combo in itertools.combinations(range(values.shape[0]), k):
        d = min(values[a, b] for a, b in itertools.combinations(combo, 2))
        if d > best_d:
            best_d, best = d, combo
    return best, best_d


def test_response_distance_hand_values():
    assert response_distance(np.array([1 + 0j]), np.array([0 + 1j])) == 2.0
    assert response_distance(np.array([3 + 0j, 0j]), np.array([0j, 4 + 0j])) == 25.0
    h = np.array([0.3 - 1.2j, 2.0 + 0.1j])
    assert response_distance(h, h) == 0.0


def test_response_distance_shape_mismatch():
    with pytest.raises(ValueError):
        response_distance(np.zeros(2, dtype=complex), np.zeros(3, dtype=complex))


def test_pairwise_distances_single_candidate():
    d = pairwise_distances(_map_of([[1 + 2j, 0j]]))
    assert d.values.shape == (1, 1)
    assert d.values[0, 0] == 0.0


def test_pairwise_distances_match_response_distance_bitwise():
    rng = np.random.default_rng(3)
    values = rng.standard_normal((7, 4)) + 1j * rng.standard_normal((7, 4))
    d = pairwise_distances(_map_of(values))
    for i in range(7):
        for j in range(7):
            assert d.values[i, j] == response_distance(values[i], values[j])
    assert np.array_equal(d.values, d.values.T)
    assert np.all(np.diag(d.values) == 0.0)


@pytest.mark.parametrize("r", [1, 2, 4, 7, 8, 9, 16, 17, 130])
def test_pairwise_distances_across_row_blocks_match_response_distance(r):
    # Antenna counts on both sides of numpy's 8-term and 128-term summation
    # blocks, which neither function follows; 320 candidates make three row
    # blocks of 2**15 entries.
    m = 320
    rng = np.random.default_rng(r)
    values = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    d = pairwise_distances(_map_of(values)).values
    assert np.array_equal(d, d.T)
    for i in range(m):
        for j in range(i, m):
            assert d[i, j] == response_distance(values[i], values[j]), (i, j)


@pytest.mark.parametrize("r", [8, 9, 130])
def test_response_distance_sums_antenna_terms_in_index_order(r):
    rng = np.random.default_rng(r)
    a = rng.standard_normal((40, r)) + 1j * rng.standard_normal((40, r))
    b = rng.standard_normal((40, r)) + 1j * rng.standard_normal((40, r))
    blocked = 0
    for x, y in zip(a, b):
        diff = x - y
        terms = diff.real ** 2 + diff.imag ** 2
        total = 0.0
        for term in terms:
            total += term
        assert response_distance(x, y) == total
        blocked += float(np.sum(terms)) != total
    # numpy sums 8 or more terms in blocks, so some rows must differ from
    # the index order, or the assertions above could not tell them apart.
    assert blocked


def test_pairwise_distances_keep_degenerate_pairs():
    values = np.array([[1 + 1j], [1 + 1j], [0j]])
    d = pairwise_distances(_map_of(values))
    assert d.values[0, 1] == 0.0
    assert d.values[0, 2] == 2.0


def test_layout_distances_match_pairwise_layout_distance():
    part = partition(build_grid(4, 4, 0.5), GranularityMode.element())
    cands = enumerate_candidates(part, 4, 12, 0.0, seed=2)
    d = layout_distances(cands)
    for i, a in enumerate(cands.units):
        for j, b in enumerate(cands.units):
            assert d.values[i, j] == layout_distance(part, a, b)


@pytest.mark.parametrize("rows, cols, n_act, m", [(3, 5, 4, 40), (9, 9, 20, 240)])
def test_layout_distances_match_with_a_partial_mask_byte(rows, cols, n_act, m):
    # 15 and 81 elements leave a partial last mask byte; 240 candidates make
    # two row blocks.
    part = partition(build_grid(rows, cols, 0.5), GranularityMode.element())
    cands = enumerate_candidates(part, n_act, m, 0.0, seed=2)
    assert len(cands) == m
    d = layout_distances(cands)
    for i, a in enumerate(cands.units):
        for j, b in enumerate(cands.units):
            assert d.values[i, j] == layout_distance(part, a, b)


@pytest.mark.parametrize("rows, cols, n_act", [(4, 4, 4), (16, 17, 8)])
def test_layout_distances_use_the_smallest_unsigned_type_for_the_grid(rows, cols,
                                                                      n_act):
    # 16 elements fit uint8; 272 need uint16.
    part = partition(build_grid(rows, cols, 0.5), GranularityMode.element())
    cands = enumerate_candidates(part, n_act, 30, 0.0, seed=3)
    values = layout_distances(cands).values
    assert values.dtype.kind == "u"
    assert values.dtype == np.min_scalar_type(rows * cols)
    assert np.iinfo(values.dtype).max >= rows * cols
    for i, a in enumerate(cands.units[:5]):
        for j, b in enumerate(cands.units):
            assert values[i, j] == layout_distance(part, a, b)


def test_layout_greedy_on_integer_counts_matches_a_float64_copy():
    part = partition(build_grid(4, 4, 0.5), GranularityMode.element())
    cands = enumerate_candidates(part, 4, 40, 0.0, seed=5)
    layout = layout_distances(cands)
    as_float = DistanceMatrix(values=layout.values.astype(np.float64), domain_tag="layout")
    response = _scalar_distances(np.arange(len(cands)))
    for k in range(2, 9):
        assert (select_layout_maxmin(layout, response, k).members
                == select_layout_maxmin(as_float, response, k).members)

    # Every pair tied: both start from (0, 1) and take the lowest id each step.
    tied = np.full((5, 5), 2, dtype=np.uint8)
    np.fill_diagonal(tied, 0)
    for values in (tied, tied.astype(np.float64)):
        codebook = select_layout_maxmin(DistanceMatrix(values, "layout"),
                                        _scalar_distances(np.arange(5)), 4)
        assert codebook.members == (0, 1, 2, 3)


def test_greedy_selection_on_scalar_line():
    distances = _scalar_distances([0.0, 1.0, 2.0, 5.0])
    pair = select_maxmin_greedy(distances, 2)
    assert pair.members == (0, 3)
    assert pair.d_min == 25.0
    assert pair.bit_width == 1.0
    triple = select_maxmin_greedy(distances, 3)
    assert triple.members == (0, 3, 2)
    assert triple.d_min == 4.0


def test_exact_selection_on_scalar_line():
    distances = _scalar_distances([0.0, 1.0, 2.0, 5.0])
    assert select_maxmin_exact(distances, 2).d_min == 25.0
    exact = select_maxmin_exact(distances, 3)
    assert exact.d_min == 4.0
    # 4 = min over {0,2,5}: |0-2|^2=4; brute force confirms no better triple
    _, best_d = _brute_force_best(distances.values, 3)
    assert exact.d_min == best_d


def test_greedy_and_exact_agree_for_pairs():
    rng = np.random.default_rng(17)
    for _ in range(25):
        values = rng.standard_normal((9, 3)) + 1j * rng.standard_normal((9, 3))
        distances = pairwise_distances(_map_of(values))
        assert select_maxmin_greedy(distances, 2).d_min == \
               select_maxmin_exact(distances, 2).d_min


def test_exact_matches_brute_force_and_dominates_greedy():
    rng = np.random.default_rng(23)
    for _ in range(20):
        values = rng.standard_normal((10, 2)) + 1j * rng.standard_normal((10, 2))
        distances = pairwise_distances(_map_of(values))
        for k in (3, 4):
            exact = select_maxmin_exact(distances, k)
            _, best_d = _brute_force_best(distances.values, k)
            assert exact.d_min == best_d
            greedy = select_maxmin_greedy(distances, k)
            assert exact.d_min >= greedy.d_min
            assert greedy.d_min >= exact.d_min / 4.0  # squared-metric greedy bound


def test_selection_handles_identical_candidates():
    distances = pairwise_distances(_map_of(np.ones((5, 2), dtype=complex)))
    cb = select_maxmin_greedy(distances, 3)
    assert cb.d_min == 0.0
    assert len(set(cb.members)) == 3
    assert cb.members == (0, 1, 2)  # ties resolve to the lowest ids
    exact = select_maxmin_exact(distances, 3)
    assert exact.members == (0, 1, 2)


def _masked_greedy_pair(values: np.ndarray) -> tuple[int, int]:
    """First row-major maximum of the strict upper triangle."""
    masked = values.copy()
    masked[np.tril_indices(values.shape[0])] = -np.inf
    first, second = np.unravel_index(int(np.argmax(masked)), masked.shape)
    return int(first), int(second)


@pytest.mark.parametrize("seed", range(20))
def test_greedy_seed_pair_is_the_first_upper_triangle_maximum(seed):
    # Entries from {0, 1, 2} tie often, so the tie rule decides the pair.
    rng = np.random.default_rng(seed)
    m = 6
    upper = np.triu(rng.integers(0, 3, size=(m, m)), k=1).astype(float)
    values = upper + upper.T
    cb = select_maxmin_greedy(DistanceMatrix(values=values, domain_tag="response"), 3)
    assert cb.members[:2] == _masked_greedy_pair(values)


def test_greedy_on_an_all_zero_matrix_starts_from_the_first_pair():
    zeros = np.zeros((4, 4))
    response = DistanceMatrix(values=zeros, domain_tag="response")
    layout = DistanceMatrix(values=zeros, domain_tag="layout")
    assert select_maxmin_greedy(response, 3).members == (0, 1, 2)
    assert select_layout_maxmin(layout, response, 3).members == (0, 1, 2)


def test_selecting_every_candidate_returns_the_full_set():
    distances = _scalar_distances([0.0, 3.0, 7.0, 11.0])
    greedy = select_maxmin_greedy(distances, 4)
    assert sorted(greedy.members) == [0, 1, 2, 3]
    rand = select_random(distances, 4, seed=99)
    assert rand.members == (0, 1, 2, 3)


def test_selection_k_validation():
    distances = _scalar_distances([0.0, 1.0, 2.0])
    for select in (select_maxmin_greedy, select_maxmin_exact):
        with pytest.raises(ValueError):
            select(distances, 1)
        with pytest.raises(InfeasibleConstraintError,
                           match="cannot select k=4 members from 3 candidates"):
            select(distances, 4)
    with pytest.raises(ValueError):
        select_random(distances, 1, seed=0)


def test_exact_guard_points_at_greedy():
    values = np.zeros((40, 40))
    distances = DistanceMatrix(values=values, domain_tag="response")
    with pytest.raises(InfeasibleConstraintError, match="select_maxmin_greedy"):
        select_maxmin_exact(distances, 20)


def test_select_codebook_dispatches_to_each_selector():
    grid = build_grid(4, 4, 0.5)
    cands = enumerate_candidates(partition(grid, GranularityMode.element()), 4, 10, 0.0,
                                 seed=1)
    realization = draw_channel(grid, ChannelParams(rx_antennas=2, seed=3))
    response_map = build_response_map(cands, realization,
                                      coupling_matrix(grid, 0.6, "sinc"), 0.0, seed=0)
    distances = pairwise_distances(response_map)
    layout = layout_distances(cands)
    expected = {
        "response_maxmin_greedy": select_maxmin_greedy(distances, 4),
        "response_maxmin_exact": select_maxmin_exact(distances, 4),
        "random": select_random(distances, 4, seed=5),
        "layout_maxmin": select_layout_maxmin(layout, distances, 4),
    }
    for method, codebook in expected.items():
        assert select_codebook(method, distances, layout, 4, seed=5) == codebook
    expected["fixed_ris"] = select_codebook("fixed_ris", distances, None, 4, seed=5)
    assert expected["fixed_ris"].members == tuple(range(10))
    for method, codebook in expected.items():
        assert codebook.selection_method == method
        assert codebook.d_min == subset_d_min(distances.values, codebook.members)
        assert codebook.bit_width == math.log2(len(codebook.members))
    with pytest.raises(ValueError, match="layout"):
        select_codebook("layout_maxmin", distances, None, 4, seed=5)
    with pytest.raises(ValueError, match="no selector"):
        select_codebook("nearest", distances, layout, 4, seed=5)


def test_selectors_reject_wrong_domain():
    part = partition(build_grid(4, 4, 0.5), GranularityMode.element())
    cands = enumerate_candidates(part, 4, 8, 0.0, seed=1)
    layout = layout_distances(cands)
    with pytest.raises(ValueError):
        select_maxmin_greedy(layout, 2)
    response = _scalar_distances([0.0, 1.0, 2.0])
    with pytest.raises(ValueError):
        select_layout_maxmin(response, response, 2)
    with pytest.raises(ValueError):
        select_layout_maxmin(layout, layout, 2)
    with pytest.raises(ValueError, match="different candidates"):
        select_layout_maxmin(layout, response, 2)


def test_random_selection_is_seeded_and_uniform():
    distances = _scalar_distances([0.0, 1.0, 2.0, 5.0, 9.0, 12.0])
    assert select_random(distances, 2, seed=7).members == \
           select_random(distances, 2, seed=7).members
    counts = {}
    n = 10_000
    for seed in range(n):
        members = select_random(distances, 2, seed=seed).members
        counts[members] = counts.get(members, 0) + 1
    assert len(counts) == 15
    p = 1 / 15
    bound = 3 * math.sqrt(p * (1 - p) / n)
    for got in counts.values():
        assert abs(got / n - p) <= bound


def test_random_selection_reports_consistent_d_min():
    distances = _scalar_distances([0.0, 1.0, 2.0, 5.0])
    cb = select_random(distances, 3, seed=5)
    expect = min(distances.values[a, b]
                 for a, b in itertools.combinations(cb.members, 2))
    assert cb.d_min == expect


def test_layout_selection_picks_max_symmetric_difference_pair():
    part = partition(build_grid(4, 4, 0.5), GranularityMode.element())
    cands = enumerate_candidates(part, 4, 30, 0.0, seed=4)
    layout = layout_distances(cands)
    grid = build_grid(4, 4, 0.5)
    real = draw_channel(grid, ChannelParams(rx_antennas=4, seed=4))
    rmap = build_response_map(cands, real, coupling_matrix(grid, 0.0, "none"),
                              0.0, seed=0)
    cb = select_layout_maxmin(layout, pairwise_distances(rmap), 2)
    assert layout.values[cb.members[0], cb.members[1]] == layout.values.max()


def test_layout_selection_survives_identical_responses():
    # distinct layouts, all mapping to the same response; selection must not
    # crash and must report d_min 0 so the ambiguity stays visible downstream
    part = partition(build_grid(4, 4, 0.5), GranularityMode.element())
    cands = enumerate_candidates(part, 4, 10, 0.0, seed=6)
    layout = layout_distances(cands)
    rmap = _map_of(np.ones((len(cands), 4), dtype=complex))
    cb = select_layout_maxmin(layout, pairwise_distances(rmap), 3)
    assert cb.d_min == 0.0
    assert len(set(cb.members)) == 3


def test_layout_selection_loses_to_response_aware_selection_usually():
    grid = build_grid(4, 4, 0.5)
    part = partition(grid, GranularityMode.element())
    coupling = coupling_matrix(grid, 0.6, "sinc")
    wins = 0
    n = 100
    for seed in range(n):
        cands = enumerate_candidates(part, 4, 10, 0.0, seed=seed)
        real = draw_channel(grid, ChannelParams(rx_antennas=4, seed=seed))
        rmap = build_response_map(cands, real, coupling, 0.0, seed=0)
        distances = pairwise_distances(rmap)
        greedy = select_maxmin_greedy(distances, 4)
        lay = select_layout_maxmin(layout_distances(cands), distances, 4)
        wins += lay.d_min <= greedy.d_min
    assert wins >= 90


def test_effective_size_hand_trace():
    values = np.zeros((3, 3))
    values[0, 1] = values[1, 0] = 1.0
    values[0, 2] = values[2, 0] = 9.0
    values[1, 2] = values[2, 1] = 4.0
    distances = DistanceMatrix(values=values, domain_tag="response")
    cb = Codebook(members=(0, 1, 2), selection_method="response_maxmin_greedy",
                  d_min=1.0, bit_width=math.log2(3))
    # member 1 is within delta of member 0; member 2 clears both kept members
    assert effective_size(cb, distances, 2.0) == 2
    assert effective_size(cb, distances, 0.0) == 3
    assert effective_size(cb, distances, 100.0) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 50.0))
def test_effective_size_is_monotone_in_delta(seed, delta):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((6, 2)) + 1j * rng.standard_normal((6, 2))
    distances = pairwise_distances(_map_of(values))
    cb = select_maxmin_greedy(distances, 5)
    k_lo = effective_size(cb, distances, delta)
    k_hi = effective_size(cb, distances, delta + 1.0)
    assert 1 <= k_hi <= k_lo <= 5


def test_effective_size_rejects_negative_delta():
    distances = _scalar_distances([0.0, 1.0])
    cb = select_maxmin_greedy(distances, 2)
    with pytest.raises(ValueError):
        effective_size(cb, distances, -0.5)


def test_codebook_round_trip(tmp_path):
    distances = _scalar_distances([0.0, 1.0, 2.0, 5.0])
    for cb in (select_maxmin_greedy(distances, 3),
               select_random(distances, 2, seed=11)):
        path = tmp_path / f"{cb.selection_method}.txt"
        save_codebook(cb, path)
        assert load_codebook(path) == cb


def test_load_codebook_rejects_unknown_method(tmp_path):
    path = tmp_path / "cb.txt"
    path.write_text("method=magic\nseed=none\nmembers=0,1\nd_min=1\nbit_width=1\n")
    with pytest.raises(ValueError):
        load_codebook(path)


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines + ["members=5,6,7"], "codebook file repeats key 'members'"),
    (lambda lines: [line for line in lines if not line.startswith("d_min=")],
     "codebook file is missing key 'd_min'"),
    (lambda lines: lines + ["foo=bar"], "codebook file has a stray line 'foo=bar'"),
], ids=["repeated-key", "missing-key", "stray-line"])
def test_load_codebook_rejects_a_broken_container(tmp_path, edit, message):
    path = tmp_path / "cb.txt"
    save_codebook(select_maxmin_greedy(_scalar_distances([0.0, 1.0, 3.0]), 2), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=message):
        load_codebook(path)


def test_load_codebook_rejects_a_second_members_line(tmp_path):
    path = tmp_path / "cb.txt"
    path.write_text("method=random\nseed=3\nmembers=0,1\nd_min=1\nbit_width=1\n"
                    "members=5,6,7\nfoo=bar\n")
    with pytest.raises(ValueError, match="codebook file repeats key 'members'"):
        load_codebook(path)
