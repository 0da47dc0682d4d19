"""Metamorphic contract of the design and detection layers.

Rerun equality cannot catch a deterministic bug. These relations hold
exactly, so they check a rewritten selector or detection engine without a
reference output:

* permuting ``simulate_ber_curve``'s noise levels permutes its error counts,
  because every level scales the same noise draws;
* a ``truth`` map equal to the design map gives the matched counts;
* multiplying the map (and the truth) by a power of two keeps the greedy
  members, multiplies ``d_min`` by exactly a^2 and leaves every count alone,
  because ``noise_for_snr_db`` scales with the received energy and a power of
  two scales every float operation without rounding.

Each holds on small random pools (hypothesis) and on the design of one
scenario A seed.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frisim.channel import MapProvenance, ResponseMap, load_response_map
from frisim.codebook import METHOD_GREEDY, pairwise_distances, select_maxmin_greedy
from frisim.detection import noise_for_snr_db, simulate_ber_curve
from frisim.pipeline import SCENARIO_A_SNR, design_artifacts, scenario_a_config

SCALES = (0.5, 2.0, 8.0)
SMALL_SNR_DB = (-5.0, 0.0, 5.0, 10.0)


def _map_of(values: np.ndarray) -> ResponseMap:
    return ResponseMap(values=values, provenance=MapProvenance(0, 0.0, "none"))


def _counts(codebook, design_map, snr_db, trials, seed, truth=None, order=None):
    """Error counts of one curve over ``snr_db``, its levels passed in ``order``."""
    levels = [noise_for_snr_db(codebook, design_map, snr) for snr in snr_db]
    order = range(len(levels)) if order is None else order
    curve = simulate_ber_curve(codebook, design_map, [levels[i] for i in order], trials,
                               seed=seed, truth=truth)
    return [est.errors for est in curve]


def check_level_order(design_map, k, snr_db, trials, seed, order):
    codebook = select_maxmin_greedy(pairwise_distances(design_map), k)
    counts = _counts(codebook, design_map, snr_db, trials, seed)
    assert _counts(codebook, design_map, snr_db, trials, seed, order=order) == [
        counts[i] for i in order]
    return counts


def check_matched_truth(design_map, k, snr_db, trials, seed):
    codebook = select_maxmin_greedy(pairwise_distances(design_map), k)
    counts = _counts(codebook, design_map, snr_db, trials, seed)
    truth = _map_of(design_map.values.copy())
    assert _counts(codebook, design_map, snr_db, trials, seed, truth=truth) == counts
    return counts


def check_scale(design_map, k, snr_db, trials, seed, truth=None):
    codebook = select_maxmin_greedy(pairwise_distances(design_map), k)
    counts = _counts(codebook, design_map, snr_db, trials, seed, truth=truth)
    for a in SCALES:
        scaled = _map_of(design_map.values * a)
        scaled_truth = None if truth is None else _map_of(truth.values * a)
        scaled_codebook = select_maxmin_greedy(pairwise_distances(scaled), k)
        assert scaled_codebook.members == codebook.members, a
        assert scaled_codebook.d_min == codebook.d_min * a * a, a
        assert _counts(scaled_codebook, scaled, snr_db, trials, seed,
                       truth=scaled_truth) == counts, a
    return counts


@st.composite
def _pools(draw):
    """A random complex map of 2-12 candidates on 1-4 antennas, a codebook
    size, a detection seed and a calibration error for the truth map."""
    m = draw(st.integers(2, 12))
    r = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r))
    error = 0.3 * (rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))
    return _map_of(values), draw(st.integers(2, m)), draw(st.integers(0, 2**32 - 1)), error


@settings(max_examples=40, deadline=None)
@given(_pools(), st.permutations(range(len(SMALL_SNR_DB))))
def test_permuting_noise_levels_permutes_the_counts(pool, order):
    design_map, k, seed, _ = pool
    check_level_order(design_map, k, SMALL_SNR_DB, 400, seed, order)


@settings(max_examples=40, deadline=None)
@given(_pools())
def test_truth_equal_to_the_design_map_gives_the_matched_counts(pool):
    design_map, k, seed, _ = pool
    check_matched_truth(design_map, k, SMALL_SNR_DB, 400, seed)


@settings(max_examples=40, deadline=None)
@given(_pools(), st.booleans())
def test_scaling_the_map_scales_d_min_and_keeps_members_and_counts(pool, calibrated):
    design_map, k, seed, error = pool
    truth = _map_of(design_map.values + error) if calibrated else None
    check_scale(design_map, k, SMALL_SNR_DB, 400, seed, truth)


@pytest.fixture(scope="module")
def scenario_a_map(tmp_path_factory) -> ResponseMap:
    """The response map that scenario A designs on for its first seed."""
    config = replace(scenario_a_config(seed_count=1), methods=(METHOD_GREEDY,))
    out = tmp_path_factory.mktemp("scenario_a_design")
    design_artifacts(config, out)
    return load_response_map(out / "response_map.txt")


@pytest.mark.parametrize("check", ["level_order", "matched_truth", "scale"])
def test_relations_hold_on_a_scenario_a_seed(scenario_a_map, check):
    k, trials, seed = 8, 2_000, 12345
    if check == "level_order":
        order = list(np.random.default_rng(0).permutation(len(SCENARIO_A_SNR)))
        counts = check_level_order(scenario_a_map, k, SCENARIO_A_SNR, trials, seed, order)
    elif check == "matched_truth":
        counts = check_matched_truth(scenario_a_map, k, SCENARIO_A_SNR, trials, seed)
    else:
        counts = check_scale(scenario_a_map, k, SCENARIO_A_SNR, trials, seed)
    # The low-SNR points must see errors, or the relation compares zeros only.
    assert counts[0] > 0
