import math

import numpy as np
import pytest

from frisim.channel import MapProvenance, ResponseMap
from frisim.codebook import (pairwise_distances, response_distance,
                             select_maxmin_greedy, select_random)
from frisim.detection import (BerEstimate, detect_index,
                              mean_pilot_energy, noise_for_snr_db,
                              pairwise_error_prob, q_function, simulate_ber,
                              simulate_ber_curve, union_bound)


def _map_of(values) -> ResponseMap:
    arr = np.asarray(values, dtype=complex)
    if arr.ndim == 1:
        arr = arr[:, None]
    return ResponseMap(values=arr, provenance=MapProvenance(0, 0.0, "none"))


def _random_instance(seed, m=6, r=4):
    rng = np.random.default_rng(seed)
    return _map_of(rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))


def test_simulate_ber_rejects_a_nonpositive_or_nan_noise_level():
    rmap = _random_instance(3)
    cb = select_maxmin_greedy(pairwise_distances(rmap), 2)
    for n0 in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError, match="noise_n0 must be positive"):
            simulate_ber(cb, rmap, n0, trials=10, seed=1)


def test_ber_estimate_counts_and_ci():
    est = BerEstimate.from_counts(400, 60)
    assert est.p_hat == 0.15
    assert est.ci95_half_width == 1.96 * math.sqrt(0.15 * 0.85 / 400)
    assert BerEstimate.from_counts(10, 0).ci95_half_width == 0.0
    with pytest.raises(ValueError):
        BerEstimate.from_counts(0, 0)
    with pytest.raises(ValueError):
        BerEstimate.from_counts(10, 11)


def test_detect_index_noiseless_recovers_every_index():
    rmap = _random_instance(1)
    for i in range(len(rmap)):
        assert detect_index(rmap.values[i], rmap.values) == i


def test_detect_index_tie_breaks_to_lowest():
    h = np.array([1 + 1j, -2j])
    rmap = _map_of([h, h, h * 0])
    assert detect_index(h, rmap.values) == 0


def test_detect_index_midpoint_geometry():
    # responses at 0 and 2 on the real line: the decision boundary is at 1
    rmap = _map_of([[0j], [2 + 0j]])
    assert detect_index(np.array([0.99 + 0j]), rmap.values) == 0
    assert detect_index(np.array([1.01 + 0j]), rmap.values) == 1
    assert detect_index(np.array([1.0 + 0j]), rmap.values) == 0  # exact tie


def test_simulate_ber_noiseless_limit_is_error_free():
    rmap = _random_instance(2)
    cb = select_maxmin_greedy(pairwise_distances(rmap), 4)
    est = simulate_ber(cb, rmap, 1e-12, trials=4000, seed=3)
    assert est.errors == 0
    assert est.p_hat == 0.0


def test_simulate_ber_binary_matches_q_function():
    rmap = _random_instance(5, m=2, r=4)
    cb = select_maxmin_greedy(pairwise_distances(rmap), 2)
    d = cb.d_min
    for x, trials, seed in ((1.0, 100_000, 7), (1.2, 200_000, 9)):
        n0 = d / (2.0 * x ** 2)  # puts the analytic rate at Q(x)
        est = simulate_ber(cb, rmap, n0, trials=trials, seed=seed)
        analytic = pairwise_error_prob(d, n0)
        assert analytic == pytest.approx(q_function(x), rel=1e-12)
        assert abs(est.p_hat - analytic) <= 3 * est.ci95_half_width


def test_simulate_ber_determinism_and_seed_sensitivity():
    rmap = _random_instance(8)
    cb = select_maxmin_greedy(pairwise_distances(rmap), 4)
    n0 = 2.0
    a = simulate_ber(cb, rmap, n0, trials=20_000, seed=1)
    b = simulate_ber(cb, rmap, n0, trials=20_000, seed=1)
    assert a == b
    c = simulate_ber(cb, rmap, n0, trials=20_000, seed=2)
    assert a.errors != c.errors


def test_simulate_ber_is_monotone_in_noise():
    rmap = _random_instance(9)
    cb = select_maxmin_greedy(pairwise_distances(rmap), 4)
    quiet = simulate_ber(cb, rmap, 0.05, trials=30_000, seed=4)
    loud = simulate_ber(cb, rmap, 5.0, trials=30_000, seed=4)
    assert quiet.p_hat < loud.p_hat


def test_simulate_ber_matched_truth_equals_default():
    rmap = _random_instance(10)
    cb = select_maxmin_greedy(pairwise_distances(rmap), 4)
    n0 = 1.0
    assert simulate_ber(cb, rmap, n0, trials=10_000, seed=5) == \
           simulate_ber(cb, rmap, n0, trials=10_000, seed=5, truth=rmap)


def test_simulate_ber_calibration_mismatch_hurts():
    rmap = _random_instance(11)
    cb = select_maxmin_greedy(pairwise_distances(rmap), 4)
    n0 = 0.2
    rng = np.random.default_rng(0)
    off = rmap.values + 0.8 * (rng.standard_normal(rmap.values.shape)
                               + 1j * rng.standard_normal(rmap.values.shape))
    truth = ResponseMap(values=off, provenance=rmap.provenance)
    matched = simulate_ber(cb, rmap, n0, trials=30_000, seed=6)
    mismatched = simulate_ber(cb, rmap, n0, trials=30_000, seed=6, truth=truth)
    assert mismatched.p_hat > matched.p_hat


def test_simulate_ber_rejects_zero_trials():
    rmap = _random_instance(12)
    cb = select_maxmin_greedy(pairwise_distances(rmap), 2)
    with pytest.raises(ValueError):
        simulate_ber(cb, rmap, 1.0, trials=0, seed=1)


def test_simulate_ber_curve_single_level_equals_simulate_ber():
    rmap = _random_instance(16)
    cb = select_maxmin_greedy(pairwise_distances(rmap), 4)
    curve = simulate_ber_curve(cb, rmap, [0.8], trials=20_000, seed=9)
    assert curve == [simulate_ber(cb, rmap, 0.8, trials=20_000, seed=9)]


def test_simulate_ber_curve_binary_matches_q_function_at_each_level():
    rmap = _random_instance(17, m=2, r=3)
    cb = select_maxmin_greedy(pairwise_distances(rmap), 2)
    xs = (0.75, 1.25, 2.0)
    levels = [cb.d_min / (2.0 * x * x) for x in xs]
    curve = simulate_ber_curve(cb, rmap, levels, trials=100_000, seed=11)
    assert [est.trials for est in curve] == [100_000] * 3
    for x, est in zip(xs, curve):
        assert abs(est.p_hat - q_function(x)) <= 3 * est.ci95_half_width, x


def test_simulate_ber_curve_counts_never_grow_as_noise_falls():
    # One noise draw serves every level, so in the matched case each trial's
    # received point moves along a ray and leaves its decision cell once.
    # Levels 1 % apart would cross often if each level drew its own noise.
    rmap = _random_instance(18, m=8)
    cb = select_random(pairwise_distances(rmap), 6, seed=2)
    levels = [2.0 * 0.99 ** i for i in range(60)]
    errors = [est.errors for est in
              simulate_ber_curve(cb, rmap, levels, trials=20_000, seed=12)]
    assert errors == sorted(errors, reverse=True)
    assert errors[0] > errors[-1]


def test_simulate_ber_curve_validation():
    rmap = _random_instance(19)
    cb = select_maxmin_greedy(pairwise_distances(rmap), 2)
    with pytest.raises(ValueError):
        simulate_ber_curve(cb, rmap, [1.0], trials=0, seed=1)
    with pytest.raises(ValueError):
        simulate_ber_curve(cb, rmap, [1.0, 0.0], trials=10, seed=1)
    assert simulate_ber_curve(cb, rmap, [], trials=10, seed=1) == []


def test_q_function_reference_values():
    assert q_function(0.0) == 0.5
    assert q_function(1.0) == pytest.approx(0.158655, abs=1e-6)
    assert q_function(3.0) == pytest.approx(1.3499e-3, rel=1e-3)
    assert q_function(-1.0) + q_function(1.0) == pytest.approx(1.0, rel=1e-15)


def test_pairwise_error_prob_values_and_limits():
    assert pairwise_error_prob(0.0, 1.0) == 0.5
    assert pairwise_error_prob(4.0, 2.0) == pytest.approx(0.15866, abs=1e-5)
    assert pairwise_error_prob(1e9, 1.0) == 0.0  # deep tail underflows to zero
    with pytest.raises(ValueError):
        pairwise_error_prob(-1.0, 1.0)
    with pytest.raises(ValueError):
        pairwise_error_prob(1.0, 0.0)


def test_union_bound_binary_case_is_exact():
    rmap = _random_instance(13, m=2)
    cb = select_maxmin_greedy(pairwise_distances(rmap), 2)
    d = response_distance(rmap.values[0], rmap.values[1])
    assert union_bound(cb, rmap, 0.7) == pairwise_error_prob(d, 0.7)


@pytest.mark.parametrize("r", [1, 4, 9])
def test_union_bound_equals_the_pairwise_sum_in_pair_order(r):
    # The K x K block holds response_distance's values, and the terms are
    # added in the same pair order, so the sum is bit-identical.
    rmap = _random_instance(30 + r, m=40, r=r)
    cb = select_random(pairwise_distances(rmap), 7, seed=r)
    responses = rmap.values[list(cb.members)]
    total = 0.0
    for i in range(7):
        for j in range(i + 1, 7):
            d = response_distance(responses[i], responses[j])
            total += 2.0 * pairwise_error_prob(d, 0.5)
    assert 0.0 < total / 7 < 1.0  # not clipped
    assert union_bound(cb, rmap, 0.5) == total / 7


def test_union_bound_clips_at_one_for_identical_codewords():
    rmap = _map_of(np.ones((4, 3), dtype=complex))
    cb = select_maxmin_greedy(pairwise_distances(rmap), 3)
    # every pairwise term is Q(0) = 0.5; the raw average exceeds 1
    assert union_bound(cb, rmap, 1.0) == 1.0


def test_union_bound_dominates_simulation():
    for seed in (21, 22, 23):
        rmap = _random_instance(seed, m=8)
        cb = select_random(pairwise_distances(rmap), 4, seed=seed)
        n0 = cb.d_min / 4.0 if cb.d_min > 0 else 1.0
        est = simulate_ber(cb, rmap, n0,
                           trials=100_000, seed=seed)
        assert union_bound(cb, rmap, n0) >= est.p_hat - 3 * est.ci95_half_width


def test_union_bound_needs_two_codewords():
    rmap = _random_instance(14)
    lonely = select_maxmin_greedy(pairwise_distances(rmap), 2)
    single = type(lonely)(members=(0,), selection_method=lonely.selection_method,
                          d_min=0.0, bit_width=0.0)
    with pytest.raises(ValueError):
        union_bound(single, rmap, 1.0)


def test_mean_pilot_energy_hand_instance():
    rmap = _map_of([[1 + 0j, 0j], [0j, 2 + 0j]])
    cb = select_maxmin_greedy(pairwise_distances(rmap), 2)
    assert mean_pilot_energy(cb, rmap) == pytest.approx((1.0 + 4.0) / 2, rel=1e-15)


def test_noise_for_snr_db_inverts_the_definition():
    rmap = _random_instance(15)
    cb = select_maxmin_greedy(pairwise_distances(rmap), 4)
    for snr_db in (-5.0, 0.0, 10.0):
        n0 = noise_for_snr_db(cb, rmap, snr_db)
        energy = mean_pilot_energy(cb, rmap)
        got = 10.0 * math.log10(energy / (rmap.rx_antennas * n0))
        assert got == pytest.approx(snr_db, abs=1e-12)


def test_noise_for_snr_db_rejects_zero_energy():
    rmap = _map_of(np.zeros((3, 2), dtype=complex))
    cb = select_maxmin_greedy(pairwise_distances(rmap), 2)
    with pytest.raises(ValueError):
        noise_for_snr_db(cb, rmap, 0.0)
