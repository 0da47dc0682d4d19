import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frisim import detection
from frisim.channel import MapProvenance, ResponseMap
from frisim.codebook import (Codebook, pairwise_distances, select_maxmin_greedy,
                             select_random)
from frisim.detection import (_BATCH, BerEstimate, _shared_draws, _skip_limits,
                              _unit_noise, mean_pilot_energy, noise_for_snr_db,
                              pairwise_error_prob, q_function, simulate_ber,
                              simulate_ber_curve, union_bound)
from oracles import detect_index, response_distance


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


def _scored_errors(values, levels, trials, seed, truth=None) -> list[int]:
    """Error counts of simulate_ber_curve's scoring loop run on every trial,
    with no reach test: the oracle of the skip."""
    scales = np.sqrt(np.asarray(levels, dtype=float) / 2.0)
    k, r = values.shape
    detect = np.concatenate((values.real, values.imag), axis=-1)
    source = detect if truth is None else np.concatenate((truth.real, truth.imag), axis=-1)
    offsets = np.sum(detect ** 2, axis=1) - 2.0 * (source @ detect.T)
    rng = np.random.default_rng(seed)
    errors = np.zeros(len(scales), dtype=np.int64)
    done = 0
    while done < trials:
        n = min(_BATCH, trials - done)
        true_idx = rng.integers(0, k, size=n)
        noise = rng.standard_normal((2, n, r))
        base = offsets[true_idx]
        proj = -2.0 * (noise[0] @ detect[:, :r].T + noise[1] @ detect[:, r:].T)
        for j, scale in enumerate(scales):
            errors[j] += np.count_nonzero(np.argmin(base + scale * proj, axis=1) != true_idx)
        done += n
    return errors.tolist()


def _whole(values) -> tuple[Codebook, ResponseMap]:
    """A codebook of every row of ``values``, and the map of those rows."""
    return (Codebook(members=tuple(range(len(values))), selection_method="hand",
                     d_min=0.0, bit_width=0.0), _map_of(values))


def _simulated_errors(values, levels, trials, seed, truth=None) -> list[int]:
    codebook, rmap = _whole(values)
    return [est.errors for est in simulate_ber_curve(
        codebook, rmap, levels, trials, seed, truth=None if truth is None else _map_of(truth))]


@st.composite
def _detection_cases(draw):
    """Random codebooks with k in {2, 3, 5, 8}, some with a duplicate codeword
    or a calibrated truth, at SNRs on both sides of the reach test's rule."""
    k = draw(st.sampled_from([2, 3, 5, 8]))
    r = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r))
    if draw(st.booleans()):
        values[-1] = values[0]  # D = 0
    sigma = draw(st.sampled_from([0.0, 0.1, 1.0]))  # 1.0 makes some mu negative
    truth = (values + sigma * (rng.standard_normal((k, r)) + 1j * rng.standard_normal((k, r)))
             if sigma else None)
    energy = float(np.mean(np.sum(np.abs(values) ** 2, axis=1)))
    snrs = draw(st.lists(st.floats(-10.0, 40.0), max_size=4))
    levels = [energy / (r * 10.0 ** (snr / 10.0)) for snr in snrs]
    trials = draw(st.sampled_from([1, 2, 3, 500, _BATCH + 300]))
    return values, truth, levels, trials, draw(st.integers(0, 2 ** 32 - 1))


@settings(max_examples=80, deadline=None)
@given(_detection_cases())
def test_reach_test_keeps_every_error_count_of_the_full_scoring(case):
    values, truth, levels, trials, seed = case
    assert _simulated_errors(values, levels, trials, seed, truth) == \
        _scored_errors(values, levels, trials, seed, truth)


def test_reach_test_runs_only_where_a_typical_trial_can_pass_it():
    values = _random_instance(40, m=5, r=3).values
    detect = np.concatenate((values.real, values.imag), axis=-1)
    offsets = np.sum(detect ** 2, axis=1) - 2.0 * (detect @ detect.T)
    quiet = _skip_limits(offsets, detect, np.array([1e-3, 1e-2]))
    assert quiet is not None and quiet.max() > 6
    assert _skip_limits(offsets, detect, np.array([1e-3, 3.0])) is None
    # Duplicate codewords, or a truth nearer another codeword: limit 0.
    twin = np.vstack((detect, detect[:1]))
    twin_offsets = np.sum(twin ** 2, axis=1) - 2.0 * (twin @ twin.T)
    limits = _skip_limits(twin_offsets, twin, np.array([1e-3]))
    assert limits[0] == limits[-1] == 0.0 and limits[1:-1].min() > 0
    swapped = offsets[[1, 0, 2, 3, 4]]  # sends codeword 1's response for index 0
    assert _skip_limits(swapped, detect, np.array([1e-3]))[0] == 0.0
    # Both sides give the full scoring's counts, over two batches.
    for level_sets in ([1e-4, 5e-3], [1e-4, 3.0], []):
        assert _simulated_errors(values, level_sets, _BATCH + 700, 4) == \
            _scored_errors(values, level_sets, _BATCH + 700, 4)


def test_reach_test_covers_every_level_not_only_the_quietest():
    # At the quiet level nearly every trial is safe; at the loud one many err.
    values = _random_instance(41, m=4, r=2).values
    energy = float(np.mean(np.sum(np.abs(values) ** 2, axis=1)))
    levels = [energy / (2 * 10.0 ** 4.0), energy / 2.0]
    counts = _simulated_errors(values, levels, 4000, 6)
    assert counts == _scored_errors(values, levels, 4000, 6)
    assert counts[1] > 100


def test_reach_test_keeps_the_trials_on_a_decision_boundary():
    # Two codewords, 0 and a = -2 c z (1 + delta) for one trial's unit noise
    # z sending index 1 at scale c = 1: that trial lands within a few ulps of
    # the boundary, where the computed argmin depends on rounding. The
    # slack must keep such a trial for scoring, never skip it.
    seed, trials = 3, 256
    rng = np.random.default_rng(seed)
    sent = rng.integers(0, 2, trials)
    noise = rng.standard_normal((2, trials, 1))[:, :, 0]
    norms = noise[0] ** 2 + noise[1] ** 2
    for j in np.flatnonzero((sent == 1) & (norms > 2.5)):
        for ulps in range(-4, 40):
            a = -2.0 * (1.0 + ulps * 2.0 ** -52) * complex(noise[0, j], noise[1, j])
            values = np.array([[0j], [a]])
            assert _simulated_errors(values, [2.0], trials, seed) == \
                _scored_errors(values, [2.0], trials, seed), (j, ulps)


def test_shared_draws_reuse_a_batch_only_from_the_same_generator_state():
    shape = (2, 40, 3)

    def after(k):
        rng = np.random.default_rng(9)
        if k:
            rng.integers(0, k, size=40)
        return rng

    with _shared_draws():
        first = after(8)
        kept = _unit_noise(first, 9, shape, True)
        # Lemire's draw never rejects on a power-of-two range, so k = 4
        # leaves the generator where k = 8 does, and the batch is reused.
        reused = after(4)
        assert _unit_noise(reused, 9, shape, True) is kept
        assert reused.bit_generator.state == first.bit_generator.state
        # No index draw: another state, so the noise is drawn afresh.
        fresh = after(0)
        drawn = _unit_noise(fresh, 9, shape, True)
        plain = after(0)
        assert np.array_equal(drawn, plain.standard_normal(shape))
        assert fresh.bit_generator.state == plain.bit_generator.state
        # The same state with another shape draws afresh too.
        other = after(8)
        assert _unit_noise(other, 9, (2, 40, 2), True).shape == (2, 40, 2)
        assert not kept.flags.writeable
    assert detection._draws is None
