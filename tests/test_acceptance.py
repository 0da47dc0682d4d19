"""Acceptance gate: one test per claim the toolkit is shipped against.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line per
claim. The first test runs the full 200-seed BER study and takes on the order
of half a minute; everything else finishes in seconds.
"""

import math

import numpy as np
import pytest

from frisim.channel import (ChannelParams, MapProvenance, ResponseMap,
                            build_response_map, coupling_matrix, draw_channel)
from frisim.codebook import (layout_distances, pairwise_distances,
                             select_layout_maxmin, select_maxmin_exact,
                             select_maxmin_greedy, select_random)
from frisim.detection import q_function, simulate_ber, union_bound
from frisim.geometry import (GranularityMode, build_grid, enumerate_candidates,
                             partition)
from frisim.pipeline import (reproduce_scenario_a, reproduce_scenario_b,
                             run_ber, run_sweep, scenario_a_config,
                             scenario_b_config)
from frisim.throughput import net_throughput


def _map_of(values) -> ResponseMap:
    return ResponseMap(values=np.asarray(values, dtype=complex),
                       provenance=MapProvenance(0, 0.0, "none"))


def _random_map(rng, m: int, r: int) -> ResponseMap:
    return _map_of(rng.standard_normal((m, r)) + 1j * rng.standard_normal((m, r)))


def test_ber_ordering_across_selection_methods():
    """Response-aware selection beats layout-aware, which beats random.

    Full study: 200 channel seeds, 10 000 trials per (seed, SNR) cell. At
    every SNR point where the greedy scheme's aggregated error rate lies in
    [1e-3, 1e-1], the three methods must be strictly ordered with gaps above
    3 combined standard errors.
    """
    tables = run_ber(scenario_a_config())
    est = {}
    for method, _k, _n, _mode, snr, _t, _e, p_hat, ci in (
            tables["ber_aggregate"].rows):
        est[(method, snr)] = (p_hat, ci / 1.96)
    snrs = sorted({snr for _m, snr in est})
    window = [s for s in snrs
              if 1e-3 <= est[("response_maxmin_greedy", s)][0] <= 1e-1]
    assert window, "greedy error rate never fell inside [1e-3, 1e-1]"
    for snr in window:
        p_g, se_g = est[("response_maxmin_greedy", snr)]
        p_l, se_l = est[("layout_maxmin", snr)]
        p_r, se_r = est[("random", snr)]
        assert p_g < p_l < p_r, f"ordering violated at {snr} dB"
        assert p_l - p_g > 3.0 * math.hypot(se_g, se_l), f"thin gap at {snr} dB"
        assert p_r - p_l > 3.0 * math.hypot(se_l, se_r), f"thin gap at {snr} dB"

    # The design-distance ordering the BER ordering rests on, seed-averaged.
    d_min: dict[str, list[float]] = {}
    for _seed, method, _k, _mode, value in tables["codebooks"].rows:
        d_min.setdefault(method, []).append(value)
    means = {m: float(np.mean(v)) for m, v in d_min.items()}
    assert (means["response_maxmin_greedy"] > means["layout_maxmin"]
            > means["random"])
    print(f"PASS ordering: window {window} dB, d_min means "
          f"greedy {means['response_maxmin_greedy']:.1f} > "
          f"layout {means['layout_maxmin']:.1f} > random {means['random']:.1f}")


def test_two_codeword_error_rate_matches_q_function():
    """Simulated two-codeword error rate agrees with Q(sqrt(d/(2 n0)))."""
    rng = np.random.default_rng(2026)
    worst = 0.0
    for i in range(20):
        r = int(rng.integers(1, 5))
        rmap = _random_map(rng, 2, r)
        codebook = select_maxmin_greedy(pairwise_distances(rmap), 2)
        x = float(rng.uniform(0.5, 2.5))
        n0 = codebook.d_min / (2.0 * x * x)
        est = simulate_ber(codebook, rmap, n0,
                           trials=10**6, seed=1000 + i)
        analytic = q_function(x)
        assert abs(est.p_hat - analytic) <= 3.0 * est.ci95_half_width, (
            f"instance {i}: p_hat {est.p_hat} vs analytic {analytic}")
        if est.ci95_half_width > 0:
            worst = max(worst, abs(est.p_hat - analytic) / est.ci95_half_width)
    print(f"PASS analytic match: worst |deviation|/ci95 = {worst:.2f} of 3.0")


def test_selection_optimality_properties():
    """Greedy equals exact at k=2; stays within half of exact for small k;
    exact dominates every other selector on every instance tested."""
    rng = np.random.default_rng(33)
    for i in range(100):
        m = int(rng.integers(6, 21))
        r = int(rng.integers(1, 5))
        distances = pairwise_distances(_random_map(rng, m, r))
        greedy = select_maxmin_greedy(distances, 2)
        exact = select_maxmin_exact(distances, 2)
        assert greedy.d_min == exact.d_min, f"k=2 instance {i}"
        assert exact.d_min >= select_random(distances, 2, seed=500 + i).d_min

    rng = np.random.default_rng(34)
    worst_ratio = math.inf
    for i in range(100):
        k = int(rng.integers(3, 6))
        m = int(rng.integers(k + 2, 15))
        distances = pairwise_distances(_random_map(rng, m, 4))
        greedy = select_maxmin_greedy(distances, k)
        exact = select_maxmin_exact(distances, k)
        assert exact.d_min >= greedy.d_min
        assert exact.d_min >= select_random(distances, k, seed=600 + i).d_min
        # Universal bound: squared distances relax the metric factor 2 to 4.
        assert greedy.d_min >= exact.d_min / 4.0
        assert greedy.d_min >= exact.d_min / 2.0, f"instance {i}"
        worst_ratio = min(worst_ratio, greedy.d_min / exact.d_min)

    # Geometry-backed instances so the layout selector competes too.
    grid = build_grid(4, 4, 0.5)
    part = partition(grid, GranularityMode.element())
    for s in range(5):
        candidates = enumerate_candidates(part, 4, 24, 0.0, seed=40 + s)
        realization = draw_channel(grid, ChannelParams(
            rx_antennas=2, fading="rayleigh", seed=900 + s))
        coupling = coupling_matrix(grid, 0.6, "sinc")
        rmap = build_response_map(candidates, realization, coupling, 0.0, seed=0)
        distances = pairwise_distances(rmap)
        exact = select_maxmin_exact(distances, 4)
        rivals = (
            select_maxmin_greedy(distances, 4),
            select_layout_maxmin(layout_distances(candidates), distances, 4),
            select_random(distances, 4, seed=700 + s),
        )
        for rival in rivals:
            assert exact.d_min >= rival.d_min, (s, rival.selection_method)
    print(f"PASS selection optimality: worst greedy/exact = {worst_ratio:.3f}"
          " (threshold 0.5)")


def test_granularity_raw_and_net_throughput_ordering():
    """Element granularity maximizes raw bits in every run; group granularity
    wins net throughput in at least 90% of 50 seeded runs."""
    raw_wins = 0
    net_wins = 0
    runs = 50
    for i in range(runs):
        rows = run_sweep(scenario_b_config(base_seed=100 + i))["sweep"].rows
        raw = {row[0]: row[4] for row in rows}
        net = {row[0]: row[7] for row in rows}
        assert set(raw) == {"element", "group:2x2", "block:4x4"}
        if raw["element"] >= max(v for m, v in raw.items() if m != "element"):
            raw_wins += 1
        if net["group:2x2"] > max(v for m, v in net.items()
                                  if m != "group:2x2"):
            net_wins += 1
    assert raw_wins == runs, f"element raw bits won only {raw_wins}/{runs}"
    assert net_wins >= 0.9 * runs, f"group net bits won only {net_wins}/{runs}"
    print(f"PASS granularity tradeoff: raw {raw_wins}/{runs}, "
          f"net {net_wins}/{runs}")


def test_zero_coupling_reduces_to_uncoupled_sums():
    """At coupling strength 0, responses equal plain active-element sums, and
    sinc coupling entries vanish exactly at half-wavelength multiples."""
    grid = build_grid(8, 8, 0.5)
    part = partition(grid, GranularityMode.element())
    candidates = enumerate_candidates(part, 16, 128, 0.0, seed=3)
    realization = draw_channel(grid, ChannelParams(
        rx_antennas=4, fading="rayleigh", seed=11))
    reference = candidates.masks() @ realization.cascaded
    for kernel in ("sinc", "exponential", "none"):
        coupling = coupling_matrix(grid, 0.0, kernel)
        rmap = build_response_map(candidates, realization, coupling, 0.0, seed=0)
        rel = np.abs(rmap.values - reference) / np.maximum(np.abs(reference),
                                                           1e-30)
        assert rel.max() <= 1e-12, kernel

    coupling = coupling_matrix(grid, 0.6, "sinc")
    pos = grid.positions
    dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=-1))
    x = 2.0 * dist
    half_wave = (x > 0) & (x == np.round(x))
    assert half_wave.any()
    assert np.all(coupling.entries[half_wave] == 0.0)
    off_diag = ~np.eye(grid.n_elements, dtype=bool)
    assert np.any(coupling.entries[off_diag & ~half_wave] != 0.0)
    print(f"PASS zero coupling: {int(half_wave.sum())} half-wavelength entries"
          " pinned to exactly 0.0")


def test_net_throughput_product_identity_and_anchors():
    """net = (1 - overhead) * log2(K_eff) * (1 - p_e) on a 10x10x10 grid."""
    k_effs = (1, 2, 3, 4, 6, 8, 16, 32, 64, 128)
    overheads = np.linspace(0.0, 1.0, 10)
    p_es = np.linspace(0.0, 1.0, 10)
    for k_eff in k_effs:
        for oh in overheads:
            for p_e in p_es:
                got = net_throughput(k_eff, float(oh), float(p_e))
                want = (1.0 - oh) * math.log2(k_eff) * (1.0 - p_e)
                assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-15)
    assert net_throughput(8, 0.25, 1.0) == 0.0
    assert net_throughput(8, 1.0, 0.1) == 0.0
    assert net_throughput(4, 0.5, 0.0) == 1.0
    print("PASS throughput identity: 1000-point grid within 1e-12, "
          "anchors exact")


def test_scenario_reruns_are_byte_identical(tmp_path):
    """Both built-in scenarios rerun to byte-identical CSV artifacts."""
    pairs = []
    for tag in ("first", "second"):
        out_a = tmp_path / f"a_{tag}"
        out_b = tmp_path / f"b_{tag}"
        reproduce_scenario_a(out_a, seed_count=3, trials=500)
        reproduce_scenario_b(out_b, trials=500)
        pairs.append((out_a, out_b))
    (a1, b1), (a2, b2) = pairs
    names_a = ("scenario_a_ber.csv", "scenario_a_ber_per_seed.csv",
               "scenario_a_codebooks.csv")
    for name in names_a:
        assert (a1 / name).read_bytes() == (a2 / name).read_bytes(), name
    assert ((b1 / "scenario_b_sweep.csv").read_bytes()
            == (b2 / "scenario_b_sweep.csv").read_bytes())
    print(f"PASS determinism: {len(names_a) + 1} artifacts byte-identical "
          "across reruns")


def test_union_bound_dominates_simulated_error_rate():
    """union_bound upper-bounds the simulated rate minus 3 standard errors."""
    rng = np.random.default_rng(8)
    min_slack = math.inf
    for i in range(50):
        k = int(rng.integers(2, 9))
        r = int(rng.integers(1, 5))
        rmap = _random_map(rng, k, r)
        codebook = select_maxmin_greedy(pairwise_distances(rmap), k)
        x = float(rng.uniform(0.8, 2.5))
        n0 = codebook.d_min / (2.0 * x * x) if codebook.d_min > 0 else 1.0
        est = simulate_ber(codebook, rmap, n0,
                           trials=10**5, seed=8000 + i)
        bound = union_bound(codebook, rmap, n0)
        slack = bound - (est.p_hat - 3.0 * est.ci95_half_width)
        assert slack >= 0.0, f"instance {i}: bound {bound} vs p_hat {est.p_hat}"
        min_slack = min(min_slack, slack)
    print(f"PASS union bound: min slack {min_slack:.5f} over 50 instances")
