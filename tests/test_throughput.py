import contextlib
import math
from dataclasses import replace

import numpy as np
import pytest

from frisim import detection, pipeline
from frisim.channel import (MapProvenance, ResponseMap, build_design_maps, coupling_matrix,
                            draw_channel)
from frisim.codebook import effective_size, pairwise_distances, select_maxmin_greedy
from frisim.config import ConfigError, ExperimentConfig, channel_params
from frisim.detection import _BATCH
from frisim.geometry import (GranularityMode, InfeasibleConstraintError, build_grid,
                             enumerate_candidates, partition)
from frisim.pipeline import run_sweep
from frisim.seeding import (TAG_SWEEP_BER, TAG_SWEEP_CANDIDATES, TAG_SWEEP_MAP,
                            TAG_SWEEP_SEEDS, derive_seed)
from frisim.throughput import evaluate_mode, net_throughput, overhead_fraction


def test_overhead_fraction_hand_values():
    grid = build_grid(8, 8, 0.5)
    group = partition(grid, GranularityMode.group(2, 2))
    config = ExperimentConfig(alpha_unit=1.0, beta_codeword=2.0, coherence_symbols=128.0)
    assert overhead_fraction(group, 8, config) == (16 + 16) / 128

    element = partition(grid, GranularityMode.element())
    consumed = ExperimentConfig(alpha_unit=1.0, beta_codeword=0.0, coherence_symbols=64.0)
    assert overhead_fraction(element, 8, consumed) == 1.0

    free = ExperimentConfig(alpha_unit=0.0, beta_codeword=0.0, coherence_symbols=64.0)
    assert overhead_fraction(element, 8, free) == 0.0


def test_overhead_fraction_clips_and_validates():
    part = partition(build_grid(8, 8, 0.5), GranularityMode.element())
    config = ExperimentConfig(alpha_unit=100.0, beta_codeword=0.0, coherence_symbols=10.0)
    assert overhead_fraction(part, 2, config) == 1.0
    with pytest.raises(ValueError):
        overhead_fraction(part, 0, config)


def test_net_throughput_anchor_points():
    assert net_throughput(4, 0.5, 0.0) == 1.0
    assert net_throughput(4, 1.0, 0.25) == 0.0
    assert net_throughput(4, 1.0, 0.0) == 0.0
    assert net_throughput(4, 0.25, 1.0) == 0.0
    assert net_throughput(1, 0.0, 0.0) == 0.0  # a 1-codeword book carries no bits


def test_net_throughput_product_identity_on_a_grid():
    k_effs = [1, 2, 3, 4, 6, 8, 16, 32, 64, 128]
    overheads = np.linspace(0.0, 1.0, 10)
    p_es = np.linspace(0.0, 1.0, 10)
    for k_eff in k_effs:
        for oh in overheads:
            for p_e in p_es:
                got = net_throughput(k_eff, float(oh), float(p_e))
                expect = (1.0 - oh) * math.log2(k_eff) * (1.0 - p_e)
                assert got == pytest.approx(expect, rel=1e-12, abs=1e-15)
                assert 0.0 <= got <= math.log2(k_eff) or math.isclose(got, 0.0)


def test_net_throughput_validation():
    with pytest.raises(ValueError):
        net_throughput(0, 0.5, 0.0)
    with pytest.raises(ValueError):
        net_throughput(4, 1.5, 0.0)
    with pytest.raises(ValueError):
        net_throughput(4, 0.5, -0.1)


# Pair counts M (M - 1) / 2: 1, 3 and 15 are odd, 6, 10 and 2016 even.
@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 64])
def test_median_pairwise_equals_the_triu_indices_gather(m):
    # evaluate_mode's pruning scale: the median of the view's upper triangle,
    # read on demand, against the same median gathered from the full matrix.
    rng = np.random.default_rng(m)
    for values in (rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3)),
                   rng.integers(0, 3, (m, 2)) + 1j * rng.integers(0, 2, (m, 2))):
        design_map = ResponseMap(values=values.astype(complex),
                                 provenance=MapProvenance(0, 0.0, "none"))
        full = pairwise_distances(design_map).values  # the integer map makes ties
        reference = float(np.median(full[np.triu_indices(m, k=1)]))
        upper = pairwise_distances(design_map).upper_triangle()
        assert float(np.median(upper, overwrite_input=True)) == reference


def _config(*modes, **overrides):
    return ExperimentConfig(modes=modes, **overrides)


def _designed_pool(config, mode_index):
    """``config.modes[mode_index]``'s pool and its design, built step by step
    with the sweep's seeds: candidates, design map, true map, distances."""
    grid = build_grid(config.grid_rows, config.grid_cols, config.grid_spacing)
    candidates = enumerate_candidates(
        partition(grid, config.modes[mode_index]), config.n_act, config.m_samples,
        config.min_unit_spacing,
        seed=derive_seed(derive_seed(config.candidate_seed, mode_index),
                         TAG_SWEEP_CANDIDATES))
    realization = draw_channel(grid, channel_params(config, config.seeds[0]))
    design_map, truth = build_design_maps(
        candidates, realization, coupling_matrix(grid, config.rho, config.kernel),
        config.estimation_error_var, seed=derive_seed(realization.seed, TAG_SWEEP_MAP))
    return candidates, design_map, truth, pairwise_distances(design_map)


def test_evaluate_mode_report_is_internally_consistent():
    config = _config(GranularityMode.group(2, 2), m_samples=128, trials=2000,
                     seeds=(1, 2))
    report = evaluate_mode(config, *_designed_pool(config, 0))
    assert report.mode == GranularityMode.group(2, 2)
    assert report.unit_count == 16
    assert report.k == 8
    assert 1 <= report.k_eff <= report.k
    assert report.raw_bits == math.log2(report.k_eff)
    expect_net = (1 - report.overhead_fraction) * report.raw_bits * (1 - report.p_e)
    assert report.net_bits == pytest.approx(expect_net, rel=1e-15)


def test_evaluate_mode_caps_k_at_candidate_count():
    config = _config(GranularityMode.block(4, 4), trials=1000, seeds=(1,))
    report = evaluate_mode(config, *_designed_pool(config, 0))
    assert report.k == 4  # only 4 one-block layouts exist
    assert report.raw_bits <= 2.0


def test_evaluate_mode_is_deterministic():
    config = _config(GranularityMode.element(), m_samples=64, trials=1500, seeds=(4, 5))
    pool = _designed_pool(config, 0)
    assert evaluate_mode(config, *pool) == evaluate_mode(config, *pool)


def test_evaluate_mode_needs_two_candidates():
    config = _config(GranularityMode.block(4, 4), grid_rows=4, grid_cols=4,
                     trials=100, seeds=(1,))
    with pytest.raises(InfeasibleConstraintError, match="yields 1 candidate"):
        evaluate_mode(config, *_designed_pool(config, 0))


def test_evaluate_mode_on_a_hand_built_design_equals_the_sweep_row():
    # The sweep shares each seed's noise between its modes; pricing a mode
    # alone draws its own. k = 5 draws its indices on a range that is not a
    # power of two; block:4x4 has 4 candidates, so its k is 4.
    for k, ks in ((8, [8, 8, 4]), (5, [5, 5, 4])):
        config = _config(GranularityMode.element(), GranularityMode.group(2, 2),
                         GranularityMode.block(4, 4), m_samples=96, rx_antennas=3,
                         estimation_error_var=0.03, sweep_snr_db=3.0, trials=600,
                         seeds=(2, 8), k=k)
        rows = run_sweep(config)["sweep"].rows
        assert [row[2] for row in rows] == ks
        for mode_index in range(len(config.modes)):
            rep = evaluate_mode(config, *_designed_pool(config, mode_index))
            assert rows[mode_index] == (rep.mode.label, rep.unit_count, rep.k, rep.k_eff,
                                        rep.raw_bits, rep.overhead_fraction, rep.p_e,
                                        rep.net_bits)


def test_sweep_shares_each_seeds_draws_only_while_it_runs(monkeypatch):
    config = _config(GranularityMode.element(), GranularityMode.group(2, 2),
                     GranularityMode.block(4, 4), m_samples=64, sweep_snr_db=3.0,
                     trials=300, seeds=(3, 4))
    held = []

    def spying(*args):
        report = evaluate_mode(*args)
        held.append(sorted(detection._draws))
        return report

    monkeypatch.setattr(pipeline, "evaluate_mode", spying)
    run_sweep(config)
    seeds = sorted(derive_seed(derive_seed(s, TAG_SWEEP_SEEDS), TAG_SWEEP_BER)
                   for s in config.seeds)
    assert held == [seeds] * 3
    assert detection._draws is None


def test_sweep_over_two_batches_equals_the_sweep_without_shared_draws(monkeypatch):
    config = _config(GranularityMode.element(), GranularityMode.group(2, 2),
                     GranularityMode.block(4, 4), m_samples=64, sweep_snr_db=0.0,
                     trials=_BATCH + 500, seeds=(5, 6))
    shared = run_sweep(config)
    monkeypatch.setattr(pipeline, "_shared_draws", contextlib.nullcontext)
    assert run_sweep(config) == shared
    assert all(0 < row[6] < 1 for row in shared["sweep"].rows)


def _count_medians(distances, counts, key):
    """Make ``distances.upper_triangle`` count its calls in ``counts[key]``."""
    original = distances.upper_triangle

    def upper_triangle():
        counts[key] = counts.get(key, 0) + 1
        return original()
    distances.upper_triangle = upper_triangle


def test_k_eff_equals_pruning_at_the_median_threshold():
    # evaluate_mode skips the median when the farthest-pair bound cannot
    # prune; K_eff must equal pruning at frac * median on either branch.
    # The integer maps tie distances and repeat rows, so d_min is often 0.
    config = _config(GranularityMode.group(2, 2), m_samples=64, trials=20, seeds=(1,))
    candidates = _designed_pool(config, 0)[0]
    m = len(candidates)
    rng = np.random.default_rng(23)
    branches = {True: 0, False: 0}
    for _ in range(4):
        for values in (rng.standard_normal((m, 3)) + 1j * rng.standard_normal((m, 3)),
                       rng.integers(0, 3, (m, 2)) + 1j * rng.integers(0, 2, (m, 2))):
            design_map = ResponseMap(values=values.astype(complex),
                                     provenance=MapProvenance(0, 0.0, "none"))
            distances = pairwise_distances(design_map)
            codebook = select_maxmin_greedy(distances, config.k)
            median = float(np.median(distances.upper_triangle()))
            counts = {"median": 0}
            _count_medians(distances, counts, "median")
            for frac in (0.0, 0.1, 0.5, 2.0, 5.0):
                before = counts["median"]
                report = evaluate_mode(replace(config, keff_delta_frac=frac), candidates,
                                       design_map, None, distances)
                assert report.k_eff == effective_size(codebook, distances, frac * median)
                branches[counts["median"] > before] += 1
    assert branches[True] and branches[False]


def test_scenario_b_takes_no_median_for_the_large_pools(monkeypatch):
    # The farthest-pair bound settles K_eff for the 512-candidate pools, so
    # their M (M - 1) / 2 distances are never computed.
    counts = {}

    def spying(config, candidates, design_map, truth, distances):
        _count_medians(distances, counts, candidates.partition.mode.label)
        return evaluate_mode(config, candidates, design_map, truth, distances)

    monkeypatch.setattr(pipeline, "evaluate_mode", spying)
    rows = run_sweep(pipeline.scenario_b_config(base_seed=7, trials=500))["sweep"].rows
    assert [(row[0], row[2], row[3]) for row in rows] == [
        ("element", 8, 8), ("group:2x2", 8, 8), ("block:4x4", 4, 4)]
    assert set(counts) <= {"block:4x4"}


def test_sweep_draws_one_channel_and_one_coupling(monkeypatch):
    calls = {"draw_channel": 0, "coupling_matrix": 0}

    def counting(name):
        original = getattr(pipeline, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(pipeline, name, counting(name))
    config = _config(GranularityMode.element(), GranularityMode.group(2, 2),
                     GranularityMode.block(4, 4), m_samples=64, trials=100,
                     seeds=(1, 2))
    assert len(run_sweep(config)["sweep"].rows) == 3
    assert calls == {"draw_channel": 1, "coupling_matrix": 1}


def test_granularity_sweep_preserves_order_and_isolates_failures():
    # On a 2x6 grid at pitch 0.2 the half-wavelength unit spacing leaves one
    # group:2x2 pair (the outer two units) and no 4-unit group:1x2 subset.
    modes = (GranularityMode.group(2, 2), GranularityMode.element(),
             GranularityMode.group(1, 2))
    tables = run_sweep(_config(*modes, grid_rows=2, grid_cols=6, grid_spacing=0.2,
                               n_act=8, m_samples=64, trials=500, seeds=(1,)))
    assert [row[0] for row in tables["sweep"].rows] == ["element"]
    errors = tables["errors"].rows
    assert [row[1] for row in errors] == ["group:2x2", "group:1x2"]
    assert "yields 1 candidate" in errors[0][-1]
    assert "spacing rule" in errors[1][-1]


def test_granularity_sweep_raises_errors_that_are_not_infeasibility(monkeypatch):
    def broken(*args):
        raise ValueError("delta must be >= 0")

    monkeypatch.setattr(pipeline, "evaluate_mode", broken)
    with pytest.raises(ValueError, match="delta"):
        run_sweep(_config(GranularityMode.element(), trials=100, seeds=(1,)))


def test_granularity_sweep_requires_seeds():
    with pytest.raises(ConfigError, match="run.seeds"):
        run_sweep(_config(GranularityMode.element(), trials=100, seeds=()))
