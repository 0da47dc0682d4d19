import math

import numpy as np
import pytest

from frisim.channel import ChannelParams
from frisim.geometry import GranularityMode, build_grid, partition
from frisim.throughput import (OverheadParams, evaluate_mode, granularity_sweep,
                               net_throughput, overhead_fraction)


def test_overhead_params_validation():
    with pytest.raises(ValueError):
        OverheadParams(alpha_unit=-1.0)
    with pytest.raises(ValueError):
        OverheadParams(beta_codeword=-0.5)
    with pytest.raises(ValueError):
        OverheadParams(coherence_symbols=0.0)


def test_overhead_fraction_hand_values():
    grid = build_grid(8, 8, 0.5)
    group = partition(grid, GranularityMode.group(2, 2))
    params = OverheadParams(alpha_unit=1.0, beta_codeword=2.0, coherence_symbols=128.0)
    assert overhead_fraction(group, 8, params) == (16 + 16) / 128

    element = partition(grid, GranularityMode.element())
    consumed = OverheadParams(alpha_unit=1.0, beta_codeword=0.0, coherence_symbols=64.0)
    assert overhead_fraction(element, 8, consumed) == 1.0

    free = OverheadParams(alpha_unit=0.0, beta_codeword=0.0, coherence_symbols=64.0)
    assert overhead_fraction(element, 8, free) == 0.0


def test_overhead_fraction_clips_and_validates():
    part = partition(build_grid(8, 8, 0.5), GranularityMode.element())
    params = OverheadParams(alpha_unit=100.0, beta_codeword=0.0, coherence_symbols=10.0)
    assert overhead_fraction(part, 2, params) == 1.0
    with pytest.raises(ValueError):
        overhead_fraction(part, 0, params)


def test_net_throughput_anchor_points():
    assert net_throughput(4, 0.5, 0.0) == 1.0
    assert net_throughput(4, 1.0, 0.25) == 0.0
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


def _base_args(seed=3):
    grid = build_grid(8, 8, 0.5)
    channel = ChannelParams(rx_antennas=4, coupling_strength=0.6, seed=seed)
    overhead = OverheadParams()
    return grid, channel, overhead


def test_evaluate_mode_report_is_internally_consistent():
    grid, channel, overhead = _base_args()
    report = evaluate_mode(grid, GranularityMode.group(2, 2), 16, 8, channel,
                           overhead, snr_db=10.0, trials=2000, seeds=(1, 2),
                           m_samples=128)
    assert report.unit_count == 16
    assert report.k == 8
    assert 1 <= report.k_eff <= report.k
    assert report.raw_bits == math.log2(report.k_eff)
    expect_net = (1 - report.overhead_fraction) * report.raw_bits * (1 - report.p_e)
    assert report.net_bits == pytest.approx(expect_net, rel=1e-15)


def test_evaluate_mode_caps_k_at_candidate_count():
    grid, channel, overhead = _base_args()
    report = evaluate_mode(grid, GranularityMode.block(4, 4), 16, 8, channel,
                           overhead, snr_db=10.0, trials=1000, seeds=(1,))
    assert report.k == 4  # only 4 one-block layouts exist
    assert report.raw_bits <= 2.0


def test_evaluate_mode_is_deterministic():
    grid, channel, overhead = _base_args(seed=6)
    kwargs = dict(snr_db=10.0, trials=1500, seeds=(4, 5), m_samples=64)
    a = evaluate_mode(grid, GranularityMode.element(), 16, 8, channel, overhead, **kwargs)
    b = evaluate_mode(grid, GranularityMode.element(), 16, 8, channel, overhead, **kwargs)
    assert a == b


def test_evaluate_mode_needs_two_candidates():
    grid = build_grid(4, 4, 0.5)
    channel = ChannelParams(seed=1)
    with pytest.raises(ValueError):
        evaluate_mode(grid, GranularityMode.block(4, 4), 16, 8, channel,
                      OverheadParams(), snr_db=10.0, trials=100, seeds=(1,))


def test_granularity_sweep_preserves_order_and_isolates_failures():
    grid, channel, overhead = _base_args()
    modes = (GranularityMode.element(), GranularityMode.group(3, 3),
             GranularityMode.block(4, 4))
    entries = granularity_sweep(grid, modes, 16, 8, channel, overhead,
                                snr_db=10.0, trials=500, seeds=(1,),
                                m_samples=64)
    assert [e.mode for e in entries] == list(modes)
    assert entries[0].report is not None and entries[0].error is None
    assert entries[1].report is None and "3x3" in entries[1].error
    assert entries[2].report is not None


def test_granularity_sweep_raises_errors_that_are_not_infeasibility():
    grid, channel, overhead = _base_args()
    with pytest.raises(ValueError, match="delta"):
        granularity_sweep(grid, (GranularityMode.element(),), 16, 8, channel,
                          overhead, snr_db=10.0, trials=100, seeds=(1,),
                          m_samples=32, delta_frac=-0.1)


def test_granularity_sweep_requires_seeds():
    grid, channel, overhead = _base_args()
    with pytest.raises(ValueError):
        granularity_sweep(grid, (GranularityMode.element(),), 16, 8, channel,
                          overhead, snr_db=10.0, trials=100, seeds=())


def test_group_mode_wins_net_bits_under_default_overheads():
    grid, channel, overhead = _base_args(seed=11)
    modes = (GranularityMode.element(), GranularityMode.group(2, 2),
             GranularityMode.block(4, 4))
    entries = granularity_sweep(grid, modes, 16, 8, channel, overhead,
                                snr_db=10.0, trials=2000, seeds=(1, 2))
    by_mode = {e.mode.label: e.report for e in entries}
    assert by_mode["element"].raw_bits >= by_mode["group:2x2"].raw_bits
    assert by_mode["element"].raw_bits >= by_mode["block:4x4"].raw_bits
    nets = {label: r.net_bits for label, r in by_mode.items()}
    assert max(nets, key=nets.get) == "group:2x2"
