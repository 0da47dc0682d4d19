import math

import numpy as np
import pytest

from frisim.channel import (ChannelParams, CouplingMatrix, build_design_maps,
                            build_response_map, coupling_matrix, draw_channel, effective_response,
                            load_response_map, save_response_map)
from frisim.geometry import GranularityMode, build_grid, enumerate_candidates, partition


def _identity_coupling(grid):
    return coupling_matrix(grid, 0.0, "none")


def test_channel_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(rx_antennas=0)
    with pytest.raises(ValueError):
        ChannelParams(fading="rician")
    with pytest.raises(ValueError):
        ChannelParams(coupling_strength=1.5)
    with pytest.raises(ValueError):
        ChannelParams(rx_spacing=0.0)
    with pytest.raises(ValueError):
        ChannelParams(tx_position=(0.0, 1.0))


def test_rayleigh_draw_shape_and_determinism():
    grid = build_grid(4, 4, 0.5)
    params = ChannelParams(rx_antennas=3, seed=11)
    a = draw_channel(grid, params)
    b = draw_channel(grid, params)
    assert a.cascaded.shape == (16, 3)
    assert np.array_equal(a.cascaded, b.cascaded)
    c = draw_channel(grid, ChannelParams(rx_antennas=3, seed=12))
    assert not np.array_equal(a.cascaded, c.cascaded)


def test_rayleigh_cascaded_gain_has_unit_second_moment():
    # Product of two unit-variance complex Gaussians: E|t q|^2 = 1. The
    # per-entry estimator needs 2e4 realizations for a 5% band to clear
    # its ~4 sigma of Monte Carlo noise across all 256 entries.
    grid = build_grid(8, 8, 0.5)
    acc = np.zeros((64, 4))
    n_real = 20_000
    for seed in range(n_real):
        acc += np.abs(draw_channel(grid, ChannelParams(rx_antennas=4, seed=seed)).cascaded) ** 2
    mean = acc / n_real
    assert float(np.max(np.abs(mean - 1.0))) < 0.05
    assert abs(float(mean.mean()) - 1.0) < 0.005


def test_los_integer_wavelength_paths_are_exactly_one():
    # Elements at x=0 and x=7, tx and rx both 24 wavelengths overhead:
    # path lengths 24+24=48 and 25+25=50, so the phase is a multiple of 2 pi.
    grid = build_grid(1, 2, 7.0)
    params = ChannelParams(rx_antennas=1, fading="los", tx_position=(0.0, 0.0, 24.0),
                           rx_position=(0.0, 0.0, 24.0))
    real = draw_channel(grid, params)
    assert np.array_equal(real.cascaded, np.ones((2, 1), dtype=complex))


def test_los_is_deterministic_and_seed_free():
    grid = build_grid(2, 2, 0.5)
    a = draw_channel(grid, ChannelParams(fading="los", seed=1))
    b = draw_channel(grid, ChannelParams(fading="los", seed=2))
    assert np.array_equal(a.cascaded, b.cascaded)
    assert np.all(np.abs(np.abs(a.cascaded) - 1.0) < 1e-12)


def test_sinc_kernel_half_wavelength_zeros():
    c = coupling_matrix(build_grid(1, 2, 0.5), 0.8, "sinc")
    assert c.entries[0, 1] == 0.0
    assert c.entries[1, 0] == 0.0
    # multiples of half a wavelength are zero too
    wide = coupling_matrix(build_grid(1, 3, 0.5), 0.8, "sinc")
    assert wide.entries[0, 2] == 0.0


def test_sinc_kernel_quarter_wavelength_value():
    c = coupling_matrix(build_grid(1, 2, 0.25), 0.8, "sinc")
    expect = 0.8 * math.sin(math.pi / 2) / (math.pi / 2)
    assert c.entries[0, 1] == pytest.approx(expect, rel=1e-12)
    assert c.entries[0, 1] == pytest.approx(0.5093, abs=5e-5)


def test_exponential_kernel_value():
    c = coupling_matrix(build_grid(1, 2, 0.25), 0.6, "exponential")
    assert c.entries[0, 1] == pytest.approx(0.6 * math.exp(-1.0), rel=1e-12)


def test_coupling_matrix_structure():
    grid = build_grid(3, 3, 0.4)
    for kernel in ("sinc", "exponential", "none"):
        c = coupling_matrix(grid, 0.7, kernel)
        assert np.array_equal(np.diag(c.entries), np.ones(9))
        assert np.array_equal(c.entries, c.entries.T)
        off = c.entries[~np.eye(9, dtype=bool)]
        assert np.all(np.abs(off) <= 0.7 + 1e-15)
        assert np.all(np.isfinite(c.entries))


def test_zero_rho_is_identity_for_every_kernel():
    grid = build_grid(2, 3, 0.3)
    for kernel in ("sinc", "exponential", "none"):
        c = coupling_matrix(grid, 0.0, kernel)
        assert np.array_equal(c.entries, np.eye(6))


def test_coupling_matrix_validation():
    grid = build_grid(2, 2, 0.5)
    with pytest.raises(ValueError):
        coupling_matrix(grid, -0.1, "sinc")
    with pytest.raises(ValueError):
        coupling_matrix(grid, 1.2, "sinc")
    with pytest.raises(ValueError):
        coupling_matrix(grid, 0.5, "gauss")


def test_single_active_element_returns_cascaded_row():
    grid = build_grid(2, 2, 0.5)
    part = partition(grid, GranularityMode.element())
    real = draw_channel(grid, ChannelParams(rx_antennas=3, seed=4))
    for m in range(4):
        got = effective_response(part, [m], real, _identity_coupling(grid))
        assert np.array_equal(got, real.cascaded[m])


def test_two_element_coupled_response_by_hand():
    grid = build_grid(1, 2, 0.25)
    coupling = coupling_matrix(grid, 0.8, "sinc")
    real = draw_channel(grid, ChannelParams(rx_antennas=2, seed=5))
    part = partition(grid, GranularityMode.element())
    got = effective_response(part, [0, 1], real, coupling)
    c01 = coupling.entries[0, 1]
    expect = (1 + c01) * (real.cascaded[0] + real.cascaded[1])
    assert np.allclose(got, expect, rtol=1e-12)


def test_rho_is_irrelevant_on_a_single_element_grid():
    grid = build_grid(1, 1, 0.5)
    part = partition(grid, GranularityMode.element())
    real = draw_channel(grid, ChannelParams(rx_antennas=4, seed=6))
    a = effective_response(part, [0], real, coupling_matrix(grid, 0.0, "sinc"))
    b = effective_response(part, [0], real, coupling_matrix(grid, 0.9, "sinc"))
    assert np.array_equal(a, b)


def test_response_is_additive_over_disjoint_masks_without_coupling():
    grid = build_grid(4, 4, 0.5)
    part = partition(grid, GranularityMode.element())
    real = draw_channel(grid, ChannelParams(rx_antennas=4, seed=7))
    ident = _identity_coupling(grid)
    left = effective_response(part, [0, 1, 2], real, ident)
    right = effective_response(part, [9, 10], real, ident)
    both = effective_response(part, [0, 1, 2, 9, 10], real, ident)
    assert np.allclose(both, left + right, rtol=1e-12, atol=0)


def test_effective_response_dimension_mismatch():
    grid = build_grid(2, 2, 0.5)
    other = build_grid(3, 3, 0.5)
    part = partition(grid, GranularityMode.element())
    real = draw_channel(grid, ChannelParams(seed=1))
    with pytest.raises(ValueError):
        effective_response(part, [0], real, _identity_coupling(other))
    with pytest.raises(ValueError):
        effective_response(partition(other, GranularityMode.element()), [0], real,
                           _identity_coupling(grid))
    with pytest.raises(ValueError, match="out of range"):
        effective_response(part, [4], real, _identity_coupling(grid))


def test_identity_coupling_response_sums_the_unit_rows():
    grid = build_grid(4, 4, 0.5)
    real = draw_channel(grid, ChannelParams(rx_antennas=2, seed=9))
    group = partition(grid, GranularityMode.group(2, 2))
    got = effective_response(group, [0], real, _identity_coupling(grid))
    expect = real.cascaded[group.elements[0]].sum(axis=0)
    assert np.allclose(got, expect, rtol=1e-12)
    element = partition(grid, GranularityMode.element())
    singleton = effective_response(element, [5], real, _identity_coupling(grid))
    assert np.array_equal(singleton, real.cascaded[5])


def _small_pool(seed=1):
    grid = build_grid(4, 4, 0.5)
    part = partition(grid, GranularityMode.element())
    cands = enumerate_candidates(part, 4, 8, 0.0, seed=seed)
    real = draw_channel(grid, ChannelParams(rx_antennas=4, seed=seed))
    coupling = coupling_matrix(grid, 0.6, "sinc")
    return cands, real, coupling


def test_noiseless_map_equals_effective_response_exactly():
    cands, real, coupling = _small_pool()
    rmap = build_response_map(cands, real, coupling, 0.0, seed=0)
    assert len(rmap) == len(cands)
    for i, row in enumerate(cands.units):
        assert np.array_equal(rmap.values[i],
                              effective_response(cands.partition, row, real, coupling))


def test_design_maps_pair_the_calibrated_map_with_the_noiseless_truth():
    cands, real, coupling = _small_pool()
    design, truth = build_design_maps(cands, real, coupling, 0.0, seed=3)
    assert truth is None
    assert np.array_equal(design.values,
                          build_response_map(cands, real, coupling, 0.0, seed=3).values)
    design, truth = build_design_maps(cands, real, coupling, 0.05, seed=3)
    assert np.array_equal(design.values,
                          build_response_map(cands, real, coupling, 0.05, seed=3).values)
    assert np.array_equal(truth.values,
                          build_response_map(cands, real, coupling, 0.0, seed=0).values)


def test_map_noise_level_matches_requested_variance():
    cands, real, coupling = _small_pool()
    clean = build_response_map(cands, real, coupling, 0.0, seed=0)
    var = 0.1
    total, count = 0.0, 0
    for seed in range(400):
        noisy = build_response_map(cands, real, coupling, var, seed=seed)
        dev = noisy.values - clean.values
        total += float(np.sum(np.abs(dev) ** 2))
        count += len(cands)
    mean_sq = total / count
    assert mean_sq == pytest.approx(var * real.rx_antennas, rel=0.05)


def test_map_noise_stream_is_keyed_by_candidate_id():
    from dataclasses import replace
    cands, real, coupling = _small_pool()
    full = build_response_map(cands, real, coupling, 0.1, seed=3)
    prefix_set = replace(cands, units=cands.units[:3])
    prefix = build_response_map(prefix_set, real, coupling, 0.1, seed=3)
    assert np.array_equal(full.values[:3], prefix.values)


def test_response_map_needs_a_receive_antenna(tmp_path):
    path = tmp_path / "map.txt"
    path.write_text("seed=1\nrho=0.5\nkernel=sinc\nrx_antennas=0\ncount=2\n0\n1\n")
    with pytest.raises(ValueError, match="R >= 1"):
        load_response_map(path)


def test_map_rejects_negative_noise():
    cands, real, coupling = _small_pool()
    with pytest.raises(ValueError):
        build_response_map(cands, real, coupling, -1.0, seed=0)


def test_response_map_round_trip(tmp_path):
    cands, real, coupling = _small_pool(seed=2)
    rmap = build_response_map(cands, real, coupling, 0.05, seed=6)
    path = tmp_path / "map.txt"
    save_response_map(rmap, path)
    loaded = load_response_map(path)
    assert np.array_equal(loaded.values, rmap.values)
    assert loaded.provenance == rmap.provenance


@pytest.mark.parametrize("edit, message", [
    (lambda lines: lines + ["rho=0.1"], "response-map file repeats key 'rho'"),
    (lambda lines: [line for line in lines if not line.startswith("kernel=")],
     "response-map file is missing key 'kernel'"),
    (lambda lines: lines + ["foo=bar"], "bad response-map record 'foo=bar'"),
], ids=["repeated-key", "missing-key", "stray-line"])
def test_load_response_map_rejects_a_broken_container(tmp_path, edit, message):
    cands, real, coupling = _small_pool()
    path = tmp_path / "map.txt"
    save_response_map(build_response_map(cands, real, coupling, 0.0, seed=0), path)
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    with pytest.raises(ValueError, match=message):
        load_response_map(path)


def _reference_map(cands, real, coupling, var, seed):
    """The per-candidate response map: effective_response plus, per candidate
    id, a real-part draw then an imaginary-part draw."""
    r = real.rx_antennas
    rows = []
    for i, row in enumerate(cands.units):
        h = effective_response(cands.partition, row, real, coupling)
        if var > 0:
            rng = np.random.default_rng([seed, i])
            h = h + np.sqrt(var / 2.0) * (rng.standard_normal(r)
                                          + 1j * rng.standard_normal(r))
        rows.append(h)
    return np.array(rows)


@pytest.mark.parametrize("var", [0.0, 0.05])
@pytest.mark.parametrize("fading", ["rayleigh", "los"])
@pytest.mark.parametrize("kernel", ["sinc", "exponential", "none"])
def test_map_is_bit_identical_to_per_candidate_responses(kernel, fading, var):
    grid = build_grid(8, 8, 0.5)
    coupling = coupling_matrix(grid, 0.6, kernel)
    real = draw_channel(grid, ChannelParams(rx_antennas=4, fading=fading, seed=5))
    for mode, n_act in ((GranularityMode.element(), 16), (GranularityMode.group(2, 2), 16)):
        cands = enumerate_candidates(partition(grid, mode), n_act, 96, 0.0, seed=2)
        rmap = build_response_map(cands, real, coupling, var, seed=17)
        expected = _reference_map(cands, real, coupling, var, 17)
        assert rmap.values.tobytes() == expected.tobytes(), mode.label
