"""Built-in oracle checks: fast hand-computable cases the CLI can verify anywhere."""

from __future__ import annotations

import math

import numpy as np

from frisim.channel import (ChannelParams, MapProvenance, ResponseMap, coupling_matrix,
                            draw_channel, effective_response)
from frisim.codebook import (Codebook, DistanceMatrix, effective_size, response_distance,
                             select_maxmin_exact, select_maxmin_greedy)
from frisim.config import ExperimentConfig
from frisim.detection import pairwise_error_prob, simulate_ber, union_bound
from frisim.geometry import (GranularityMode, build_grid, config_from_units,
                             enumerate_candidates, partition)
from frisim.throughput import net_throughput, overhead_fraction


def _scalar_distances(values) -> DistanceMatrix:
    arr = np.asarray(values, dtype=float)
    out = (arr[:, None] - arr[None, :]) ** 2
    return DistanceMatrix(values=out, domain_tag="response")


def _check_grid_distances() -> None:
    grid = build_grid(2, 2, 0.5)
    pos = grid.positions
    dists = sorted(
        float(np.hypot(*(pos[i] - pos[j])))
        for i in range(4) for j in range(i + 1, 4))
    expect = [0.5, 0.5, 0.5, 0.5, math.sqrt(0.5), math.sqrt(0.5)]
    assert np.allclose(dists, expect), dists


def _check_candidate_counts() -> None:
    grid = build_grid(8, 8, 0.5)
    block = enumerate_candidates(partition(grid, GranularityMode.block(4, 4)),
                                 16, 512, 0.5, seed=3)
    assert len(block) == 4, len(block)
    group = enumerate_candidates(partition(grid, GranularityMode.group(2, 2)),
                                 16, 2000, 0.5, seed=3)
    assert len(group) == math.comb(16, 4), len(group)
    tiny = build_grid(2, 2, 0.5)
    diag = enumerate_candidates(partition(tiny, GranularityMode.element()),
                                2, 16, 0.6, seed=3)
    assert len(diag) == 2, len(diag)


def _check_coupling_kernel() -> None:
    grid = build_grid(1, 2, 0.25)
    c = coupling_matrix(grid, 0.8, "sinc")
    assert abs(c.entries[0, 1] - 0.8 * math.sin(math.pi / 2) / (math.pi / 2)) < 1e-12
    half = coupling_matrix(build_grid(1, 2, 0.5), 0.8, "sinc")
    assert half.entries[0, 1] == 0.0
    ident = coupling_matrix(grid, 0.0, "sinc")
    assert np.array_equal(ident.entries, np.eye(2))


def _check_effective_response() -> None:
    grid = build_grid(1, 2, 0.25)
    coupling = coupling_matrix(grid, 0.8, "sinc")
    params = ChannelParams(rx_antennas=2, seed=5)
    realization = draw_channel(grid, params)
    part = partition(grid, GranularityMode.element())
    both = config_from_units(part, [0, 1])
    got = effective_response(both, realization, coupling)
    c01 = coupling.entries[0, 1]
    expect = (1 + c01) * (realization.cascaded[0] + realization.cascaded[1])
    assert np.allclose(got, expect, rtol=1e-12), (got, expect)


def _check_response_distance() -> None:
    assert response_distance(np.array([1 + 0j]), np.array([0 + 1j])) == 2.0
    assert response_distance(np.array([3 + 0j, 0j]), np.array([0j, 4 + 0j])) == 25.0


def _check_selection() -> None:
    distances = _scalar_distances([0.0, 1.0, 2.0, 5.0])
    pair = select_maxmin_greedy(distances, 2)
    assert pair.members == (0, 3) and pair.d_min == 25.0, pair
    triple = select_maxmin_greedy(distances, 3)
    assert set(triple.members) == {0, 3, 2} and triple.d_min == 4.0, triple
    exact = select_maxmin_exact(distances, 3)
    assert exact.d_min == triple.d_min, (exact, triple)


def _check_effective_size() -> None:
    values = np.zeros((3, 3))
    values[0, 1] = values[1, 0] = 1.0
    values[0, 2] = values[2, 0] = 9.0
    values[1, 2] = values[2, 1] = 4.0
    distances = DistanceMatrix(values=values, domain_tag="response")
    codebook = Codebook(members=(0, 1, 2), selection_method="response_maxmin_greedy",
                        d_min=1.0, bit_width=math.log2(3))
    assert effective_size(codebook, distances, 2.0) == 2


def _check_error_prob() -> None:
    assert abs(pairwise_error_prob(4.0, 2.0) - 0.158655) < 1e-4
    assert pairwise_error_prob(0.0, 1.0) == 0.5


def _check_throughput() -> None:
    part = partition(build_grid(8, 8, 0.5), GranularityMode.group(2, 2))
    config = ExperimentConfig(alpha_unit=1.0, beta_codeword=2.0, coherence_symbols=128.0)
    assert overhead_fraction(part, 8, config) == 0.25
    assert net_throughput(4, 0.5, 0.0) == 1.0
    assert net_throughput(4, 1.0, 0.0) == 0.0
    assert net_throughput(4, 0.25, 1.0) == 0.0


def _check_binary_ber() -> None:
    rng = np.random.default_rng(42)
    responses = (rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4)))
    response_map = ResponseMap(values=responses,
                               provenance=MapProvenance(0, 0.0, "none"))
    codebook = Codebook(members=(0, 1), selection_method="response_maxmin_exact",
                        d_min=response_distance(responses[0], responses[1]),
                        bit_width=1.0)
    d = codebook.d_min
    n0 = d / (2.0 * 1.2 ** 2)  # analytic error rate Q(1.2)
    est = simulate_ber(codebook, response_map, n0, trials=200_000, seed=9)
    analytic = pairwise_error_prob(d, n0)
    assert abs(est.p_hat - analytic) <= 3 * est.ci95_half_width, (est, analytic)
    bound = union_bound(codebook, response_map, n0)
    assert bound >= est.p_hat - 3 * est.ci95_half_width


def _check_channel_determinism() -> None:
    grid = build_grid(4, 4, 0.5)
    params = ChannelParams(rx_antennas=2, seed=11)
    a = draw_channel(grid, params)
    b = draw_channel(grid, params)
    assert np.array_equal(a.cascaded, b.cascaded)


CHECKS = (
    ("grid pairwise distances", _check_grid_distances),
    ("candidate counts", _check_candidate_counts),
    ("coupling kernel values", _check_coupling_kernel),
    ("coupled two-element response", _check_effective_response),
    ("response distance", _check_response_distance),
    ("max-min selection", _check_selection),
    ("effective codebook size", _check_effective_size),
    ("pairwise error probability", _check_error_prob),
    ("overhead and net throughput", _check_throughput),
    ("binary detection vs analytic", _check_binary_ber),
    ("channel determinism", _check_channel_determinism),
)


def run_selftest() -> int:
    """Run every check, printing one line each; returns the number of failures."""
    failures = 0
    for name, check in CHECKS:
        try:
            check()
        except Exception as exc:  # report and keep going
            failures += 1
            print(f"FAIL - {name}: {exc}")
        else:
            print(f"ok   - {name}")
    total = len(CHECKS)
    print(f"{total - failures}/{total} checks passed")
    return failures
