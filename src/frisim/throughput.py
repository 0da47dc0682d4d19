"""Overhead-penalized net throughput and the per-mode pass of the granularity sweep.

Net spatial-index throughput in bits per channel use:

    net = (1 - overhead_fraction) * log2(k_eff) * (1 - p_e)

Overhead charges reconfiguration pilots per unit and verification pilots per
codeword against the coherence budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from frisim.channel import build_design_maps, coupling_matrix, draw_channel
from frisim.codebook import effective_size, pairwise_distances, select_maxmin_greedy
from frisim.config import ExperimentConfig, channel_params
from frisim.detection import noise_for_snr_db, simulate_ber
from frisim.geometry import (GranularityMode, InfeasibleConstraintError, UnitPartition,
                             build_grid, enumerate_candidates, partition)
from frisim.seeding import (TAG_SWEEP_BER, TAG_SWEEP_CANDIDATES, TAG_SWEEP_MAP,
                            TAG_SWEEP_SEEDS, derive_seed)


@dataclass(frozen=True)
class OverheadParams:
    """Linear pilot-cost model against the coherence budget."""

    alpha_unit: float = 1.0       # reconfiguration pilots per actuation unit
    beta_codeword: float = 2.0    # verification pilots per codeword
    coherence_symbols: float = 256.0

    def __post_init__(self) -> None:
        if self.alpha_unit < 0 or self.beta_codeword < 0:
            raise ValueError("overhead coefficients must be >= 0")
        if not (self.coherence_symbols > 0):
            raise ValueError("coherence_symbols must be positive")


@dataclass(frozen=True)
class ThroughputReport:
    mode: GranularityMode
    unit_count: int
    k: int
    k_eff: int
    raw_bits: float
    overhead_fraction: float
    p_e: float
    net_bits: float


def overhead_fraction(part: UnitPartition, k: int, params: OverheadParams) -> float:
    """Fraction of the coherence budget spent on reconfiguration and verification."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cost = params.alpha_unit * part.unit_count + params.beta_codeword * k
    return min(1.0, cost / params.coherence_symbols)


def net_throughput(k_eff: int, overhead_frac: float, p_e: float) -> float:
    """(1 - overhead) * log2(k_eff) * (1 - p_e), in bits per channel use."""
    if k_eff < 1:
        raise ValueError(f"k_eff must be >= 1, got {k_eff}")
    if not 0.0 <= overhead_frac <= 1.0:
        raise ValueError(f"overhead fraction must lie in [0, 1], got {overhead_frac}")
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"p_e must lie in [0, 1], got {p_e}")
    return (1.0 - overhead_frac) * math.log2(k_eff) * (1.0 - p_e)


def _median_pairwise(values: np.ndarray) -> float:
    iu = np.triu_indices(values.shape[0], k=1)
    return float(np.median(values[iu]))


def evaluate_mode(config: ExperimentConfig, mode_index: int) -> ThroughputReport:
    """Full design-and-evaluate pass for ``config.modes[mode_index]``.

    One channel realization (from the first seed) drives design and
    evaluation; every seed varies the error-rate estimation noise. The
    codebook size is capped at the candidate count, and the pruning threshold
    is ``keff_delta_frac`` times the median pairwise response distance. A mode
    with fewer than two candidates raises InfeasibleConstraintError.
    """
    grid = build_grid(config.grid_rows, config.grid_cols, config.grid_spacing)
    mode = config.modes[mode_index]
    part = partition(grid, mode)
    candidates = enumerate_candidates(
        part, config.n_act, config.m_samples, config.min_unit_spacing,
        seed=derive_seed(derive_seed(config.candidate_seed, mode_index),
                         TAG_SWEEP_CANDIDATES))
    k = min(config.k, len(candidates))
    if k < 2:
        raise InfeasibleConstraintError(
            f"mode {mode.label} yields {len(candidates)} candidate(s); "
            f"a codebook needs at least 2")

    coupling = coupling_matrix(grid, config.rho, config.kernel)
    realization = draw_channel(grid, channel_params(config, config.seeds[0]))
    response_map, truth = build_design_maps(
        candidates, realization, coupling, config.estimation_error_var,
        seed=derive_seed(realization.seed, TAG_SWEEP_MAP))
    distances = pairwise_distances(response_map)
    codebook = select_maxmin_greedy(distances, k)

    delta = config.keff_delta_frac * _median_pairwise(distances.values)
    k_eff = effective_size(codebook, distances, delta)
    overhead = OverheadParams(alpha_unit=config.alpha_unit,
                              beta_codeword=config.beta_codeword,
                              coherence_symbols=config.coherence_symbols)
    oh = overhead_fraction(part, k, overhead)

    n0 = noise_for_snr_db(codebook, response_map, config.sweep_snr_db)
    p_values = [
        simulate_ber(codebook, response_map, n0, config.trials,
                     seed=derive_seed(derive_seed(s, TAG_SWEEP_SEEDS), TAG_SWEEP_BER),
                     truth=truth).p_hat
        for s in config.seeds
    ]
    p_e = float(np.mean(p_values))
    return ThroughputReport(
        mode=mode,
        unit_count=part.unit_count,
        k=k,
        k_eff=k_eff,
        raw_bits=math.log2(k_eff),
        overhead_fraction=oh,
        p_e=p_e,
        net_bits=net_throughput(k_eff, oh, p_e),
    )
