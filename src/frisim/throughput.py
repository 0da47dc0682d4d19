"""Overhead-penalized net throughput and the granularity sweep.

Net spatial-index throughput in bits per channel use:

    net = (1 - overhead_fraction) * log2(k_eff) * (1 - p_e)

Overhead charges reconfiguration pilots per unit and verification pilots per
codeword against the coherence budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from frisim.channel import (ChannelParams, build_design_maps, coupling_matrix,
                            draw_channel)
from frisim.codebook import effective_size, pairwise_distances, select_maxmin_greedy
from frisim.detection import SignalModel, noise_for_snr_db, simulate_ber
from frisim.geometry import (ApertureGrid, GranularityMode, InfeasibleConstraintError,
                             UnitPartition, enumerate_candidates, partition)
from frisim.seeding import (TAG_SWEEP_BER, TAG_SWEEP_CANDIDATES, TAG_SWEEP_MAP,
                            derive_seed)


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


@dataclass(frozen=True)
class SweepEntry:
    """Per-mode sweep outcome; exactly one of report/error is set."""

    mode: GranularityMode
    report: ThroughputReport | None = None
    error: str | None = None


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


def evaluate_mode(grid: ApertureGrid, mode: GranularityMode, n_act: int, k: int,
                  channel_params: ChannelParams, overhead_params: OverheadParams,
                  snr_db: float, trials: int, seeds, *, m_samples: int = 512,
                  min_unit_spacing: float | None = None, kernel: str = "sinc",
                  delta_frac: float = 0.1, candidate_seed: int = 1) -> ThroughputReport:
    """Full design-and-evaluate pass for one granularity mode.

    One channel realization (from ``channel_params.seed``) drives design and
    evaluation; ``seeds`` only vary the error-rate estimation noise. The
    codebook size is capped at the candidate count, and the pruning threshold
    is ``delta_frac`` times the median pairwise response distance.
    """
    part = partition(grid, mode)
    candidates = enumerate_candidates(
        part, n_act, m_samples, min_unit_spacing,
        seed=derive_seed(candidate_seed, TAG_SWEEP_CANDIDATES))
    k_mode = min(k, len(candidates))
    if k_mode < 2:
        raise InfeasibleConstraintError(
            f"mode {mode.label} yields {len(candidates)} candidate(s); "
            f"a codebook needs at least 2")

    coupling = coupling_matrix(grid, channel_params.coupling_strength, kernel)
    realization = draw_channel(grid, channel_params)
    response_map, truth = build_design_maps(
        candidates, realization, coupling, channel_params.estimation_error_var,
        seed=derive_seed(channel_params.seed, TAG_SWEEP_MAP))
    distances = pairwise_distances(response_map)
    codebook = select_maxmin_greedy(distances, k_mode)

    delta = delta_frac * _median_pairwise(distances.values)
    k_eff = effective_size(codebook, distances, delta)
    oh = overhead_fraction(part, k_mode, overhead_params)

    n0 = noise_for_snr_db(codebook, response_map, snr_db)
    signal = SignalModel(noise_n0=n0)
    p_values = [
        simulate_ber(codebook, response_map, signal, trials,
                     seed=derive_seed(s, TAG_SWEEP_BER), truth=truth).p_hat
        for s in seeds
    ]
    p_e = float(np.mean(p_values))
    raw_bits = math.log2(k_eff)
    return ThroughputReport(
        mode=mode,
        unit_count=part.unit_count,
        k=k_mode,
        k_eff=k_eff,
        raw_bits=raw_bits,
        overhead_fraction=oh,
        p_e=p_e,
        net_bits=net_throughput(k_eff, oh, p_e),
    )


def granularity_sweep(grid: ApertureGrid, modes, n_act: int, k: int,
                      channel_params: ChannelParams, overhead_params: OverheadParams,
                      snr_db: float, trials: int, seeds, *, m_samples: int = 512,
                      min_unit_spacing: float | None = None, kernel: str = "sinc",
                      delta_frac: float = 0.1,
                      candidate_seed: int = 1) -> list[SweepEntry]:
    """Evaluate every mode; an infeasible mode (InfeasibleConstraintError)
    yields an error entry and the sweep continues, while any other error
    propagates. Output order matches the input mode order."""
    if not seeds:
        raise ValueError("at least one estimation seed is required")
    entries: list[SweepEntry] = []
    for idx, mode in enumerate(modes):
        try:
            report = evaluate_mode(
                grid, mode, n_act, k, channel_params, overhead_params, snr_db,
                trials, seeds, m_samples=m_samples,
                min_unit_spacing=min_unit_spacing, kernel=kernel,
                delta_frac=delta_frac,
                candidate_seed=derive_seed(candidate_seed, idx))
            entries.append(SweepEntry(mode=mode, report=report))
        except InfeasibleConstraintError as exc:
            entries.append(SweepEntry(mode=mode, error=str(exc)))
    return entries
