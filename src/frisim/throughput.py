"""Overhead-penalized net throughput: the evaluation of the granularity sweep.

Net spatial-index throughput in bits per channel use:

    net = (1 - overhead_fraction) * log2(k_eff) * (1 - p_e)

Overhead charges reconfiguration pilots per unit and verification pilots per
codeword against the coherence budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from frisim.channel import ResponseMap
from frisim.codebook import DistanceMatrix, effective_size, select_maxmin_greedy
from frisim.config import ExperimentConfig
from frisim.detection import noise_for_snr_db, simulate_ber
from frisim.geometry import (CandidateSet, GranularityMode, InfeasibleConstraintError,
                             UnitPartition)
from frisim.seeding import TAG_SWEEP_BER, derive_seed


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


def overhead_fraction(part: UnitPartition, k: int, config: ExperimentConfig) -> float:
    """Fraction of the coherence budget spent on reconfiguration and
    verification: ``alpha_unit`` pilots per unit of ``part`` plus
    ``beta_codeword`` pilots per codeword, over ``coherence_symbols``."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    cost = config.alpha_unit * part.unit_count + config.beta_codeword * k
    return min(1.0, cost / config.coherence_symbols)


def net_throughput(k_eff: int, overhead_frac: float, p_e: float) -> float:
    """(1 - overhead) * log2(k_eff) * (1 - p_e), in bits per channel use."""
    if k_eff < 1:
        raise ValueError(f"k_eff must be >= 1, got {k_eff}")
    if not 0.0 <= overhead_frac <= 1.0:
        raise ValueError(f"overhead fraction must lie in [0, 1], got {overhead_frac}")
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"p_e must lie in [0, 1], got {p_e}")
    return (1.0 - overhead_frac) * math.log2(k_eff) * (1.0 - p_e)


def evaluate_mode(config: ExperimentConfig, candidates: CandidateSet,
                  design_map: ResponseMap, truth: ResponseMap | None,
                  distances: DistanceMatrix) -> ThroughputReport:
    """Net throughput of one designed sweep pool.

    ``design_map``, ``truth`` (None when uncalibrated) and ``distances`` are
    the design of ``candidates``. The codebook size is capped at the candidate
    count, and the pruning threshold is ``keff_delta_frac`` times the median
    pairwise response distance. The median is taken only when the
    farthest-pair bound could prune: while ``keff_delta_frac`` times the
    pool's largest distance does not exceed the codebook's d_min, K_eff is K
    without the pool's M (M - 1) / 2 distances. Every seed varies the
    error-rate estimation noise. A pool with fewer than two candidates raises
    InfeasibleConstraintError.
    """
    part = candidates.partition
    k = min(config.k, len(candidates))
    if k < 2:
        raise InfeasibleConstraintError(
            f"mode {part.mode.label} yields {len(candidates)} candidate(s); "
            f"a codebook needs at least 2")
    codebook = select_maxmin_greedy(distances, k)
    # Greedy starts from the pool's farthest pair, whose distance D is at
    # least the median, so keff_delta_frac * D is at least the median
    # threshold. While it is no larger than d_min, neither prunes a member.
    delta = config.keff_delta_frac * float(distances.block(codebook.members[:2])[0, 1])
    if delta > codebook.d_min:
        # The triangle is a fresh array, so the median may reorder it in place.
        median = float(np.median(distances.upper_triangle(), overwrite_input=True))
        delta = config.keff_delta_frac * median
    k_eff = effective_size(codebook, distances, delta)
    oh = overhead_fraction(part, k, config)

    n0 = noise_for_snr_db(codebook, design_map, config.sweep_snr_db)
    p_values = [
        simulate_ber(codebook, design_map, n0, config.trials,
                     seed=derive_seed(s, TAG_SWEEP_BER),
                     truth=truth).p_hat
        for s in config.seeds
    ]
    p_e = float(np.mean(p_values))
    return ThroughputReport(
        mode=part.mode,
        unit_count=part.unit_count,
        k=k,
        k_eff=k_eff,
        raw_bits=math.log2(k_eff),
        overhead_fraction=oh,
        p_e=p_e,
        net_bits=net_throughput(k_eff, oh, p_e),
    )
