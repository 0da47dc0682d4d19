"""Maximum-likelihood index detection and error-rate estimation.

The receiver observes ``y = h + n``: the true response ``h`` of the sent
index under a unit pilot, plus circularly-symmetric complex noise of total
variance ``noise_n0`` per antenna. It decides the index whose expected
response is nearest to the observation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from frisim.channel import ResponseMap
from frisim.codebook import Codebook, response_distance

# Fixed simulation batch size; keeps draw order independent of trial count.
_BATCH = 1 << 15


@dataclass(frozen=True)
class BerEstimate:
    trials: int
    errors: int
    p_hat: float
    ci95_half_width: float

    @classmethod
    def from_counts(cls, trials: int, errors: int) -> "BerEstimate":
        if trials < 1:
            raise ValueError("trials must be >= 1")
        if not 0 <= errors <= trials:
            raise ValueError("errors must lie in [0, trials]")
        p = errors / trials
        return cls(trials=trials, errors=errors, p_hat=p,
                   ci95_half_width=1.96 * math.sqrt(p * (1.0 - p) / trials))


def _embed(values: np.ndarray) -> np.ndarray:
    """Real embedding ``[Re v, Im v]`` along the last axis, so that
    ``Re <a, b>`` becomes the dot product of the embedded vectors."""
    return np.concatenate((values.real, values.imag), axis=-1)


def _ml_scores(received: np.ndarray, detect: np.ndarray) -> np.ndarray:
    """ML scores ``||d_i||^2 - 2 <y, d_i>`` of the embedded codeword rows
    ``d_i`` of ``detect`` for each embedded observation ``y`` in ``received``."""
    return np.sum(detect ** 2, axis=1) - 2.0 * (received @ detect.T)


def detect_index(y: np.ndarray, codebook_responses: np.ndarray) -> int:
    """Index of the codeword response nearest to ``y`` by the ML rule that
    simulate_ber_curve applies to every trial; ties pick the lowest."""
    return int(np.argmin(_ml_scores(_embed(np.asarray(y)),
                                    _embed(np.asarray(codebook_responses)))))


def simulate_ber_curve(codebook: Codebook, response_map: ResponseMap, noise_levels,
                       trials: int, seed: int,
                       truth: ResponseMap | None = None) -> list[BerEstimate]:
    """Monte Carlo index symbol-error rate under ML detection, one estimate
    per noise level (variance per antenna) in ``noise_levels``.

    Common random numbers: the transmitted indices and the unit noise are
    drawn once and every level scales the same noise by ``sqrt(n0 / 2)``. In
    the matched case the error count therefore never grows as the noise level
    falls, and the estimates of one call are correlated. ``truth`` supplies
    the responses actually transmitted when the detector's map is a perturbed
    calibration of reality; it defaults to the detector's own map.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for n0 in noise_levels:
        if not (n0 > 0):
            raise ValueError(f"noise_n0 must be positive, got {n0}")
    scales = np.sqrt(np.asarray(noise_levels, dtype=float) / 2.0)
    members = list(codebook.members)
    k = len(members)
    r = response_map.values.shape[1]
    detect = _embed(response_map.values[members])
    source = detect if truth is None else _embed(truth.values[members])
    # With y = s_t + c z, the score ||d_i||^2 - 2 <y, d_i> splits into a part
    # fixed by the transmitted index t (row t of ``offsets``) and c times a
    # noise projection shared by every level.
    offsets = _ml_scores(source, detect)
    detect_re_t = detect[:, :r].T
    detect_im_t = detect[:, r:].T

    rng = np.random.default_rng(seed)
    errors = np.zeros(len(scales), dtype=np.int64)
    done = 0
    while done < trials:
        n = min(_BATCH, trials - done)
        true_idx = rng.integers(0, k, size=n)
        # Real parts, then imaginary parts: the stream order of a complex draw.
        noise = rng.standard_normal((2, n, r))
        base = offsets[true_idx]
        proj = -2.0 * (noise[0] @ detect_re_t + noise[1] @ detect_im_t)
        for j, scale in enumerate(scales):
            decided = np.argmin(base + scale * proj, axis=1)
            errors[j] += np.count_nonzero(decided != true_idx)
        done += n
    return [BerEstimate.from_counts(trials=trials, errors=int(e)) for e in errors]


def simulate_ber(codebook: Codebook, response_map: ResponseMap, noise_n0: float,
                 trials: int, seed: int, truth: ResponseMap | None = None) -> BerEstimate:
    """Monte Carlo index symbol-error rate at one noise level; see
    simulate_ber_curve."""
    return simulate_ber_curve(codebook, response_map, [noise_n0], trials, seed, truth)[0]


def q_function(x: float) -> float:
    """Gaussian tail probability Q(x)."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def pairwise_error_prob(d: float, n0: float) -> float:
    """Probability of confusing two codewords at response distance ``d``."""
    if d < 0:
        raise ValueError(f"distance must be >= 0, got {d}")
    if not (n0 > 0):
        raise ValueError(f"n0 must be positive, got {n0}")
    return q_function(math.sqrt(d / (2.0 * n0)))


def union_bound(codebook: Codebook, response_map: ResponseMap, n0: float) -> float:
    """Average pairwise union bound on the index error probability, clipped at 1."""
    members = list(codebook.members)
    k = len(members)
    if k < 2:
        raise ValueError("union bound needs at least 2 codewords")
    responses = response_map.values[members]
    total = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            d = response_distance(responses[i], responses[j])
            total += 2.0 * pairwise_error_prob(d, n0)
    return min(1.0, total / k)


def mean_pilot_energy(codebook: Codebook, response_map: ResponseMap) -> float:
    """Codebook-average received pilot energy E[||h||^2] under a unit pilot."""
    responses = response_map.values[list(codebook.members)]
    return float(np.mean(np.sum(np.abs(responses) ** 2, axis=1)))


def noise_for_snr_db(codebook: Codebook, response_map: ResponseMap,
                     snr_db: float) -> float:
    """Noise level that realizes a target SNR, with SNR defined as
    10*log10(mean pilot energy / (R * n0))."""
    energy = mean_pilot_energy(codebook, response_map)
    if energy <= 0:
        raise ValueError("codebook has zero received energy; SNR is undefined")
    return energy / (response_map.rx_antennas * 10.0 ** (snr_db / 10.0))
