"""Maximum-likelihood index detection and error-rate estimation.

The receiver observes ``y = h + n``: the true response ``h`` of the sent
index under a unit pilot, plus circularly-symmetric complex noise of total
variance ``noise_n0`` per antenna. It decides the index whose expected
response is nearest to the observation.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from frisim.channel import ResponseMap
from frisim.codebook import Codebook, pairwise_distances

# Fixed simulation batch size; keeps draw order independent of trial count.
_BATCH = 1 << 15

# Relative slack of the reach test in simulate_ber_curve; see _skip_limits.
_REACH_SLACK = 1e-9

# Seed -> first batch of that seed's stream while a _shared_draws scope is
# open: (generator state after the index draw, unit noise, state after the
# noise). None outside every scope, so nothing outlives the scope.
_draws: dict | None = None


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


@contextlib.contextmanager
def _shared_draws():
    """Within the block, simulate_ber_curve keeps the first batch of unit
    noise it draws from each seed and hands it to a later call on that seed
    whose generator stands in the same state after the index draw, then sets
    the generator to the state after the kept draw. The noise is the one that
    call would draw, so no result moves; the batches are freed on exit."""
    global _draws
    outer, _draws = _draws, {}
    try:
        yield
    finally:
        _draws = outer


def _unit_noise(rng: np.random.Generator, seed: int, shape: tuple, first: bool) -> np.ndarray:
    """``rng.standard_normal(shape)``, taken from the open _shared_draws
    scope when it holds the same draw (see there). Only a call's ``first``
    batch is kept or reused, so a scope holds one batch per seed."""
    if _draws is None or not first:
        return rng.standard_normal(shape)
    state = rng.bit_generator.state
    kept = _draws.get(seed)
    if kept is not None and kept[1].shape == shape and kept[0] == state:
        rng.bit_generator.state = kept[2]
        return kept[1]
    noise = rng.standard_normal(shape)
    if kept is None:
        noise.flags.writeable = False
        _draws[seed] = (state, noise, rng.bit_generator.state)
    return noise


def _skip_limits(offsets: np.ndarray, detect: np.ndarray,
                 scales: np.ndarray) -> np.ndarray | None:
    """Per transmitted index t, a squared unit-noise norm below which a trial
    sending t is decided right, as computed, at every scale in ``scales``;
    None when even the largest limit is below the mean 2R of ``||z||^2``, so
    that the test would skip few trials.

    With y = s_t + c z, the score gap between i and t is
    ``mu_ti + c (p_i - p_t)``, where ``mu_ti = offsets[t, i] - offsets[t, t]``
    and ``|p_i - p_t| = 2 |<z, d_i - d_t>| <= 2 ||z|| sqrt(D_ti)`` with
    ``D_ti = ||d_i - d_t||^2`` (Cauchy-Schwarz). So every gap is positive
    while ``c ||z|| < r_t = min_i mu_ti / (2 sqrt(D_ti))``, at every scale
    below the largest. r_t is 0 when some ``mu_ti`` is not positive (a
    calibrated truth, or a duplicate codeword).

    Exactness. Each computed score (a length-R dot product and a sum for p_i,
    then a scale and an add) lies within ``(2R + 8) 2^-53 (c ||z|| (||d_i|| +
    ||d_t||) + |offsets[t, i]| + |offsets[t, t]|)`` of its exact value on the
    stored offsets, noise and scale. Shrinking ``mu_ti`` by _REACH_SLACK times
    the offsets' magnitudes and widening ``2 sqrt(D_ti)`` by _REACH_SLACK
    times the norms covers that error and the rounding of mu, D and the norms
    themselves (relative (2R + 4) 2^-53, and sqrt(D_ti) <= ||d_i|| +
    ||d_t||): both are far below 1e-9 for any antenna count in use (squares
    in the normal float range assumed). The limit r_t^2 / c^2 is shrunk by a
    further _REACH_SLACK against the rounding of ||z||^2 and of the limit
    itself. A trial below its limit therefore has every computed score above
    its own, so its computed argmin is t.
    """
    norms = np.sqrt(np.sum(detect * detect, axis=1))
    own = np.diag(offsets)[:, None]
    diff = detect[None, :, :] - detect[:, None, :]
    num = (offsets - own) - _REACH_SLACK * (np.abs(offsets) + np.abs(own))
    den = 2.0 * np.sqrt(np.sum(diff * diff, axis=2)) + _REACH_SLACK * (norms + norms[:, None])
    with np.errstate(divide="ignore", invalid="ignore"):
        reach = np.where(num > 0, num / den, 0.0)
    np.fill_diagonal(reach, np.inf)
    limits = (reach.min(axis=1) / scales.max()) ** 2 * (1.0 - _REACH_SLACK)
    return limits if limits.max() > detect.shape[1] else None


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

    Reach test: a trial whose noise is too small to flip its decision at the
    noisiest level is right at every level and is not scored (see
    _skip_limits, which also decides from the codebook and the levels whether
    the test runs at all).
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    for n0 in noise_levels:
        if not (n0 > 0):
            raise ValueError(f"noise_n0 must be positive, got {n0}")
    scales = np.sqrt(np.asarray(noise_levels, dtype=float) / 2.0)
    if not scales.size:
        return []
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
    limits = _skip_limits(offsets, detect, scales)

    rng = np.random.default_rng(seed)
    errors = np.zeros(len(scales), dtype=np.int64)
    done = 0
    while done < trials:
        n = min(_BATCH, trials - done)
        true_idx = rng.integers(0, k, size=n)
        # Real parts, then imaginary parts: the stream order of a complex draw.
        noise = _unit_noise(rng, seed, (2, n, r), done == 0)
        if limits is not None:
            left = np.flatnonzero(np.einsum("tnr,tnr->n", noise, noise) >= limits[true_idx])
            # numpy takes a one-row product through gemv, which rounds unlike
            # the batch's gemm, so a lone trial is scored with its batch.
            if left.size != 1:
                true_idx, noise = true_idx[left], noise[:, left]
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
    distances = pairwise_distances(response_map).block(members)
    total = 0.0
    for i in range(k):
        for j in range(i + 1, k):
            total += 2.0 * pairwise_error_prob(float(distances[i, j]), n0)
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
