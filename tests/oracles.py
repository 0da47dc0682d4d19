"""One-item reference forms of rules that frisim runs only vectorized.

Each function here states one rule for a single candidate, pair or
observation, in the plainest form; the tests compare the package's study
path against it:

- ``effective_response``: a row of ``channel.build_response_map``;
- ``response_distance``: an entry of ``codebook.pairwise_distances``;
- ``layout_distance``: an entry of ``codebook.layout_distances``;
- ``min_pairwise_spacing``: the spacing filter of
  ``geometry.enumerate_candidates``;
- ``detect_index``: the ML decision of ``detection.simulate_ber_curve``,
  through the same scoring helpers.
"""

from __future__ import annotations

import math

import numpy as np

from frisim.channel import ChannelRealization, CouplingMatrix
from frisim.detection import _embed, _ml_scores
from frisim.geometry import UnitPartition, _centroid_distances, unit_ids


def effective_response(part: UnitPartition, units, realization: ChannelRealization,
                       coupling: CouplingMatrix) -> np.ndarray:
    """(R,) receive-side response of the candidate activating ``units`` of
    ``part``, under coupling leakage."""
    n = coupling.n_elements
    if realization.n_elements != n or part.grid.n_elements != n:
        raise ValueError("partition, realization and coupling matrix have different "
                         "element counts")
    mask = np.zeros(n)
    mask[part.elements[unit_ids(part, units)]] = 1.0
    drive = coupling.entries @ mask
    return drive @ realization.cascaded


def response_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean norm of the complex response difference, its
    per-antenna terms summed in index order."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"response shapes differ: {a.shape} vs {b.shape}")
    diff = (a - b).ravel()
    # real**2 + imag**2 avoids the sqrt round-trip of abs()**2, so distances
    # with exact integer values come out exact.
    total = 0.0
    for term in diff.real ** 2 + diff.imag ** 2:
        total += term
    return float(total)


def detect_index(y: np.ndarray, codebook_responses: np.ndarray) -> int:
    """Index of the codeword response nearest to ``y`` by the ML rule that
    simulate_ber_curve applies to every trial; ties pick the lowest."""
    return int(np.argmin(_ml_scores(_embed(np.asarray(y)),
                                    _embed(np.asarray(codebook_responses)))))


def min_pairwise_spacing(part: UnitPartition, units) -> float:
    """Smallest centroid distance between distinct active units (inf if only one)."""
    active = unit_ids(part, units)
    if len(active) < 2:
        return math.inf
    dists = _centroid_distances(part)[np.ix_(active, active)]
    iu = np.triu_indices(len(active), k=1)
    return float(dists[iu].min())


def layout_distance(part: UnitPartition, a, b) -> int:
    """Number of elements active in exactly one of two candidates of ``part``.

    Units are disjoint tiles of ``unit_size`` elements, so that is the unit
    size times the number of units active in exactly one of them.
    """
    return part.unit_size * len(set(unit_ids(part, a)) ^ set(unit_ids(part, b)))
