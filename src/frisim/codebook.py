"""Codebook selection by max-min separation in the response or layout domain.

The design metric between candidates i and j is the squared Euclidean norm of
their response difference. Selection maximizes the minimum pairwise metric
over the chosen members (max-min dispersion).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from frisim.channel import ResponseMap
from frisim.geometry import CandidateSet, InfeasibleConstraintError
from frisim.serialize import format_float, parse_key_value

DOMAIN_RESPONSE = "response"
DOMAIN_LAYOUT = "layout"

METHOD_GREEDY = "response_maxmin_greedy"
METHOD_EXACT = "response_maxmin_exact"
METHOD_LAYOUT = "layout_maxmin"
METHOD_RANDOM = "random"
METHOD_FIXED_RIS = "fixed_ris"
SELECTION_METHODS = (METHOD_GREEDY, METHOD_EXACT, METHOD_LAYOUT, METHOD_RANDOM,
                     METHOD_FIXED_RIS)

# Exhaustive search refuses instances with more subsets than this.
EXACT_SUBSET_LIMIT = 10_000_000


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Symmetric nonnegative pairwise metric over candidate ids 0..M-1."""

    values: np.ndarray
    domain_tag: str

    def __post_init__(self) -> None:
        v = self.values
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {v.shape}")
        if self.domain_tag not in (DOMAIN_RESPONSE, DOMAIN_LAYOUT):
            raise ValueError(f"unknown distance domain {self.domain_tag!r}")

    @property
    def size(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class Codebook:
    """Selected candidate ids in selection order, plus the design summary."""

    members: tuple[int, ...]
    selection_method: str
    d_min: float
    bit_width: float
    seed: int | None = None


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


def _symmetric_from_row_blocks(m: int, block, dtype) -> np.ndarray:
    """(m, m) ``dtype`` matrix from its upper triangle: ``block(start, stop)``
    gives rows start:stop against columns start:, and each block is mirrored
    below the diagonal."""
    out = np.empty((m, m), dtype=dtype)
    # Row blocks of about 2^15 entries keep the temporaries in cache and the
    # work close to half of the full matrix.
    chunk = max(1, (1 << 15) // max(1, m))
    for start in range(0, m, chunk):
        stop = min(m, start + chunk)
        values = block(start, stop)
        out[start:stop, start:] = values
        out[start:, start:stop] = values.T
    return out


def pairwise_distances(response_map: ResponseMap) -> DistanceMatrix:
    """All-pairs response distances, computed by direct differencing.

    Each entry is bit-identical to response_distance on the same rows:
    direct differencing (rather than a Gram-matrix expansion) gives the same
    per-antenna terms, and they are added in the same index order. Only the
    upper triangle is computed; the difference of a pair only changes
    sign when the pair is swapped, so the mirrored entries are exact.
    """
    values = response_map.values
    re = np.ascontiguousarray(values.real.T)
    im = np.ascontiguousarray(values.imag.T)

    def block(start: int, stop: int) -> np.ndarray:
        def term(t: int) -> np.ndarray:
            dr = re[t, start:stop, None] - re[t, None, start:]
            di = im[t, start:stop, None] - im[t, None, start:]
            dr *= dr
            di *= di
            dr += di
            return dr
        total = term(0)
        for t in range(1, values.shape[1]):
            total += term(t)
        return total

    out = _symmetric_from_row_blocks(len(response_map), block, np.float64)
    np.fill_diagonal(out, 0.0)
    return DistanceMatrix(values=out, domain_tag=DOMAIN_RESPONSE)


# Set bits of every byte value, for popcounts of packed masks.
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def layout_distances(candidates: CandidateSet) -> DistanceMatrix:
    """All-pairs symmetric-difference cardinalities between candidate layouts.

    Counted exactly as popcounts of XORed bit-packed masks, one mask byte at a
    time. An integer matmul is several times slower, and a float one runs
    multi-threaded BLAS for a product this size. A count never exceeds the
    grid's element count, so the matrix holds the smallest unsigned type that
    fits it (uint8 up to 255 elements).
    """
    packed = np.ascontiguousarray(np.packbits(candidates.masks() != 0, axis=1).T)
    dtype = np.min_scalar_type(candidates.grid.n_elements)

    def block(start: int, stop: int) -> np.ndarray:
        count = np.zeros((stop - start, len(candidates) - start), dtype=dtype)
        for byte in packed:
            count += _POPCOUNT.take(byte[start:stop, None] ^ byte[None, start:])
        return count

    out = _symmetric_from_row_blocks(len(candidates), block, dtype)
    return DistanceMatrix(values=out, domain_tag=DOMAIN_LAYOUT)


def subset_d_min(values: np.ndarray, members) -> float:
    """Smallest pairwise entry of ``values`` among ``members``."""
    idx = list(members)
    sub = values[np.ix_(idx, idx)]
    iu = np.triu_indices(len(idx), k=1)
    return float(sub[iu].min())


def _greedy_members(values: np.ndarray, k: int) -> list[int]:
    """Farthest-point greedy; all ties resolve to the lowest candidate id.

    ``values`` is symmetric with a zero diagonal, so the first row-major
    maximum lies in the strict upper triangle unless every entry is zero;
    that matrix starts from the pair (0, 1).
    """
    first, second = divmod(int(np.argmax(values)), values.shape[1])
    if first == second:
        first, second = 0, 1
    members = [first, second]
    gap = np.minimum(values[first], values[second]).astype(float, copy=False)
    gap[members] = -np.inf
    while len(members) < k:
        nxt = int(np.argmax(gap))
        members.append(nxt)
        gap = np.minimum(gap, values[nxt])
        gap[nxt] = -np.inf
    return members


def _check_k(k: int, m: int) -> None:
    if k < 2:
        raise ValueError(f"a codebook needs at least 2 members, got k={k}")
    if k > m:
        raise InfeasibleConstraintError(
            f"cannot select k={k} members from {m} candidates")


def _require_domain(distances: DistanceMatrix, domain: str) -> None:
    if distances.domain_tag != domain:
        raise ValueError(
            f"expected a {domain}-domain distance matrix, got {distances.domain_tag}")


def _codebook(members, method: str, distances: DistanceMatrix,
              seed: int | None = None) -> Codebook:
    """``members`` as ``method``'s codebook; every selector reports d_min from
    the response-domain ``distances`` so codebooks stay comparable."""
    members = tuple(members)
    return Codebook(members=members, selection_method=method,
                    d_min=subset_d_min(distances.values, members),
                    bit_width=math.log2(len(members)), seed=seed)


def select_maxmin_greedy(distances: DistanceMatrix, k: int) -> Codebook:
    """Greedy max-min selection seeded with the globally farthest pair."""
    _require_domain(distances, DOMAIN_RESPONSE)
    _check_k(k, distances.size)
    return _codebook(_greedy_members(distances.values, k), METHOD_GREEDY, distances)


def select_maxmin_exact(distances: DistanceMatrix, k: int) -> Codebook:
    """Exhaustive max-min optimum; ties go to the lexicographically smallest set."""
    _require_domain(distances, DOMAIN_RESPONSE)
    m = distances.size
    _check_k(k, m)
    n_subsets = math.comb(m, k)
    if n_subsets > EXACT_SUBSET_LIMIT:
        raise InfeasibleConstraintError(
            f"exhaustive search over {n_subsets} subsets exceeds the "
            f"{EXACT_SUBSET_LIMIT} limit; use select_maxmin_greedy instead")
    values = distances.values
    best_members: tuple[int, ...] | None = None
    best_d = -np.inf
    for combo in itertools.combinations(range(m), k):
        d = subset_d_min(values, combo)
        if d > best_d:
            best_d = d
            best_members = combo
    assert best_members is not None
    return _codebook(best_members, METHOD_EXACT, distances)


def select_random(distances: DistanceMatrix, k: int, seed: int) -> Codebook:
    """Uniform k-subset baseline; members are reported in ascending id order."""
    _require_domain(distances, DOMAIN_RESPONSE)
    _check_k(k, distances.size)
    rng = np.random.default_rng(seed)
    members = sorted(int(i) for i in rng.choice(distances.size, size=k, replace=False))
    return _codebook(members, METHOD_RANDOM, distances, seed=int(seed))


def select_layout_maxmin(layout: DistanceMatrix, distances: DistanceMatrix,
                         k: int) -> Codebook:
    """Greedy max-min on layout distances; d_min comes from the
    response-domain ``distances``, as for every selector."""
    _require_domain(layout, DOMAIN_LAYOUT)
    _require_domain(distances, DOMAIN_RESPONSE)
    if layout.size != distances.size:
        raise ValueError("layout and response distances cover different candidates")
    _check_k(k, layout.size)
    return _codebook(_greedy_members(layout.values, k), METHOD_LAYOUT, distances)


def select_codebook(method: str, distances: DistanceMatrix,
                    layout: DistanceMatrix | None, k: int, seed: int) -> Codebook:
    """Run the selector ``method`` names. ``layout`` is read only by
    layout_maxmin and ``seed`` only by random; fixed_ris takes every
    candidate. A pool too small for ``k`` raises InfeasibleConstraintError."""
    if method == METHOD_GREEDY:
        return select_maxmin_greedy(distances, k)
    if method == METHOD_EXACT:
        return select_maxmin_exact(distances, k)
    if method == METHOD_RANDOM:
        return select_random(distances, k, seed)
    if method == METHOD_LAYOUT:
        if layout is None:
            raise ValueError("layout_maxmin needs the layout distance matrix")
        return select_layout_maxmin(layout, distances, k)
    if method == METHOD_FIXED_RIS:
        return _codebook(range(distances.size), METHOD_FIXED_RIS, distances)
    raise ValueError(f"method {method!r} has no selector")


def effective_size(codebook: Codebook, distances: DistanceMatrix, delta: float) -> int:
    """Count members surviving greedy prefix pruning at threshold ``delta``.

    Members are visited in codebook order; one is kept only when its response
    distance to every already-kept member is at least ``delta``.
    """
    _require_domain(distances, DOMAIN_RESPONSE)
    if delta < 0:
        raise ValueError(f"delta must be >= 0, got {delta}")
    values = distances.values
    kept: list[int] = []
    for member in codebook.members:
        if all(values[member, other] >= delta for other in kept):
            kept.append(member)
    return len(kept)


def save_codebook(codebook: Codebook, path) -> None:
    lines = [
        "# frisim codebook v1",
        f"method={codebook.selection_method}",
        f"seed={'none' if codebook.seed is None else codebook.seed}",
        "members=" + ",".join(str(m) for m in codebook.members),
        f"d_min={format_float(codebook.d_min)}",
        f"bit_width={format_float(codebook.bit_width)}",
    ]
    Path(path).write_text("\n".join(lines) + "\n")


def load_codebook(path) -> Codebook:
    header: dict[str, str] = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, value = parse_key_value(line)
        header[key] = value
    try:
        method = header["method"]
        seed_txt = header["seed"]
        members = tuple(int(tok) for tok in header["members"].split(",") if tok)
        d_min = float(header["d_min"])
        bit_width = float(header["bit_width"])
    except KeyError as missing:
        raise ValueError(f"codebook file is missing key {missing}") from None
    if method not in SELECTION_METHODS:
        raise ValueError(f"unknown selection method {method!r}")
    return Codebook(
        members=members,
        selection_method=method,
        d_min=d_min,
        bit_width=bit_width,
        seed=None if seed_txt == "none" else int(seed_txt),
    )
