"""Codebook selection by max-min separation in the response or layout domain.

The design metric between candidates i and j is the squared Euclidean norm of
their response difference. Selection maximizes the minimum pairwise metric
over the chosen members (max-min dispersion).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from frisim.channel import ResponseMap
from frisim.geometry import CandidateSet, InfeasibleConstraintError
from frisim.serialize import format_float, read_artifact, write_artifact

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


class DistanceMatrix:
    """Symmetric nonnegative pairwise metric over candidate ids 0..M-1.

    Every read goes through one kernel, ``_pairs(left, right)``: the
    distances between the candidates two broadcasting ``intp`` index arrays
    select. Here it indexes the (M, M) ``values`` array given; the views of
    ``pairwise_distances`` and ``layout_distances`` compute it per domain.
    ``rows`` and ``block`` cost one kernel call each, the upper triangle and
    the ``_ceiling``-bounded farthest-pair scan are read in row blocks, and
    only ``values`` builds (and keeps) a view's full matrix, mirroring each
    upper row block below the diagonal so the work stays close to half.
    """

    # No pair is farther apart than this, so farthest_pair stops at the first
    # pair that reaches it. A domain whose input bounds its distances sets it.
    _ceiling = np.inf
    _pair: tuple[int, int] | None = None
    _values: np.ndarray | None = None

    def __init__(self, values: np.ndarray, domain_tag: str) -> None:
        if values.ndim != 2 or values.shape[0] != values.shape[1]:
            raise ValueError(f"distance matrix must be square, got shape {values.shape}")
        if domain_tag not in (DOMAIN_RESPONSE, DOMAIN_LAYOUT):
            raise ValueError(f"unknown distance domain {domain_tag!r}")
        self._values = values
        self._size = values.shape[0]
        self._dtype = values.dtype
        self.domain_tag = domain_tag

    def _pairs(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        return self._values[left, right]

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            m = self.size
            out = np.empty((m, m), dtype=self._dtype)
            for start, stop in _row_blocks(m, m):
                block = self._pairs(np.arange(start, stop)[:, None], np.arange(start, m))
                out[start:stop, start:] = block
                out[start:, start:stop] = block.T
            self._values = out
        return self._values

    @property
    def size(self) -> int:
        return self._size

    def rows(self, ids) -> np.ndarray:
        """(len(ids), M) distances from each candidate in ``ids`` to all."""
        return self._pairs(np.asarray(ids, dtype=np.intp)[:, None], np.arange(self.size))

    def block(self, ids) -> np.ndarray:
        """(K, K) distances among the candidates ``ids``, in their order."""
        idx = np.asarray(ids, dtype=np.intp)
        return self._pairs(idx[:, None], idx)

    def upper_triangle(self) -> np.ndarray:
        """Strict upper triangle in row-major order, as a new array."""
        m = self.size
        out = np.empty(m * (m - 1) // 2, dtype=self._dtype)
        pos = 0
        for start, stop in _row_blocks(m, m):
            keep = np.arange(m - start)[None, :] > np.arange(stop - start)[:, None]
            part = self._pairs(np.arange(start, stop)[:, None], np.arange(start, m))[keep]
            out[pos:pos + part.size] = part
            pos += part.size
        return out

    def farthest_pair(self) -> tuple[int, int]:
        """First row-major maximum of the strict upper triangle, or (0, 1)
        when every entry is zero; computed once and kept.

        Rows start:stop are read against columns start: one row block at a
        time. A block holds, one row earlier, the mirror of every entry below
        its diagonal, so its first maximum lies in the strict upper triangle
        unless the block is all zero. The scan stops at the first pair that
        reaches ``_ceiling``: a later pair could only tie it.
        """
        if self._pair is None:
            m = self.size
            _require_pair(m)
            pair, found = (0, 1), 0
            for start, stop in _row_blocks(m, m):
                d = self._pairs(np.arange(start, stop)[:, None], np.arange(start, m))
                top = int(np.argmax(d))
                if d.flat[top] > found:
                    row, col = divmod(top, m - start)
                    pair, found = (start + row, start + col), d.flat[top]
                    if found >= self._ceiling:
                        break
            self._pair = pair
        return self._pair


def _require_pair(m: int) -> None:
    if m < 2:
        raise ValueError(f"a farthest pair needs 2 candidates, got {m}")


def _row_blocks(rows: int, width: int):
    """(start, stop) blocks of ``rows`` rows ``width`` entries long, about
    2^15 entries a block, which keeps the temporaries in cache."""
    chunk = max(1, (1 << 15) // max(1, width))
    for start in range(0, rows, chunk):
        yield start, min(rows, start + chunk)


@dataclass(frozen=True)
class Codebook:
    """Selected candidate ids in selection order, plus the design summary."""

    members: tuple[int, ...]
    selection_method: str
    d_min: float
    bit_width: float
    seed: int | None = None


# Relative slack on the norm bound of farthest_pair; see the comment there.
_PRUNE_SLACK = 1.0 + 1e-9


class _ResponseDistances(DistanceMatrix):
    """Response distances of a map, computed on demand from its rows: O(M R)
    a row, and a norm-pruned scan for the farthest pair."""

    def __init__(self, response_map: ResponseMap) -> None:
        values = response_map.values
        self._re = np.ascontiguousarray(values.real.T)
        self._im = np.ascontiguousarray(values.imag.T)
        self._size = values.shape[0]
        self._dtype = np.float64
        self.domain_tag = DOMAIN_RESPONSE

    def _pairs(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        # The per-antenna terms are summed in antenna order. Every read gets
        # the same terms in the same order, so a pair's distance is
        # bit-identical whichever read computes it.
        total = None
        for re, im in zip(self._re, self._im):
            dr = re[left] - re[right]
            di = im[left] - im[right]
            dr *= dr
            di *= di
            dr += di
            if total is None:
                total = dr
            else:
                total += dr
        return total

    def farthest_pair(self) -> tuple[int, int]:
        m = self.size
        _require_pair(m)
        re, im = self._re, self._im
        # Exactness of the pruning. For any centre c the triangle inequality
        # gives d(i, j) <= (n_i + n_j)^2, with n the norms about c; c is the
        # computed pool mean, and it need not be exact, only common to all
        # candidates. Every computed norm, bound and distance is a short chain
        # of correctly rounded operations on nonnegative terms (each
        # difference is one subtraction), so each lies within a relative
        # (R + 10) * 2^-53 of its exact value, far below 1e-9 for any antenna
        # count in use (squares in the normal float range assumed). A computed
        # distance therefore never exceeds its computed bound times
        # _PRUNE_SLACK. A pair is skipped only when that product is below the
        # computed distance ``best`` of a pair already seen, so a skipped pair
        # is strictly closer than the maximum and cannot tie it: the maximum
        # and its ties are all scanned, in row-major order.
        cr = re - re.mean(axis=1, keepdims=True)
        ci = im - im.mean(axis=1, keepdims=True)
        norms = np.sqrt(np.sum(cr * cr + ci * ci, axis=0))
        # The candidate farthest from the centre gives a first, usually tight,
        # lower bound on the maximum.
        best = float(self.rows([int(np.argmax(norms))]).max())
        reach = np.flatnonzero((norms + norms.max()) ** 2 * _PRUNE_SLACK >= best)
        columns = np.arange(m)
        pair, found = None, -np.inf
        for start, stop in _row_blocks(len(reach), m):
            rows = reach[start:stop]
            keep = (norms[rows, None] + norms) ** 2 * _PRUNE_SLACK >= best
            keep &= columns > rows[:, None]
            i, j = np.nonzero(keep)
            if not i.size:
                continue
            i = rows[i]
            d = self._pairs(i, j)
            top = int(np.argmax(d))
            if d[top] > found:
                pair, found = (int(i[top]), int(j[top])), float(d[top])
                best = max(best, found)
        assert pair is not None, "the pair that set the first bound was pruned"
        return pair


def pairwise_distances(response_map: ResponseMap) -> DistanceMatrix:
    """Response distances of ``response_map``'s candidates, as a view whose
    pair kernel works from the map's rows.

    Every entry is bit-identical to the one-pair response_distance of
    tests/oracles.py on the same rows: direct differencing (rather than a
    Gram-matrix expansion) gives the same per-antenna terms, and they are
    added in the same index order. Swapping a pair only flips the sign of its
    difference, so rows, blocks and the mirrored half of ``values`` are exact
    too, and a candidate's distance to itself is exactly 0.
    """
    return _ResponseDistances(response_map)


# Set bits of every 16-bit word, for popcounts of packed masks: word
# 256 * hi + lo holds the bits of the bytes hi and lo.
_BYTE_BITS = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)
_POPCOUNT = (_BYTE_BITS[:, None] + _BYTE_BITS[None, :]).ravel()


class _LayoutDistances(DistanceMatrix):
    """Layout distances of a candidate set, computed on demand from its
    bit-packed masks."""

    def __init__(self, candidates: CandidateSet) -> None:
        n = candidates.grid.n_elements
        packed = np.packbits(candidates.masks() != 0, axis=1)
        packed = np.pad(packed, ((0, 0), (0, packed.shape[1] % 2)))
        # Row w holds mask word w of every candidate.
        self._words = np.ascontiguousarray(packed.view(np.uint16).T)
        active = candidates.units.shape[1] * candidates.partition.unit_size
        self._ceiling = min(2 * active, 2 * (n - active))
        self._size = len(candidates)
        self._dtype = np.min_scalar_type(n)
        self.domain_tag = DOMAIN_LAYOUT

    def _pairs(self, left: np.ndarray, right: np.ndarray) -> np.ndarray:
        count = None
        for word in self._words:
            bits = _POPCOUNT.take(word[left] ^ word[right])
            if count is None:
                count = bits.astype(self._dtype, copy=False)
            else:
                count += bits
        return count


def layout_distances(candidates: CandidateSet) -> DistanceMatrix:
    """Symmetric-difference cardinalities between candidate layouts, as a
    view whose pair kernel works from their bit-packed masks.

    Counted exactly as popcounts of XORed bit-packed masks, one 16-bit mask
    word at a time through a 64 KiB table. An integer matmul is several
    times slower, and a float one runs multi-threaded BLAS for a product
    this size. A count never exceeds the grid's element count, so every read
    holds the smallest unsigned type that fits it (uint8 up to 255 elements).

    Every candidate of a set activates the same a of the grid's N elements,
    so two layouts differ in at most min(2a, 2(N - a)) of them. That bound
    is the view's ``_ceiling``: ``farthest_pair`` stops at the first pair
    that reaches it and reads the whole triangle only when none does. The
    view keeps its pair, since a run reuses one pool for every seed.
    """
    return _LayoutDistances(candidates)


def subset_d_min(values: np.ndarray, members) -> float:
    """Smallest pairwise entry of ``values`` among ``members``."""
    idx = list(members)
    sub = values[np.ix_(idx, idx)]
    iu = np.triu_indices(len(idx), k=1)
    return float(sub[iu].min())


def _greedy_members(distances: DistanceMatrix, k: int) -> list[int]:
    """Farthest-point greedy from the farthest pair; all ties resolve to the
    lowest candidate id. Reads the pair and the k rows of the members only."""
    members = list(distances.farthest_pair())
    pair = distances.rows(members)
    gap = np.minimum(pair[0], pair[1]).astype(float, copy=False)
    gap[members] = -np.inf
    while len(members) < k:
        nxt = int(np.argmax(gap))
        members.append(nxt)
        gap = np.minimum(gap, distances.rows([nxt])[0])
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
    block = distances.block(members)
    return Codebook(members=members, selection_method=method,
                    d_min=subset_d_min(block, range(len(members))),
                    bit_width=math.log2(len(members)), seed=seed)


def select_maxmin_greedy(distances: DistanceMatrix, k: int) -> Codebook:
    """Greedy max-min selection seeded with the globally farthest pair."""
    _require_domain(distances, DOMAIN_RESPONSE)
    _check_k(k, distances.size)
    return _codebook(_greedy_members(distances, k), METHOD_GREEDY, distances)


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
    return _codebook(_greedy_members(layout, k), METHOD_LAYOUT, distances)


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
    block = distances.block(codebook.members)
    kept: list[int] = []
    for position in range(len(codebook.members)):
        if all(block[position, other] >= delta for other in kept):
            kept.append(position)
    return len(kept)


def save_codebook(codebook: Codebook, path) -> None:
    write_artifact(path, "codebook", {
        "method": codebook.selection_method,
        "seed": "none" if codebook.seed is None else codebook.seed,
        "members": ",".join(str(m) for m in codebook.members),
        "d_min": format_float(codebook.d_min),
        "bit_width": format_float(codebook.bit_width),
    })


def load_codebook(path) -> Codebook:
    header, records = read_artifact(path, "codebook",
                                    ("method", "seed", "members", "d_min", "bit_width"))
    if records:
        raise ValueError(f"codebook file has a stray line {records[0]!r}")
    if header["method"] not in SELECTION_METHODS:
        raise ValueError(f"unknown selection method {header['method']!r}")
    return Codebook(
        members=tuple(int(tok) for tok in header["members"].split(",") if tok),
        selection_method=header["method"],
        d_min=float(header["d_min"]),
        bit_width=float(header["bit_width"]),
        seed=None if header["seed"] == "none" else int(header["seed"]),
    )
