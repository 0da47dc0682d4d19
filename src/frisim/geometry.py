"""Planar aperture geometry: grids, granularity partitions, candidate configurations.

Element indices and unit indices are row-major. Element (r, c) of a grid with
pitch ``spacing`` sits at ``(c * spacing, r * spacing)``; all coordinates are
in wavelengths.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from frisim.serialize import format_float, read_artifact, write_artifact

ELEMENT = "element"
GROUP = "group"
BLOCK = "block"

# Exhaustive candidate enumeration is used below these sizes; larger spaces are sampled.
EXHAUSTIVE_UNIT_LIMIT = 24
EXHAUSTIVE_COMBO_LIMIT = 100_000

# Rejection sampling gives up after this many draws per requested sample.
_ATTEMPTS_PER_SAMPLE = 200
_MIN_ATTEMPTS = 10_000
_BATCH_DRAWS = 4096  # most draws one rejection-sampling batch makes


class InfeasibleConstraintError(ValueError):
    """No candidate configuration satisfies the active generation constraints."""


@dataclass(frozen=True)
class GranularityMode:
    """Actuation granularity: independent elements or rectangular tiles.

    ``group`` and ``block`` both partition the grid into contiguous
    ``unit_rows x unit_cols`` tiles; they differ only in intent (blocks are
    coarse). ``element`` is the degenerate 1x1 tile.
    """

    kind: str
    unit_rows: int = 1
    unit_cols: int = 1

    def __post_init__(self) -> None:
        if self.kind not in (ELEMENT, GROUP, BLOCK):
            raise ValueError(f"unknown granularity kind: {self.kind!r}")
        if self.unit_rows < 1 or self.unit_cols < 1:
            raise ValueError("unit tile dimensions must be >= 1")
        if self.kind == ELEMENT and (self.unit_rows, self.unit_cols) != (1, 1):
            raise ValueError("element mode has a fixed 1x1 unit tile")

    @classmethod
    def element(cls) -> "GranularityMode":
        return cls(ELEMENT)

    @classmethod
    def group(cls, unit_rows: int, unit_cols: int) -> "GranularityMode":
        return cls(GROUP, unit_rows, unit_cols)

    @classmethod
    def block(cls, unit_rows: int, unit_cols: int) -> "GranularityMode":
        return cls(BLOCK, unit_rows, unit_cols)

    @property
    def label(self) -> str:
        if self.kind == ELEMENT:
            return ELEMENT
        return f"{self.kind}:{self.unit_rows}x{self.unit_cols}"

    @classmethod
    def parse(cls, text: str) -> "GranularityMode":
        """Parse a mode label such as ``element``, ``group:2x2`` or ``block:4x4``."""
        text = text.strip()
        if text == ELEMENT:
            return cls.element()
        kind, _, shape = text.partition(":")
        if kind in (GROUP, BLOCK) and shape:
            rows_txt, _, cols_txt = shape.partition("x")
            try:
                return cls(kind, int(rows_txt), int(cols_txt))
            except ValueError:
                pass
        raise ValueError(f"cannot parse granularity mode {text!r}")


@dataclass(frozen=True)
class ApertureGrid:
    """Rectangular reflecting aperture with uniform element pitch (wavelengths)."""

    rows: int
    cols: int
    spacing: float

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols

    @cached_property
    def positions(self) -> np.ndarray:
        """(N, 2) element coordinates in row-major element order."""
        r, c = np.divmod(np.arange(self.n_elements), self.cols)
        pos = np.column_stack((c * self.spacing, r * self.spacing)).astype(float)
        pos.flags.writeable = False
        return pos


def build_grid(rows: int, cols: int, spacing: float) -> ApertureGrid:
    if rows < 1 or cols < 1:
        raise ValueError(f"grid dimensions must be >= 1, got {rows}x{cols}")
    if not (spacing > 0):
        raise ValueError(f"element spacing must be positive, got {spacing}")
    return ApertureGrid(rows=rows, cols=cols, spacing=float(spacing))


@dataclass(frozen=True)
class UnitPartition:
    """Disjoint cover of a grid by same-shape actuation units, row-major tile order."""

    grid: ApertureGrid
    mode: GranularityMode
    elements: np.ndarray = field(compare=False)  # (U, unit_size) ascending ids, read-only

    @property
    def unit_count(self) -> int:
        return self.elements.shape[0]

    @property
    def unit_size(self) -> int:
        return self.elements.shape[1]

    @cached_property
    def unit_of_element(self) -> np.ndarray:
        """(N,) lookup mapping element index to its unit index."""
        lut = np.empty(self.grid.n_elements, dtype=np.int64)
        lut[self.elements] = np.arange(self.unit_count)[:, None]
        lut.flags.writeable = False
        return lut


def partition(grid: ApertureGrid, mode: GranularityMode) -> UnitPartition:
    """Split the grid into contiguous rectangular tiles of the mode's unit shape.

    A tile that does not divide the grid raises InfeasibleConstraintError.
    """
    gr, gc = mode.unit_rows, mode.unit_cols
    if grid.rows % gr or grid.cols % gc:
        raise InfeasibleConstraintError(
            f"mode {mode.label} does not tile the {grid.rows}x{grid.cols} grid")
    tiles = np.arange(grid.n_elements).reshape(grid.rows // gr, gr, grid.cols // gc, gc)
    elements = tiles.transpose(0, 2, 1, 3).reshape(-1, gr * gc)
    elements.flags.writeable = False
    return UnitPartition(grid=grid, mode=mode, elements=elements)


def active_unit_count(part: UnitPartition, n_act: int) -> int:
    """Number of ``part``'s units that ``n_act`` active elements fill; an
    ``n_act`` that is not a whole number of units, or that needs none or more
    than the grid has, raises InfeasibleConstraintError."""
    size, label = part.unit_size, part.mode.label
    if n_act % size:
        raise InfeasibleConstraintError(
            f"n_act={n_act} is not a multiple of the unit size {size} of mode {label}")
    n_units = n_act // size
    if not 1 <= n_units <= part.unit_count:
        raise InfeasibleConstraintError(f"n_act={n_act} needs {n_units} active {label} "
                                        f"units but the grid has {part.unit_count}")
    return n_units


def unit_centroids(part: UnitPartition) -> np.ndarray:
    """(U, 2) centroid coordinates of every unit."""
    return part.grid.positions[part.elements].mean(axis=1)


def default_min_unit_spacing(mode: GranularityMode) -> float:
    """Spacing-rule default: off for element mode, half a wavelength otherwise."""
    return 0.0 if mode.kind == ELEMENT else 0.5


def unit_ids(part: UnitPartition, units) -> list[int]:
    """Ascending distinct ids of one candidate's active units.

    An empty set, or an id outside the partition, raises ValueError.
    """
    ids = sorted(set(np.asarray(units).tolist()))
    if not ids:
        raise ValueError("a candidate must activate at least one unit")
    if ids[0] < 0 or ids[-1] >= part.unit_count:
        raise ValueError(f"unit ids {ids} out of range for {part.unit_count} units")
    return ids


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Deterministically generated pool of candidate configurations.

    ``units`` is the read-only (M, n_units) array of each candidate's
    ascending unit ids; candidate ids are its row positions.
    """

    partition: UnitPartition
    units: np.ndarray
    seed: int
    min_unit_spacing: float

    def __len__(self) -> int:
        return self.units.shape[0]

    @property
    def grid(self) -> ApertureGrid:
        return self.partition.grid

    def masks(self) -> np.ndarray:
        """(M, N) 0/1 activation masks, one row per candidate id; read-only."""
        return self._masks

    @cached_property
    def _masks(self) -> np.ndarray:
        out = np.zeros((len(self), self.grid.n_elements))
        out[np.arange(len(self))[:, None, None], self.partition.elements[self.units]] = 1.0
        out.flags.writeable = False
        return out


def _centroid_distances(part: UnitPartition) -> np.ndarray:
    cent = unit_centroids(part)
    diff = cent[:, None, :] - cent[None, :, :]
    return np.sqrt((diff ** 2).sum(axis=-1))


def enumerate_candidates(
    part: UnitPartition,
    n_act: int,
    m_samples: int,
    min_unit_spacing: float | None,
    seed: int,
) -> CandidateSet:
    """Generate up to ``m_samples`` distinct feasible configurations.

    A configuration activates ``n_act / unit_size`` units whose pairwise
    centroid distances are all >= ``min_unit_spacing``; ``None`` applies the
    mode's rule, ``default_min_unit_spacing(part.mode)``. Small unit spaces, and
    any of at most ``m_samples`` subsets, are enumerated exhaustively (and
    subsampled uniformly if more than ``m_samples`` sets are feasible); larger
    spaces use seeded rejection sampling, which warns when its attempt budget
    ends short of ``m_samples``. An ``n_act`` that ``active_unit_count``
    rejects raises InfeasibleConstraintError. Output is sorted by active-unit
    tuple, so candidate ids are stable for a given argument/seed combination.
    """
    if m_samples < 1:
        raise ValueError(f"m_samples must be >= 1, got {m_samples}")
    if min_unit_spacing is None:
        min_unit_spacing = default_min_unit_spacing(part.mode)
    if min_unit_spacing < 0:
        raise ValueError(f"min_unit_spacing must be >= 0, got {min_unit_spacing}")
    if n_act < 1:
        raise ValueError(f"n_act must be >= 1, got {n_act}")
    n_units = active_unit_count(part, n_act)

    bad_pairs = None
    if min_unit_spacing > 0 and n_units >= 2:
        bad = _centroid_distances(part) < min_unit_spacing
        np.fill_diagonal(bad, False)
        if bad.any():
            bad_pairs = bad

    total_combos = math.comb(part.unit_count, n_units)
    exhaustive = total_combos <= m_samples or (part.unit_count <= EXHAUSTIVE_UNIT_LIMIT
                                               and total_combos <= EXHAUSTIVE_COMBO_LIMIT)

    if exhaustive:
        # combinations() is lexicographic, so every row subset below stays sorted
        chosen = np.array(list(itertools.combinations(range(part.unit_count), n_units)),
                          dtype=np.intp)
        if bad_pairs is not None:
            chosen = chosen[~bad_pairs[chosen[:, :, None], chosen[:, None, :]].any(axis=(1, 2))]
        if not len(chosen):
            raise InfeasibleConstraintError(
                f"min_unit_spacing={min_unit_spacing} rejects all {total_combos} "
                f"{n_units}-unit subsets; the spacing rule is the binding constraint")
        if len(chosen) > m_samples:
            rng = np.random.default_rng(seed)
            chosen = chosen[np.sort(rng.choice(len(chosen), size=m_samples, replace=False))]
    else:
        chosen, attempts = _sample(part.unit_count, n_units, m_samples, bad_pairs, seed)
        if not len(chosen):
            raise InfeasibleConstraintError(
                f"min_unit_spacing={min_unit_spacing} rejected every one of "
                f"{attempts} sampled {n_units}-unit subsets; the spacing rule is "
                f"the binding constraint")
        if len(chosen) < m_samples:
            warnings.warn(
                f"rejection sampling requested {m_samples} candidates but found "
                f"{len(chosen)} in {attempts} attempts; the candidate set is short",
                stacklevel=2)

    chosen.flags.writeable = False
    return CandidateSet(
        partition=part,
        units=chosen,
        seed=int(seed),
        min_unit_spacing=float(min_unit_spacing),
    )


def _choice_rows(rng: np.random.Generator, n: int, k: int, count: int) -> np.ndarray:
    """The sorted picks of ``count`` successive ``rng.choice(n, k, replace=False)``
    calls. Save in its tail-shuffle branch, ``choice`` makes Floyd's k draws on
    [0, j], j = n-k .. n-1 (a repeat takes j), then k-1 shuffle draws; one
    ``integers`` call with those bounds per row makes the same draws."""
    if n > 10_000 and k > n // 50:
        return np.sort([rng.choice(n, k, replace=False) for _ in range(count)], axis=1)
    bounds = np.r_[n - k + 1:n + 1, k:1:-1]
    picks = rng.integers(0, np.broadcast_to(bounds, (count, 2 * k - 1)))[:, :k].T.copy()
    for c in range(1, k):
        picks[c, (picks[:c] == picks[c]).any(axis=0)] = n - k + c
    picks.sort(axis=0)
    return picks.T


def _sample(unit_count: int, n_units: int, m_samples: int, bad_pairs, seed: int):
    """The first ``m_samples`` distinct draws that no pair of ``bad_pairs`` rules
    out, sorted, and the attempts spent. A batch covers what is still missing at
    the yield so far; batch sizes do not change the stream."""
    rng = np.random.default_rng(seed)
    row = np.dtype((np.void, 8 * n_units))  # big-endian rows compare as tuples
    found = np.empty(0, row)
    budget = max(_MIN_ATTEMPTS, _ATTEMPTS_PER_SAMPLE * m_samples)
    attempts = 0
    while len(found) < m_samples and attempts < budget:
        need = m_samples - len(found)
        count = min(budget - attempts, _BATCH_DRAWS, need * -(-(attempts + 1) // (len(found) + 1)))
        draws = _choice_rows(rng, unit_count, n_units, count)
        keys = draws.astype(">i8", order="C").view(row).ravel()
        first = np.unique(np.concatenate([found, keys]), return_index=True)[1] - len(found)
        new = np.sort(first[first >= 0])  # first sightings, in draw order
        if bad_pairs is not None:
            new = new[~bad_pairs[draws[new, :, None], draws[new, None, :]].any(axis=(1, 2))]
        attempts += int(new[need - 1]) + 1 if len(new) >= need else count
        found = np.concatenate([found, keys[new[:need]]])
    return np.sort(found).view(">i8").reshape(-1, n_units).astype(np.intp), attempts


def save_candidate_set(candidates: CandidateSet, path) -> None:
    """Write the structured text form consumed by the harness."""
    grid = candidates.grid
    elements = candidates.partition.elements[candidates.units].reshape(len(candidates), -1)
    write_artifact(path, "candidate-set", {
        "rows": grid.rows,
        "cols": grid.cols,
        "spacing": format_float(grid.spacing),
        "mode": candidates.partition.mode.label,
        "min_unit_spacing": format_float(candidates.min_unit_spacing),
        "seed": candidates.seed,
        "count": len(candidates),
    }, ["config=" + ",".join(map(str, row)) for row in np.sort(elements, axis=1).tolist()])


def load_candidate_set(path) -> CandidateSet:
    header, records = read_artifact(path, "candidate-set", (
        "rows", "cols", "spacing", "mode", "min_unit_spacing", "seed", "count"))
    grid = build_grid(int(header["rows"]), int(header["cols"]), float(header["spacing"]))
    part = partition(grid, GranularityMode.parse(header["mode"]))
    unit_lists = []
    for record in records:
        key, _, value = record.partition("=")
        if key.strip() != "config":
            raise ValueError(f"candidate-set file has a stray line {record!r}")
        elements = [int(tok) for tok in value.split(",") if tok]
        if any(not 0 <= e < grid.n_elements for e in elements):
            raise ValueError("configuration references elements outside the grid")
        units = unit_ids(part, part.unit_of_element[elements])
        if set(part.elements[units].ravel().tolist()) != set(elements):
            raise ValueError("configuration elements do not cover whole units")
        if unit_lists and len(units) != len(unit_lists[0]):
            raise ValueError(
                f"candidate-set file mixes configurations of {len(unit_lists[0])} "
                f"and {len(units)} units")
        unit_lists.append(units)
    if not unit_lists:
        raise ValueError("candidate-set file lists no config= line")
    count = int(header["count"])
    if count != len(unit_lists):
        raise ValueError(
            f"candidate-set file declares {count} configurations but lists "
            f"{len(unit_lists)}")
    units = np.array(unit_lists, dtype=np.intp)
    units.flags.writeable = False
    return CandidateSet(
        partition=part,
        units=units,
        seed=int(header["seed"]),
        min_unit_spacing=float(header["min_unit_spacing"]),
    )
