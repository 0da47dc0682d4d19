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
from pathlib import Path

import numpy as np

from frisim.serialize import format_float, parse_key_value

ELEMENT = "element"
GROUP = "group"
BLOCK = "block"

# Exhaustive candidate enumeration is used below these sizes; larger spaces are sampled.
EXHAUSTIVE_UNIT_LIMIT = 24
EXHAUSTIVE_COMBO_LIMIT = 100_000

# Rejection sampling gives up after this many draws per requested sample.
_ATTEMPTS_PER_SAMPLE = 200
_MIN_ATTEMPTS = 10_000


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
            f"unit tile {gr}x{gc} does not divide grid {grid.rows}x{grid.cols}")
    tiles = np.arange(grid.n_elements).reshape(grid.rows // gr, gr, grid.cols // gc, gc)
    elements = tiles.transpose(0, 2, 1, 3).reshape(-1, gr * gc)
    elements.flags.writeable = False
    return UnitPartition(grid=grid, mode=mode, elements=elements)


def unit_centroids(part: UnitPartition) -> np.ndarray:
    """(U, 2) centroid coordinates of every unit."""
    return part.grid.positions[part.elements].mean(axis=1)


def default_min_unit_spacing(mode: GranularityMode) -> float:
    """Spacing-rule default: off for element mode, half a wavelength otherwise."""
    return 0.0 if mode.kind == ELEMENT else 0.5


@dataclass(frozen=True)
class Configuration:
    """One surface configuration: the set of simultaneously active units."""

    active_units: frozenset[int]
    active_elements: frozenset[int]

    def __post_init__(self) -> None:
        if not self.active_units:
            raise ValueError("a configuration must activate at least one unit")

    @property
    def n_act(self) -> int:
        return len(self.active_elements)


def config_from_units(part: UnitPartition, unit_indices) -> Configuration:
    units = frozenset(int(u) for u in unit_indices)
    for u in units:
        if not 0 <= u < part.unit_count:
            raise ValueError(f"unit index {u} out of range for {part.unit_count} units")
    elements = frozenset(part.elements[sorted(units)].ravel().tolist())
    return Configuration(active_units=units, active_elements=elements)


def activation_mask(config: Configuration, n_elements: int) -> np.ndarray:
    """(N,) 0/1 float mask of active elements."""
    mask = np.zeros(n_elements)
    idx = sorted(config.active_elements)
    if idx and idx[-1] >= n_elements:
        raise ValueError("configuration references elements outside the grid")
    mask[idx] = 1.0
    return mask


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Deterministically generated pool of candidate configurations.

    ``units`` is the read-only (M, n_units) array of each candidate's
    ascending unit ids; candidate ids are its row positions.
    """

    grid: ApertureGrid
    partition: UnitPartition
    units: np.ndarray
    seed: int
    min_unit_spacing: float

    def __len__(self) -> int:
        return self.units.shape[0]

    @cached_property
    def configurations(self) -> tuple[Configuration, ...]:
        """One Configuration per candidate id, built on first access."""
        return tuple(config_from_units(self.partition, row) for row in self.units)

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


def _spacing_ok(unit_tuple, bad_pairs: np.ndarray | None) -> bool:
    return bad_pairs is None or not bad_pairs[np.ix_(unit_tuple, unit_tuple)].any()


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
    mode's rule, ``default_min_unit_spacing(part.mode)``. Small unit spaces are
    enumerated exhaustively (and subsampled uniformly if more than
    ``m_samples`` sets are feasible); large spaces use seeded rejection
    sampling, which warns when its attempt budget ends short of
    ``m_samples``. An ``n_act`` that no whole number of units covers raises
    InfeasibleConstraintError. Output is sorted by active-unit tuple, so
    candidate ids are stable for a given argument/seed combination.
    """
    if m_samples < 1:
        raise ValueError(f"m_samples must be >= 1, got {m_samples}")
    if min_unit_spacing is None:
        min_unit_spacing = default_min_unit_spacing(part.mode)
    if min_unit_spacing < 0:
        raise ValueError(f"min_unit_spacing must be >= 0, got {min_unit_spacing}")
    if n_act < 1:
        raise ValueError(f"n_act must be >= 1, got {n_act}")
    unit_size = part.unit_size
    if n_act % unit_size:
        raise InfeasibleConstraintError(
            f"n_act={n_act} is not a multiple of the unit size {unit_size}")
    n_units = n_act // unit_size
    if n_units > part.unit_count:
        raise InfeasibleConstraintError(
            f"n_act={n_act} needs {n_units} active units but the partition has "
            f"only {part.unit_count}")

    bad_pairs = None
    if min_unit_spacing > 0 and n_units >= 2:
        bad = _centroid_distances(part) < min_unit_spacing
        np.fill_diagonal(bad, False)
        if bad.any():
            bad_pairs = bad

    total_combos = math.comb(part.unit_count, n_units)
    exhaustive = (part.unit_count <= EXHAUSTIVE_UNIT_LIMIT
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
        rng = np.random.default_rng(seed)
        found: set[tuple[int, ...]] = set()
        budget = max(_MIN_ATTEMPTS, _ATTEMPTS_PER_SAMPLE * m_samples)
        attempts = 0
        while len(found) < m_samples and attempts < budget:
            attempts += 1
            draw = tuple(sorted(rng.choice(part.unit_count, size=n_units, replace=False).tolist()))
            if draw not in found and _spacing_ok(draw, bad_pairs):
                found.add(draw)
        if not found:
            raise InfeasibleConstraintError(
                f"min_unit_spacing={min_unit_spacing} rejected every one of "
                f"{attempts} sampled {n_units}-unit subsets; the spacing rule is "
                f"the binding constraint")
        if len(found) < m_samples:
            warnings.warn(
                f"rejection sampling requested {m_samples} candidates but found "
                f"{len(found)} in {attempts} attempts; the candidate set is short",
                stacklevel=2)
        chosen = np.array(sorted(found), dtype=np.intp)

    chosen.flags.writeable = False
    return CandidateSet(
        grid=part.grid,
        partition=part,
        units=chosen,
        seed=int(seed),
        min_unit_spacing=float(min_unit_spacing),
    )


def min_pairwise_spacing(config: Configuration, grid: ApertureGrid,
                         part: UnitPartition) -> float:
    """Smallest centroid distance between distinct active units (inf if only one)."""
    if part.grid != grid:
        raise ValueError("partition does not belong to the given grid")
    active = sorted(config.active_units)
    if active[-1] >= part.unit_count:
        raise ValueError("configuration references units outside the partition")
    if len(active) < 2:
        return math.inf
    dists = _centroid_distances(part)[np.ix_(active, active)]
    iu = np.triu_indices(len(active), k=1)
    return float(dists[iu].min())


def layout_distance(a: Configuration, b: Configuration) -> int:
    """Number of elements active in exactly one of the two configurations."""
    # Same partition implies the same unit size; that much is checkable here.
    if a.n_act * len(b.active_units) != b.n_act * len(a.active_units):
        raise ValueError("configurations have different unit sizes; partitions differ")
    return len(a.active_elements ^ b.active_elements)


def save_candidate_set(candidates: CandidateSet, path) -> None:
    """Write the structured text form consumed by the harness."""
    grid = candidates.grid
    lines = [
        "# frisim candidate-set v1",
        f"rows={grid.rows}",
        f"cols={grid.cols}",
        f"spacing={format_float(grid.spacing)}",
        f"mode={candidates.partition.mode.label}",
        f"min_unit_spacing={format_float(candidates.min_unit_spacing)}",
        f"seed={candidates.seed}",
        f"count={len(candidates)}",
    ]
    elements = candidates.partition.elements[candidates.units].reshape(len(candidates), -1)
    lines += ["config=" + ",".join(map(str, row)) for row in np.sort(elements, axis=1).tolist()]
    Path(path).write_text("\n".join(lines) + "\n")


def load_candidate_set(path) -> CandidateSet:
    header: dict[str, str] = {}
    element_lists: list[list[int]] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, value = parse_key_value(line)
        if key == "config":
            element_lists.append([int(tok) for tok in value.split(",") if tok])
        else:
            header[key] = value
    try:
        grid = build_grid(int(header["rows"]), int(header["cols"]), float(header["spacing"]))
        mode = GranularityMode.parse(header["mode"])
        min_spacing = float(header["min_unit_spacing"])
        seed = int(header["seed"])
        count = int(header["count"])
    except KeyError as missing:
        raise ValueError(f"candidate-set file is missing key {missing}") from None
    if not element_lists:
        raise ValueError("candidate-set file lists no config= line")
    if count != len(element_lists):
        raise ValueError(
            f"candidate-set file declares {count} configurations but lists "
            f"{len(element_lists)}")
    part = partition(grid, mode)
    lut = part.unit_of_element
    unit_lists = []
    for elements in element_lists:
        if any(not 0 <= e < grid.n_elements for e in elements):
            raise ValueError("configuration references elements outside the grid")
        units = sorted({int(lut[e]) for e in elements})
        if not units:
            raise ValueError("a configuration must activate at least one unit")
        if set(part.elements[units].ravel().tolist()) != set(elements):
            raise ValueError("configuration elements do not cover whole units")
        if unit_lists and len(units) != len(unit_lists[0]):
            raise ValueError(
                f"candidate-set file mixes configurations of {len(unit_lists[0])} "
                f"and {len(units)} units")
        unit_lists.append(units)
    units = np.array(unit_lists, dtype=np.intp)
    units.flags.writeable = False
    return CandidateSet(
        grid=grid,
        partition=part,
        units=units,
        seed=seed,
        min_unit_spacing=min_spacing,
    )
