"""Cascaded channel draws, near-field coupling, and effective configuration responses.

The receive-side response of a configuration with activation mask ``s`` is

    u = C s                (coupling leaks drive into neighbouring elements)
    h[r] = sum_m u[m] * cascaded[m, r]

where ``C`` is the coupling operator and ``cascaded[m, r]`` is the product of
the transmitter-to-element-m gain and the element-m-to-antenna-r gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from frisim.geometry import ApertureGrid, CandidateSet
from frisim.seeding import row_normals
from frisim.serialize import format_float, read_artifact, write_artifact

RAYLEIGH = "rayleigh"
LOS = "los"
FADING_MODES = (RAYLEIGH, LOS)

KERNEL_SINC = "sinc"
KERNEL_EXPONENTIAL = "exponential"
KERNEL_NONE = "none"
KERNELS = (KERNEL_SINC, KERNEL_EXPONENTIAL, KERNEL_NONE)

_EXP_RANGE = 0.25  # e-folding distance of the exponential kernel, wavelengths


@dataclass(frozen=True)
class ChannelParams:
    """Propagation and calibration parameters.

    Positions are 3D coordinates in wavelengths and are only used in ``los``
    mode; receive antennas form a line along +x starting at ``rx_position``
    with pitch ``rx_spacing``.
    """

    rx_antennas: int = 4
    fading: str = RAYLEIGH
    tx_position: tuple[float, float, float] = (0.0, 0.0, 50.0)
    rx_position: tuple[float, float, float] = (20.0, 0.0, 30.0)
    rx_spacing: float = 0.5
    # draw_channel does not read coupling_strength (coupling_matrix takes rho
    # directly); the field stays because the benchmark's tests pass it.
    coupling_strength: float = 0.6
    seed: int = 0

    def __post_init__(self) -> None:
        if self.rx_antennas < 1:
            raise ValueError(f"rx_antennas must be >= 1, got {self.rx_antennas}")
        if self.fading not in FADING_MODES:
            raise ValueError(f"unknown fading mode {self.fading!r}")
        if not 0.0 <= self.coupling_strength <= 1.0:
            raise ValueError(
                f"coupling_strength must lie in [0, 1], got {self.coupling_strength}")
        if not (self.rx_spacing > 0):
            raise ValueError("rx_spacing must be positive")
        for name in ("tx_position", "rx_position"):
            if len(getattr(self, name)) != 3:
                raise ValueError(f"{name} must have 3 coordinates")


@dataclass(frozen=True, eq=False)
class ChannelRealization:
    """One draw of the cascaded transmitter-surface-receiver gains, shape (N, R)."""

    cascaded: np.ndarray
    seed: int

    @property
    def n_elements(self) -> int:
        return self.cascaded.shape[0]

    @property
    def rx_antennas(self) -> int:
        return self.cascaded.shape[1]


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Linear leakage operator with unit self-coupling on the diagonal."""

    entries: np.ndarray
    kernel: str
    rho: float

    @property
    def n_elements(self) -> int:
        return self.entries.shape[0]


def draw_channel(grid: ApertureGrid, params: ChannelParams) -> ChannelRealization:
    """Draw the (N, R) cascaded gain matrix for one coherence interval."""
    n, r = grid.n_elements, params.rx_antennas
    if params.fading == RAYLEIGH:
        rng = np.random.default_rng(params.seed)
        tx_gain = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) / np.sqrt(2)
        rx_gain = (rng.standard_normal((n, r)) + 1j * rng.standard_normal((n, r))) / np.sqrt(2)
        cascaded = tx_gain[:, None] * rx_gain
    else:
        pos = np.column_stack((grid.positions, np.zeros(n)))
        tx = np.asarray(params.tx_position, dtype=float)
        antennas = (np.asarray(params.rx_position, dtype=float)[None, :]
                    + np.outer(np.arange(r) * params.rx_spacing, np.array([1.0, 0.0, 0.0])))
        d_tx = np.sqrt(((pos - tx) ** 2).sum(axis=1))
        d_rx = np.sqrt(((pos[:, None, :] - antennas[None, :, :]) ** 2).sum(axis=-1))
        # Reduce the path length modulo one wavelength first so that integer
        # totals map to a phase of exactly zero.
        total = np.mod(d_tx[:, None] + d_rx, 1.0)
        cascaded = np.exp(-2j * np.pi * total)
    return ChannelRealization(cascaded=cascaded, seed=int(params.seed))


def coupling_matrix(grid: ApertureGrid, rho: float, kernel: str) -> CouplingMatrix:
    """Build the element-to-element coupling operator for the grid."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"coupling strength must lie in [0, 1], got {rho}")
    if kernel not in KERNELS:
        raise ValueError(f"unknown coupling kernel {kernel!r}")
    n = grid.n_elements
    if kernel == KERNEL_NONE:
        entries = np.eye(n)
    else:
        pos = grid.positions
        diff = pos[:, None, :] - pos[None, :, :]
        dist = np.sqrt((diff ** 2).sum(axis=-1))
        if kernel == KERNEL_SINC:
            x = 2.0 * dist
            entries = rho * np.sinc(x)
            # sin(k*pi) is exactly zero for integer k; pin the float result too.
            exact_zero = (x > 0) & (x == np.round(x))
            entries[exact_zero] = 0.0
        else:
            entries = rho * np.exp(-dist / _EXP_RANGE)
        np.fill_diagonal(entries, 1.0)
    return CouplingMatrix(entries=entries, kernel=kernel, rho=float(rho))


@dataclass(frozen=True)
class MapProvenance:
    channel_seed: int
    rho: float
    kernel: str


@dataclass(frozen=True, eq=False)
class ResponseMap:
    """Per-candidate receive responses; row i belongs to candidate id i."""

    values: np.ndarray  # (M, R) complex
    provenance: MapProvenance

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[1] < 1:
            raise ValueError(
                f"a response map needs shape (M, R) with R >= 1, got {self.values.shape}")

    def __len__(self) -> int:
        return self.values.shape[0]

    @property
    def rx_antennas(self) -> int:
        return self.values.shape[1]


def _add_calibration_noise(values: np.ndarray, estimation_error_var: float,
                           seed: int) -> np.ndarray:
    """``values`` plus complex Gaussian calibration error of the given variance.

    Row i draws from its own stream ``default_rng([seed, i])``, so the noise
    does not depend on how map construction is ordered or distributed.
    """
    if estimation_error_var < 0:
        raise ValueError("estimation_error_var must be >= 0")
    if estimation_error_var == 0:
        return values
    m, r = values.shape
    # One standard_normal(2r) draw per row is the same stream as a real-part
    # draw followed by an imaginary-part draw of r each.
    noise = row_normals(seed, m, 2 * r)
    scale = np.sqrt(estimation_error_var / 2.0)
    return values + scale * (noise[:, :r] + 1j * noise[:, r:])


def build_response_map(candidates: CandidateSet, realization: ChannelRealization,
                       coupling: CouplingMatrix, estimation_error_var: float,
                       seed: int) -> ResponseMap:
    """Compute every candidate's response, optionally with calibration noise
    drawn per candidate id from ``seed``."""
    if realization.n_elements != coupling.n_elements:
        raise ValueError("realization and coupling matrix have different element counts")
    # Stacked matrix-vector products: numpy runs every stack item through the
    # same gemv kernel as one candidate's C @ mask and drive @ cascaded (the
    # effective_response of tests/oracles.py), so each row is bit-identical
    # to it. One (M, N) @ (N, N) gemm would sum in another order and move the
    # entries in the last bits.
    drive = np.matmul(coupling.entries[None], candidates.masks()[:, :, None])
    values = np.matmul(drive[:, None, :, 0], realization.cascaded[None])[:, 0, :]
    provenance = MapProvenance(channel_seed=realization.seed, rho=coupling.rho,
                               kernel=coupling.kernel)
    return ResponseMap(values=_add_calibration_noise(values, estimation_error_var, seed),
                       provenance=provenance)


def build_design_maps(candidates: CandidateSet, realization: ChannelRealization,
                      coupling: CouplingMatrix, estimation_error_var: float,
                      seed: int) -> tuple[ResponseMap, ResponseMap | None]:
    """The map a design sees and the true map detection runs on.

    The true map is the noiseless one, built once; the design map adds the
    calibration noise that build_response_map would draw from ``seed``. The
    true map is None when there is no calibration noise, because the design
    map is then the truth itself.
    """
    truth = build_response_map(candidates, realization, coupling, 0.0, seed)
    if estimation_error_var == 0:
        return truth, None
    noisy = _add_calibration_noise(truth.values, estimation_error_var, seed)
    return ResponseMap(values=noisy, provenance=truth.provenance), truth


def save_response_map(response_map: ResponseMap, path) -> None:
    prov = response_map.provenance
    records = []
    for i, row in enumerate(response_map.values):
        parts = [format_float(x) for z in row for x in (z.real, z.imag)]
        records.append(" ".join([str(i), *parts]))
    write_artifact(path, "response-map", {
        "seed": prov.channel_seed,
        "rho": format_float(prov.rho),
        "kernel": prov.kernel,
        "rx_antennas": response_map.rx_antennas,
        "count": len(response_map),
    }, records)


def load_response_map(path) -> ResponseMap:
    header, records = read_artifact(path, "response-map",
                                    ("seed", "rho", "kernel", "rx_antennas", "count"))
    r = int(header["rx_antennas"])
    count = int(header["count"])
    rows: dict[int, list[float]] = {}
    for record in records:
        tokens = record.split()
        try:
            cid, comps = int(tokens[0]), [float(tok) for tok in tokens[1:]]
        except ValueError:
            raise ValueError(f"bad response-map record {record!r}") from None
        if cid in rows or not 0 <= cid < count:
            raise ValueError(f"bad candidate id {cid} in response-map file")
        if len(comps) != 2 * r:
            raise ValueError(f"candidate {cid} has {len(comps)} components, expected {2 * r}")
        rows[cid] = comps
    if count != len(rows):
        raise ValueError(f"response-map file declares {count} records, found {len(rows)}")
    pairs = np.array([rows[cid] for cid in range(count)]).reshape(count, r, 2)
    return ResponseMap(values=pairs[..., 0] + 1j * pairs[..., 1], provenance=MapProvenance(
        channel_seed=int(header["seed"]), rho=float(header["rho"]), kernel=header["kernel"]))
