"""Experiment configuration: flat key=value files with dotted section prefixes.

Unknown keys are rejected, and validation reports every violation at once so a
bad file can be fixed in one pass.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass, fields, replace
from pathlib import Path

from frisim.channel import FADING_MODES, KERNELS, ChannelParams
from frisim.codebook import METHOD_FIXED_RIS, SELECTION_METHODS
from frisim.geometry import (GranularityMode, InfeasibleConstraintError, active_unit_count,
                             build_grid, partition)
from frisim.seeding import TAG_CHANNEL, derive_seed
from frisim.serialize import format_float


class ConfigError(ValueError):
    """Invalid configuration; the message lists every detected violation."""


@dataclass(frozen=True)
class ExperimentConfig:
    grid_rows: int = 8
    grid_cols: int = 8
    grid_spacing: float = 0.5
    modes: tuple[GranularityMode, ...] = (GranularityMode.element(),)
    n_act: int = 16
    m_samples: int = 512
    min_unit_spacing: float | None = None  # None: per-mode default rule
    candidate_seed: int = 1
    fading: str = "rayleigh"
    rx_antennas: int = 4
    rho: float = 0.6
    kernel: str = "sinc"
    estimation_error_var: float = 0.0
    rx_spacing: float = 0.5
    tx_position: tuple[float, float, float] = (0.0, 0.0, 50.0)
    rx_position: tuple[float, float, float] = (20.0, 0.0, 30.0)
    methods: tuple[str, ...] = ("response_maxmin_greedy",)
    k: int = 8
    snr_db: tuple[float, ...] = (0.0, 5.0, 10.0)
    sweep_snr_db: float = 10.0
    trials: int = 10_000
    seeds: tuple[int, ...] = (1, 2, 3)
    alpha_unit: float = 1.0
    beta_codeword: float = 2.0
    coherence_symbols: float = 256.0
    keff_delta_frac: float = 0.1
    out_dir: str = "out"


def _parse_float_or_auto(text: str) -> float | None:
    return None if text == "auto" else float(text)


def _parse_modes(text: str) -> tuple[GranularityMode, ...]:
    return tuple(GranularityMode.parse(tok) for tok in text.split(",") if tok.strip())


def _parse_methods(text: str) -> tuple[str, ...]:
    return tuple(tok.strip() for tok in text.split(",") if tok.strip())


def _parse_float_list(text: str) -> tuple[float, ...]:
    """Comma list, or an inclusive start:stop:step grid."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"expected start:stop:step, got {text!r}")
        start, stop, step = (float(p) for p in parts)
        if not all(map(math.isfinite, (start, stop, step))):
            raise ValueError(f"grid bounds must be finite, got {text!r}")
        if not (step > 0):
            raise ValueError("grid step must be positive")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        if count < 1:
            raise ValueError(f"empty grid {text!r}")
        return tuple(start + i * step for i in range(count))
    return tuple(float(tok) for tok in text.split(",") if tok.strip())


def _parse_int_list(text: str) -> tuple[int, ...]:
    """Comma list, or an inclusive start:stop integer range."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 2:
            raise ValueError(f"expected start:stop, got {text!r}")
        start, stop = int(parts[0]), int(parts[1])
        if stop < start:
            raise ValueError(f"empty range {text!r}")
        return tuple(range(start, stop + 1))
    return tuple(int(tok) for tok in text.split(",") if tok.strip())


def _parse_position(text: str) -> tuple[float, float, float]:
    parts = [float(tok) for tok in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected x,y,z, got {text!r}")
    return (parts[0], parts[1], parts[2])


# file key -> (dataclass field, parser)
_KEYS: dict[str, tuple[str, callable]] = {
    "grid.rows": ("grid_rows", int),
    "grid.cols": ("grid_cols", int),
    "grid.spacing": ("grid_spacing", float),
    "candidates.modes": ("modes", _parse_modes),
    "candidates.n_act": ("n_act", int),
    "candidates.m_samples": ("m_samples", int),
    "candidates.min_unit_spacing": ("min_unit_spacing", _parse_float_or_auto),
    "candidates.seed": ("candidate_seed", int),
    "channel.fading": ("fading", str),
    "channel.rx_antennas": ("rx_antennas", int),
    "channel.rho": ("rho", float),
    "channel.kernel": ("kernel", str),
    "channel.estimation_error_var": ("estimation_error_var", float),
    "channel.rx_spacing": ("rx_spacing", float),
    "channel.tx_position": ("tx_position", _parse_position),
    "channel.rx_position": ("rx_position", _parse_position),
    "codebook.methods": ("methods", _parse_methods),
    "codebook.k": ("k", int),
    "noise.snr_db": ("snr_db", _parse_float_list),
    "noise.sweep_snr_db": ("sweep_snr_db", float),
    "run.trials": ("trials", int),
    "run.seeds": ("seeds", _parse_int_list),
    "overhead.alpha_unit": ("alpha_unit", float),
    "overhead.beta_codeword": ("beta_codeword", float),
    "overhead.coherence_symbols": ("coherence_symbols", float),
    "keff.delta_frac": ("keff_delta_frac", float),
    "output.dir": ("out_dir", str),
}

_FIELD_TO_KEY = {field: key for key, (field, _) in _KEYS.items()}


def parse_config_text(text: str) -> ExperimentConfig:
    """Parse a config file body; collects every problem before raising."""
    problems: list[str] = []
    overrides: dict[str, object] = {}
    seen: set[str] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            problems.append(f"line {lineno}: expected key=value, got {line!r}")
            continue
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _KEYS:
            problems.append(f"line {lineno}: unknown key {key!r}")
            continue
        if key in seen:
            problems.append(f"line {lineno}: duplicate key {key!r}")
            continue
        seen.add(key)
        field, parser = _KEYS[key]
        try:
            overrides[field] = parser(value)
        except ValueError as exc:
            problems.append(f"line {lineno}: bad value for {key}: {exc}")
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))
    return replace(ExperimentConfig(), **overrides)


def load_config(path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8 text: {exc}") from None
    return parse_config_text(text)


def validate(config: ExperimentConfig, *, for_ber: bool = False) -> list[str]:
    """Return every constraint violation; empty means the config is runnable.

    ``for_ber`` additionally requires each mode's candidate space, and
    ``m_samples`` unless fixed_ris is the only method, to hold at least ``k``
    configurations, since BER runs do not cap the codebook size. It relaxes
    ``run.trials`` to >= 0, since a zero-trial BER run still designs
    codebooks. The sweep needs at least one trial.
    """
    problems: list[str] = []
    c = config
    for field in fields(c):
        value = getattr(c, field.name)
        if any(isinstance(v, float) and not math.isfinite(v)
               for v in (value if isinstance(value, tuple) else (value,))):
            problems.append(f"{_FIELD_TO_KEY[field.name]} must be finite, got "
                            f"{_canonical_value(value)}")
    if c.grid_rows < 1 or c.grid_cols < 1:
        problems.append(f"grid must be at least 1x1, got {c.grid_rows}x{c.grid_cols}")
    if not (c.grid_spacing > 0):
        problems.append(f"grid.spacing must be positive, got {c.grid_spacing}")
    if not c.modes:
        problems.append("candidates.modes must list at least one mode")
    for label in _repeated(mode.label for mode in c.modes):
        problems.append(f"candidates.modes lists {label} more than once")
    if c.n_act < 1:
        problems.append(f"candidates.n_act must be >= 1, got {c.n_act}")
    if c.m_samples < 1:
        problems.append(f"candidates.m_samples must be >= 1, got {c.m_samples}")
    if c.min_unit_spacing is not None and c.min_unit_spacing < 0:
        problems.append("candidates.min_unit_spacing must be >= 0 or auto")
    if c.fading not in FADING_MODES:
        problems.append(f"channel.fading must be one of {FADING_MODES}, got {c.fading!r}")
    if c.kernel not in KERNELS:
        problems.append(f"channel.kernel must be one of {KERNELS}, got {c.kernel!r}")
    if c.rx_antennas < 1:
        problems.append(f"channel.rx_antennas must be >= 1, got {c.rx_antennas}")
    if not 0.0 <= c.rho <= 1.0:
        problems.append(f"channel.rho must lie in [0, 1], got {c.rho}")
    if c.estimation_error_var < 0:
        problems.append("channel.estimation_error_var must be >= 0")
    if not (c.rx_spacing > 0):
        problems.append("channel.rx_spacing must be positive")
    if not c.methods:
        problems.append("codebook.methods must list at least one method")
    for method in c.methods:
        if method not in SELECTION_METHODS:
            problems.append(f"unknown codebook method {method!r}")
    for method in _repeated(c.methods):
        problems.append(f"codebook.methods lists {method} more than once")
    if c.k < 2:
        problems.append(f"codebook.k must be >= 2, got {c.k}")
    if for_ber and c.m_samples < c.k and set(c.methods) - {METHOD_FIXED_RIS}:
        problems.append(f"candidates.m_samples must be >= codebook.k={c.k}, "
                        f"got {c.m_samples}")
    if not c.snr_db:
        problems.append("noise.snr_db must list at least one point")
    for snr in _repeated(c.snr_db):
        problems.append(f"noise.snr_db lists {snr} more than once")
    # The noise level 10**(-snr/10) leaves the float range past about 3 000 dB
    # either way; no physical SNR comes near 300 dB.
    for key, points in (("noise.snr_db", c.snr_db), ("noise.sweep_snr_db", (c.sweep_snr_db,))):
        if any(300 < abs(snr) < math.inf for snr in points):
            problems.append(f"{key} must lie in [-300, 300] dB, got {_canonical_value(points)}")
    min_trials = 0 if for_ber else 1
    if c.trials < min_trials:
        problems.append(f"run.trials must be >= {min_trials}, got {c.trials}")
    if not c.seeds:
        problems.append("run.seeds must list at least one seed")
    for seed in _repeated(c.seeds):
        problems.append(f"run.seeds lists {seed} more than once")
    if any(seed < 0 for seed in c.seeds):
        problems.append(f"run.seeds must be >= 0, got {_canonical_value(c.seeds)}")
    if c.candidate_seed < 0:
        problems.append(f"candidates.seed must be >= 0, got {c.candidate_seed}")
    if c.alpha_unit < 0 or c.beta_codeword < 0:
        problems.append("overhead coefficients must be >= 0")
    if not (c.coherence_symbols > 0):
        problems.append("overhead.coherence_symbols must be positive")
    if c.keff_delta_frac < 0:
        problems.append("keff.delta_frac must be >= 0")

    # The modes of a grid listed above as malformed are not checked.
    grid_ok = (c.grid_rows >= 1 and c.grid_cols >= 1 and c.grid_spacing > 0)
    grid = build_grid(c.grid_rows, c.grid_cols, c.grid_spacing) if grid_ok else None
    for mode in c.modes if grid_ok else ():
        try:
            part = partition(grid, mode)
            n_units = active_unit_count(part, c.n_act)
        except InfeasibleConstraintError as exc:
            problems.append(str(exc))
            continue
        if for_ber and math.comb(part.unit_count, n_units) < c.k:
            problems.append(
                f"mode {mode.label} admits at most "
                f"{math.comb(part.unit_count, n_units)} configurations, fewer than k={c.k}")

    if METHOD_FIXED_RIS in c.methods:
        if c.grid_rows % 2 or c.grid_cols % 2:
            problems.append("fixed_ris needs an even grid to form quadrants")
        elif c.n_act != (c.grid_rows * c.grid_cols) // 4:
            problems.append(
                f"fixed_ris activates one quadrant of {(c.grid_rows * c.grid_cols) // 4} "
                f"elements, which must equal n_act={c.n_act}")
    return problems


def _repeated(items) -> list:
    """Items that occur more than once, each named once, in first-seen order."""
    return [item for item, count in Counter(items).items() if count > 1]


def require_valid(config: ExperimentConfig, *, for_ber: bool = False) -> None:
    problems = validate(config, for_ber=for_ber)
    if problems:
        raise ConfigError("invalid configuration:\n  " + "\n  ".join(problems))


def channel_params(config: ExperimentConfig, seed: int) -> ChannelParams:
    """The config's channel model for run seed ``seed``; the channel draws
    from the stream that seed derives under TAG_CHANNEL."""
    return ChannelParams(
        rx_antennas=config.rx_antennas,
        fading=config.fading,
        tx_position=config.tx_position,
        rx_position=config.rx_position,
        rx_spacing=config.rx_spacing,
        seed=derive_seed(seed, TAG_CHANNEL),
    )


def canonical_items(config: ExperimentConfig) -> list[tuple[str, str]]:
    """Normalized (key, value) pairs, sorted by key.

    The output directory is excluded: it locates artifacts but does not
    identify the experiment, and runs into different directories must still
    hash (and hence byte-compare) identically.
    """
    items: list[tuple[str, str]] = []
    for field in fields(config):
        if field.name == "out_dir":
            continue
        key = _FIELD_TO_KEY[field.name]
        value = getattr(config, field.name)
        items.append((key, _canonical_value(value)))
    return sorted(items)


def _canonical_value(value) -> str:
    if value is None:
        return "auto"
    if isinstance(value, GranularityMode):
        return value.label
    if isinstance(value, tuple):
        return ",".join(_canonical_value(v) for v in value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format_float(value)
    return str(value)


def config_hash(config: ExperimentConfig) -> str:
    """Hash of the canonical key=value form; stable under file key reordering."""
    body = "\n".join(f"{k}={v}" for k, v in canonical_items(config))
    return hashlib.sha256(body.encode()).hexdigest()[:16]
