"""Experiment orchestration: validated runs, CSV result tables, built-in scenarios.

Every random consumer draws from its own derived stream, so reruns of the same
configuration are byte-identical, including aggregated CSV artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from frisim._version import __version__
from frisim.channel import (ChannelRealization, CouplingMatrix, ResponseMap,
                            build_design_maps, coupling_matrix, draw_channel,
                            save_response_map)
from frisim.codebook import (METHOD_EXACT, METHOD_FIXED_RIS, METHOD_GREEDY,
                             METHOD_LAYOUT, METHOD_RANDOM, Codebook, DistanceMatrix,
                             layout_distances, pairwise_distances, save_codebook,
                             select_codebook)
from frisim.config import (ConfigError, ExperimentConfig, channel_params, config_hash,
                           require_valid)
# simulate_ber is not called here; the binding stays because the benchmark's
# tracer (perfbench/tracing.py) and its tests look it up on this module.
from frisim.detection import (BerEstimate, noise_for_snr_db, simulate_ber,  # noqa: F401
                              simulate_ber_curve)
from frisim.geometry import (ApertureGrid, CandidateSet, GranularityMode,
                             InfeasibleConstraintError, build_grid, enumerate_candidates,
                             partition, save_candidate_set)
# TAG_CHANNEL is not used here (config.channel_params derives the channel
# seed); the benchmark's tests import it from this module.
from frisim.seeding import (TAG_BER, TAG_CANDIDATES, TAG_CHANNEL, TAG_MAP,  # noqa: F401
                            TAG_SELECT, TAG_SWEEP_SEEDS, derive_seed)
from frisim.serialize import format_float
from frisim.throughput import evaluate_mode

_METHOD_SEED_IDS = {
    METHOD_FIXED_RIS: 1,
    METHOD_RANDOM: 2,
    METHOD_LAYOUT: 3,
    METHOD_GREEDY: 4,
    METHOD_EXACT: 5,
}
_FIXED_MODE_INDEX = 255  # pseudo-mode slot for the fixed-quadrant baseline

SCHEMA_BER_PER_SEED = "ber_per_seed_v1"
SCHEMA_BER_AGGREGATE = "ber_aggregate_v1"
SCHEMA_CODEBOOKS = "codebooks_v1"
SCHEMA_SWEEP = "granularity_sweep_v1"
SCHEMA_ERRORS = "error_manifest_v1"

BER_PER_SEED_COLUMNS = ("seed", "method", "K", "n_act", "mode", "snr_db", "trials",
                        "errors", "p_hat", "ci95")
BER_AGGREGATE_COLUMNS = ("method", "K", "n_act", "mode", "snr_db", "trials",
                         "errors", "p_hat", "ci95")
CODEBOOK_COLUMNS = ("seed", "method", "K", "mode", "d_min")
SWEEP_COLUMNS = ("mode", "unit_count", "K", "K_eff", "raw_bits",
                 "overhead_fraction", "p_e", "net_bits")
ERROR_COLUMNS = ("stage", "mode", "method", "seed", "message")


@dataclass(frozen=True)
class ResultTable:
    """Schema-tagged rows plus run metadata, emitted as commented CSV."""

    schema: str
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError(
                    f"row arity {len(row)} does not match {len(self.columns)} columns")


def _format_cell(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean cells are not part of any schema")
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(float(value))
    text = str(value)
    if "," in text or "\n" in text or "#" in text:
        raise ValueError(f"cell value {text!r} would corrupt the CSV")
    return text


def emit_table(table: ResultTable, path) -> None:
    """Write the table as CSV with ``#`` metadata lines; 17 significant digits."""
    lines = [f"# schema={table.schema}"]
    for key, value in table.metadata:
        lines.append(f"# {key}={value}")
    lines.append(",".join(table.columns))
    for row in table.rows:
        lines.append(",".join(_format_cell(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _parse_cell(text: str):
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_table(path) -> ResultTable:
    """Parse a table written by emit_table; numeric cells round-trip exactly."""
    schema = ""
    metadata: list[tuple[str, str]] = []
    columns: tuple[str, ...] | None = None
    rows: list[tuple] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            if key == "schema":
                schema = value
            else:
                metadata.append((key, value))
            continue
        if columns is None:
            columns = tuple(line.split(","))
            continue
        rows.append(tuple(_parse_cell(tok) for tok in line.split(",")))
    if columns is None:
        raise ValueError(f"{path} contains no column header")
    return ResultTable(schema=schema, columns=columns, rows=tuple(rows),
                       metadata=tuple(metadata))


def _error_table(rows: list[tuple], metadata) -> ResultTable:
    """Error manifest; each free-text message (last column) is flattened to one
    line without commas or ``#``, so no message can corrupt the CSV."""
    clean = tuple(
        row[:-1] + (" ".join(str(row[-1]).replace(",", ";").replace("#", " ").split()),)
        for row in rows)
    return ResultTable(SCHEMA_ERRORS, ERROR_COLUMNS, clean, metadata)


def _base_metadata(config: ExperimentConfig,
                   extra: tuple[tuple[str, str], ...] = ()) -> tuple[tuple[str, str], ...]:
    return extra + (
        ("config_hash", config_hash(config)),
        ("seeds", ",".join(str(s) for s in config.seeds)),
        ("trials", str(config.trials)),
        ("tool_version", __version__),
    )


@dataclass(frozen=True)
class _ModeContext:
    index: int  # seed-path slot of the mode
    label: str
    candidates: CandidateSet
    layout: DistanceMatrix | None
    methods: tuple[str, ...]


def _mode_context(config: ExperimentConfig, grid: ApertureGrid, mode_idx: int,
                  methods: tuple[str, ...]) -> _ModeContext:
    """Candidates of ``config.modes[mode_idx]``, plus their layout distances
    when ``methods`` holds layout_maxmin. A mode whose candidates cannot be
    enumerated raises InfeasibleConstraintError."""
    mode = config.modes[mode_idx]
    candidates = enumerate_candidates(
        partition(grid, mode), config.n_act, config.m_samples, config.min_unit_spacing,
        seed=derive_seed(config.candidate_seed, TAG_CANDIDATES, mode_idx))
    layout = layout_distances(candidates) if METHOD_LAYOUT in methods else None
    return _ModeContext(mode_idx, mode.label, candidates, layout, methods)


def _design(config: ExperimentConfig, ctx: _ModeContext, realization: ChannelRealization,
            coupling: CouplingMatrix, seed: int
            ) -> tuple[ResponseMap, ResponseMap | None, DistanceMatrix]:
    """Design map, true map (None when uncalibrated) and response distances
    of ``ctx``'s candidates under run seed ``seed``."""
    design_map, truth = build_design_maps(
        ctx.candidates, realization, coupling, config.estimation_error_var,
        seed=derive_seed(seed, TAG_MAP, ctx.index))
    return design_map, truth, pairwise_distances(design_map)


def _select(config: ExperimentConfig, ctx: _ModeContext, method: str,
            distances: DistanceMatrix, seed: int) -> Codebook:
    """``method``'s codebook over ``ctx``'s candidates under run seed ``seed``."""
    return select_codebook(method, distances, ctx.layout, config.k,
                           seed=derive_seed(seed, TAG_SELECT, ctx.index))


def run_ber(config: ExperimentConfig) -> dict[str, ResultTable]:
    """BER-vs-SNR sweep over (mode, method, seed); returns the result tables.

    Returns keys ``ber_per_seed``, ``ber_aggregate``, ``codebooks`` and, when
    any stage failed, ``errors``. Completed combinations are always reported.
    The fixed_ris baseline runs as one more mode, the grid's quadrant blocks.
    """
    require_valid(config, for_ber=True)
    grid = build_grid(config.grid_rows, config.grid_cols, config.grid_spacing)
    coupling = coupling_matrix(grid, config.rho, config.kernel)
    mode_methods = tuple(m for m in config.methods if m != METHOD_FIXED_RIS)

    error_rows: list[tuple] = []
    contexts: list[_ModeContext] = []
    for mode_idx, mode in enumerate(config.modes):
        try:
            ctx = _mode_context(config, grid, mode_idx, mode_methods)
        except InfeasibleConstraintError as exc:
            error_rows.append(("candidates", mode.label, "", -1, str(exc)))
            continue
        if mode_methods:
            contexts.append(ctx)
    if METHOD_FIXED_RIS in config.methods:
        quad_mode = GranularityMode.block(grid.rows // 2, grid.cols // 2)
        quadrants = enumerate_candidates(partition(grid, quad_mode), config.n_act, 4,
                                         0.0, seed=0)
        contexts.append(_ModeContext(_FIXED_MODE_INDEX, quad_mode.label, quadrants,
                                     None, (METHOD_FIXED_RIS,)))

    per_seed_rows: list[tuple] = []
    codebook_rows: list[tuple] = []
    # (method, mode_label, snr_index) -> [K, trials, errors]
    totals: dict[tuple, list] = {}
    for seed in config.seeds:
        realization = draw_channel(grid, channel_params(config, seed))
        for ctx in contexts:
            design_map, truth, distances = _design(config, ctx, realization, coupling,
                                                   seed)
            for method in ctx.methods:
                try:
                    codebook = _select(config, ctx, method, distances, seed)
                except InfeasibleConstraintError as exc:
                    error_rows.append(("codebook", ctx.label, method, seed, str(exc)))
                    continue
                k = len(codebook.members)
                codebook_rows.append((seed, method, k, ctx.label, codebook.d_min))
                if config.trials < 1:
                    continue
                # One noise draw per cell, scaled across the SNR grid.
                noise_levels = [noise_for_snr_db(codebook, design_map, snr)
                                for snr in config.snr_db]
                curve = simulate_ber_curve(
                    codebook, design_map, noise_levels, config.trials,
                    seed=derive_seed(seed, TAG_BER, ctx.index, _METHOD_SEED_IDS[method]),
                    truth=truth)
                for snr_idx, (snr, est) in enumerate(zip(config.snr_db, curve)):
                    per_seed_rows.append((seed, method, k, config.n_act, ctx.label, snr,
                                          est.trials, est.errors, est.p_hat,
                                          est.ci95_half_width))
                    cell = totals.setdefault((method, ctx.label, snr_idx), [k, 0, 0])
                    cell[1] += est.trials
                    cell[2] += est.errors
            # Free this context's M x M distances before the next context
            # computes its own, so that two never coexist at the peak.
            del distances

    aggregate_rows: list[tuple] = []
    for method in config.methods:
        for ctx in contexts:
            if method not in ctx.methods:
                continue
            for snr_idx, snr in enumerate(config.snr_db):
                cell = totals.get((method, ctx.label, snr_idx))
                if cell is None:
                    continue
                k, trials, errors = cell
                est = BerEstimate.from_counts(trials, errors)
                aggregate_rows.append((method, k, config.n_act, ctx.label, snr,
                                       est.trials, est.errors, est.p_hat,
                                       est.ci95_half_width))

    meta = _base_metadata(config)
    tables = {
        "ber_per_seed": ResultTable(SCHEMA_BER_PER_SEED, BER_PER_SEED_COLUMNS,
                                    tuple(per_seed_rows), meta),
        "ber_aggregate": ResultTable(SCHEMA_BER_AGGREGATE, BER_AGGREGATE_COLUMNS,
                                     tuple(aggregate_rows), meta),
        "codebooks": ResultTable(SCHEMA_CODEBOOKS, CODEBOOK_COLUMNS,
                                 tuple(codebook_rows), meta),
    }
    if error_rows:
        tables["errors"] = _error_table(error_rows, meta)
    return tables


def run_sweep(config: ExperimentConfig) -> dict[str, ResultTable]:
    """Granularity sweep at the reference SNR; returns ``sweep`` (+ ``errors``).

    An infeasible mode (InfeasibleConstraintError) becomes an error row and
    the sweep goes on; any other error propagates. Rows keep the mode order.
    """
    require_valid(config, for_ber=False)
    sweep_rows: list[tuple] = []
    error_rows: list[tuple] = []
    for mode_idx, mode in enumerate(config.modes):
        try:
            rep = evaluate_mode(config, mode_idx)
        except InfeasibleConstraintError as exc:
            error_rows.append(("sweep", mode.label, METHOD_GREEDY, -1, str(exc)))
            continue
        sweep_rows.append((mode.label, rep.unit_count, rep.k, rep.k_eff, rep.raw_bits,
                           rep.overhead_fraction, rep.p_e, rep.net_bits))
    meta = _base_metadata(config)
    tables = {"sweep": ResultTable(SCHEMA_SWEEP, SWEEP_COLUMNS,
                                   tuple(sweep_rows), meta)}
    if error_rows:
        tables["errors"] = _error_table(error_rows, meta)
    return tables


def design_artifacts(config: ExperimentConfig, out_dir) -> list[Path]:
    """Produce the design-stage artifacts: candidates, response map, codebooks.

    They are run_ber's design of its first mode under its first seed.
    """
    require_valid(config, for_ber=True)
    if METHOD_FIXED_RIS in config.methods:
        raise ConfigError("fixed_ris is a baseline without a designable codebook; "
                          "remove it from codebook.methods for the design command")
    grid = build_grid(config.grid_rows, config.grid_cols, config.grid_spacing)
    coupling = coupling_matrix(grid, config.rho, config.kernel)
    ctx = _mode_context(config, grid, 0, config.methods)
    seed = config.seeds[0]
    realization = draw_channel(grid, channel_params(config, seed))
    design_map, _truth, distances = _design(config, ctx, realization, coupling, seed)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / "candidates.txt", out / "response_map.txt"]
    save_candidate_set(ctx.candidates, paths[0])
    save_response_map(design_map, paths[1])
    for method in config.methods:
        path = out / f"codebook_{method}.txt"
        save_codebook(_select(config, ctx, method, distances, seed), path)
        paths.append(path)
    return paths


# Built-in scenarios. Scenario A sweeps BER vs SNR for four selection methods
# on an element-mode candidate pool; scenario B compares granularities at a
# fixed reference SNR.

SCENARIO_A_SNR = tuple(-5.0 + 2.5 * i for i in range(11))
SCENARIO_A_SEED_COUNT = 200
SCENARIO_A_TRIALS = 10_000
SCENARIO_B_TRIALS = 5_000
SCENARIO_B_ESTIMATION_SEEDS = 4


def scenario_a_config(*, seed_count: int = SCENARIO_A_SEED_COUNT,
                      trials: int = SCENARIO_A_TRIALS,
                      base_seed: int = 1) -> ExperimentConfig:
    return ExperimentConfig(
        grid_rows=8, grid_cols=8, grid_spacing=0.5,
        modes=(GranularityMode.element(),),
        n_act=16, m_samples=512, min_unit_spacing=0.0,
        candidate_seed=derive_seed(base_seed, TAG_CANDIDATES),
        fading="rayleigh", rx_antennas=4, rho=0.6, kernel="sinc",
        estimation_error_var=0.0,
        methods=(METHOD_FIXED_RIS, METHOD_RANDOM, METHOD_LAYOUT, METHOD_GREEDY),
        k=8, snr_db=SCENARIO_A_SNR, trials=trials,
        seeds=tuple(base_seed + i for i in range(seed_count)),
    )


def reproduce_scenario_a(out_dir, *, seed_count: int = SCENARIO_A_SEED_COUNT,
                         trials: int = SCENARIO_A_TRIALS,
                         base_seed: int = 1) -> dict[str, ResultTable]:
    """Run scenario A and write its CSV artifacts; returns the tables."""
    tables = run_ber(scenario_a_config(seed_count=seed_count, trials=trials,
                                       base_seed=base_seed))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_table(tables["ber_aggregate"], out / "scenario_a_ber.csv")
    emit_table(tables["ber_per_seed"], out / "scenario_a_ber_per_seed.csv")
    emit_table(tables["codebooks"], out / "scenario_a_codebooks.csv")
    if "errors" in tables:
        emit_table(tables["errors"], out / "scenario_a_errors.csv")
    return tables


def scenario_b_config(*, base_seed: int = 7,
                      trials: int = SCENARIO_B_TRIALS) -> ExperimentConfig:
    return ExperimentConfig(
        grid_rows=8, grid_cols=8, grid_spacing=0.5,
        modes=(GranularityMode.element(), GranularityMode.group(2, 2),
               GranularityMode.block(4, 4)),
        n_act=16, m_samples=512, min_unit_spacing=None,
        candidate_seed=derive_seed(base_seed, TAG_CANDIDATES),
        fading="rayleigh", rx_antennas=4, rho=0.6, kernel="sinc",
        estimation_error_var=0.0,
        methods=(METHOD_GREEDY,), k=8,
        snr_db=(10.0,), sweep_snr_db=10.0, trials=trials,
        seeds=tuple(derive_seed(base_seed, TAG_SWEEP_SEEDS, i)
                    for i in range(SCENARIO_B_ESTIMATION_SEEDS)),
        alpha_unit=1.0, beta_codeword=2.0, coherence_symbols=256.0,
        keff_delta_frac=0.1,
    )


def reproduce_scenario_b(out_dir, *, base_seed: int = 7,
                         trials: int = SCENARIO_B_TRIALS) -> dict[str, ResultTable]:
    """Run scenario B and write its CSV artifact; returns the tables."""
    tables = run_sweep(scenario_b_config(base_seed=base_seed, trials=trials))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    emit_table(tables["sweep"], out / "scenario_b_sweep.csv")
    if "errors" in tables:
        emit_table(tables["errors"], out / "scenario_b_errors.csv")
    return tables
