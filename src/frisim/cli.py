"""Command line entry points.

Subcommands map onto the workflow stages: ``design`` writes the candidate set,
response map, and codebooks for inspection; ``ber`` and ``sweep`` run the
Monte Carlo studies from a config file; ``repro-a`` and ``repro-b`` regenerate
the two built-in scenario result sets; ``selftest`` runs the packaged oracle
checks.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from frisim._version import __version__
from frisim.config import ConfigError, ExperimentConfig, load_config
from frisim.geometry import InfeasibleConstraintError
from frisim.pipeline import (SCENARIO_A_SEED_COUNT, SCENARIO_A_TRIALS,
                             SCENARIO_B_TRIALS, design_artifacts, emit_table,
                             reproduce_scenario_a, reproduce_scenario_b,
                             run_ber, run_sweep)
from frisim.selftest import run_selftest

_TABLE_FILES = {
    "ber_per_seed": "ber_per_seed.csv",
    "ber_aggregate": "ber_aggregate.csv",
    "codebooks": "codebooks.csv",
    "sweep": "sweep.csv",
    "errors": "errors.csv",
}


def _seed(text: str) -> int:
    """argparse type of a base seed: numpy seeds from non-negative integers only."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def _add_common(parser: argparse.ArgumentParser, with_trials: bool = True) -> None:
    parser.add_argument("--config", type=Path, default=None,
                        help="key=value config file (defaults apply when omitted)")
    parser.add_argument("--seed", type=int, default=None,
                        help="replace run.seeds with this single seed")
    parser.add_argument("--out", type=str, default=None,
                        help="output directory (overrides output.dir)")
    if with_trials:
        parser.add_argument("--trials", type=int, default=None,
                            help="Monte Carlo trials per estimate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frisim",
        description="Spatial-index codebook design and evaluation "
                    "for reconfigurable-surface index modulation.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    design = sub.add_parser("design", help="write candidate set, response map, "
                                           "and codebook artifacts")
    _add_common(design, with_trials=False)

    ber = sub.add_parser("ber", help="run the BER-vs-SNR study")
    _add_common(ber)

    sweep = sub.add_parser("sweep", help="run the granularity throughput sweep")
    _add_common(sweep)

    repro_a = sub.add_parser("repro-a", help="regenerate the scenario A tables")
    repro_a.add_argument("--out", type=str, default="out/scenario_a")
    repro_a.add_argument("--seed", type=_seed, default=1,
                         help="base seed for the channel seed list")
    repro_a.add_argument("--seed-count", type=int, default=SCENARIO_A_SEED_COUNT)
    repro_a.add_argument("--trials", type=int, default=SCENARIO_A_TRIALS)

    repro_b = sub.add_parser("repro-b", help="regenerate the scenario B table")
    repro_b.add_argument("--out", type=str, default="out/scenario_b")
    repro_b.add_argument("--seed", type=_seed, default=7,
                         help="base seed for the estimation seed list")
    repro_b.add_argument("--trials", type=int, default=SCENARIO_B_TRIALS)

    sub.add_parser("selftest", help="run the built-in oracle checks")
    return parser


def _load_with_overrides(args: argparse.Namespace) -> ExperimentConfig:
    config = load_config(args.config) if args.config else ExperimentConfig()
    if args.seed is not None:
        config = replace(config, seeds=(args.seed,))
    if getattr(args, "trials", None) is not None:
        config = replace(config, trials=args.trials)
    if args.out is not None:
        config = replace(config, out_dir=args.out)
    return config


def _write_tables(tables, out_dir: str) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name, table in tables.items():
        emit_table(table, out / _TABLE_FILES[name])
        print(f"wrote {out / _TABLE_FILES[name]} ({len(table.rows)} rows)")


def _cmd_design(args: argparse.Namespace) -> int:
    config = _load_with_overrides(args)
    for path in design_artifacts(config, config.out_dir):
        print(f"wrote {path}")
    return 0


def _cmd_ber(args: argparse.Namespace) -> int:
    config = _load_with_overrides(args)
    _write_tables(run_ber(config), config.out_dir)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_with_overrides(args)
    _write_tables(run_sweep(config), config.out_dir)
    return 0


def _cmd_repro_a(args: argparse.Namespace) -> int:
    tables = reproduce_scenario_a(args.out, seed_count=args.seed_count,
                                  trials=args.trials, base_seed=args.seed)
    print(f"scenario A written to {args.out} "
          f"({len(tables['ber_aggregate'].rows)} aggregate rows)")
    return 0


def _cmd_repro_b(args: argparse.Namespace) -> int:
    tables = reproduce_scenario_b(args.out, base_seed=args.seed,
                                  trials=args.trials)
    print(f"scenario B written to {args.out} "
          f"({len(tables['sweep'].rows)} sweep rows)")
    return 0


_COMMANDS = {
    "design": _cmd_design,
    "ber": _cmd_ber,
    "sweep": _cmd_sweep,
    "repro-a": _cmd_repro_a,
    "repro-b": _cmd_repro_b,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:  # argparse reports its own errors
        return int(exit_.code or 0)
    try:
        if args.command == "selftest":
            return 1 if run_selftest() else 0
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfeasibleConstraintError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
