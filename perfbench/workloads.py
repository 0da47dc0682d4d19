"""The benchmark workloads and the studies their calls run.

A study is one kind of frisim call. It draws its inputs from a fixed pool, so
that the outputs of every call can be checked against a reference pinned in
``reference/<study>.json``. A study defines:

* ``build_input(entry, work)`` - the input of one pool entry: the base seeds
  of a scenario call, or a config file written under ``work``. This is the
  set-up that ``setup_s`` times, together with ``import frisim``. The scenario
  entry points build their config objects inside each call, so for the
  scenario studies this set-up is trivial.
* ``run(inp, out)`` - one call through frisim's public entry points, writing
  its CSV artifacts under ``out``; ``gate.py`` checks them.

A workload call runs the studies ``gate.WORKLOADS`` names, one after another,
all on the same pool entry. The workload seed only chooses the order in which
the pool is visited; frisim sees nothing but the generated configs.
"""

from __future__ import annotations

import contextlib
import io
import random
from pathlib import Path

from frisim.cli import main as cli_main
from frisim.pipeline import (SCENARIO_A_TRIALS, SCENARIO_B_ESTIMATION_SEEDS,
                             SCENARIO_B_TRIALS, reproduce_scenario_a,
                             reproduce_scenario_b)

import gate

# Number of distinct inputs per study; each has a pinned reference.
POOL_SIZE = 32


class BerStudy:
    """Scenario A at full depth over a reduced channel-seed count."""

    name = "ber_study"
    seeds_per_call = 8
    cell_trials = SCENARIO_A_TRIALS  # Monte Carlo trials per (seed, method, SNR)

    def base_seed(self, entry: int) -> int:
        return 1 + self.seeds_per_call * entry

    def build_input(self, entry: int, work: Path) -> int:
        return self.base_seed(entry)

    def run(self, base_seed: int, out: Path) -> None:
        reproduce_scenario_a(out, seed_count=self.seeds_per_call,
                             trials=self.cell_trials, base_seed=base_seed)


class CodebookScreen:
    """The ``frisim ber --config`` user path, screening codebooks over channels."""

    name = "codebook_screen"
    seeds_per_call = 4
    cell_trials = 200

    def config_text(self, entry: int) -> str:
        seeds = ",".join(str(1 + self.seeds_per_call * entry + i)
                         for i in range(self.seeds_per_call))
        return "\n".join((
            "candidates.modes = element, group:2x2",
            "candidates.m_samples = 1024",
            f"candidates.seed = {1000 + entry}",
            "channel.estimation_error_var = 0.05",
            "codebook.methods = random, layout_maxmin, response_maxmin_greedy",
            "noise.snr_db = 10",
            f"run.trials = {self.cell_trials}",
            f"run.seeds = {seeds}",
        )) + "\n"

    def build_input(self, entry: int, work: Path) -> Path:
        path = work / "inputs" / f"screen-{entry:03d}.cfg"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.config_text(entry))
        return path

    def run(self, config_path: Path, out: Path) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["ber", "--config", str(config_path), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"frisim ber exited with {code} on {config_path}")


class GranularitySweep:
    """Scenario B over consecutive base seeds, one sweep per base seed."""

    name = "granularity_sweep"
    seeds_per_call = 10
    # p_e of a mode entry averages SCENARIO_B_ESTIMATION_SEEDS equal-size runs.
    cell_trials = SCENARIO_B_TRIALS * SCENARIO_B_ESTIMATION_SEEDS

    def base_seeds(self, entry: int) -> range:
        start = 1 + self.seeds_per_call * entry
        return range(start, start + self.seeds_per_call)

    def build_input(self, entry: int, work: Path) -> range:
        return self.base_seeds(entry)

    def run(self, base_seeds: range, out: Path) -> None:
        for base in base_seeds:
            reproduce_scenario_b(out / f"b{base}", base_seed=base,
                                 trials=SCENARIO_B_TRIALS)


STUDIES = {s.name: s for s in (BerStudy(), CodebookScreen(), GranularitySweep())}


class Workload:
    """Runs its studies one after another on one pool entry, each in its own
    subdirectory of the call's output."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.studies = [STUDIES[study] for study in gate.WORKLOADS[name]]

    def build_input(self, entry: int, work: Path) -> list:
        return [study.build_input(entry, work) for study in self.studies]

    def run(self, inputs: list, out: Path) -> None:
        for study, inp in zip(self.studies, inputs):
            study.run(inp, out / study.name)


WORKLOADS = {name: Workload(name) for name in gate.WORKLOADS}


def plan(workload: str, seed: int) -> list[int]:
    """Pool entries in the order a run with this workload seed visits them."""
    order = list(range(POOL_SIZE))
    random.Random(f"{workload}/{seed}").shuffle(order)
    return order
