"""Pinned reference outputs: the sha256 of every CSV that reduced scenario A
(3 seeds x 500 trials) and scenario B (500 trials, and its default 5 000)
write.

Rerun equality cannot see drift that every run shares; these hashes do. A
change that moves an output on purpose re-pins its hash here and says why in
CHANGES.md. The bytes come from numpy's float64 kernels, so a different numpy
or BLAS build may need a re-pin too. At 500 trials every scenario B mode
reads p_e = 0, so only the default depth pins the sweep's detection streams.

Scenario B is noiseless and every mode is feasible, so a small calibrated
sweep pins the rest of the sweep: the calibration-noise stream of its design
map and the error rows of two infeasible modes. On the 2x6 grid at pitch 0.2,
group:1x2 needs 4 of 6 units 0.5 apart, which no subset meets, and group:2x2
has a single 2-of-3 unit pair (the outer two) that does. Both are enumerated
exhaustively, so the pin takes milliseconds.

Two more small configs pin what the scenarios leave out: the five files of
``frisim design`` on a calibrated group:2x2 pool, and the three ``run_ber``
tables of a calibrated 4x4 study with every selector over three modes, which
covers the truth-map detection path and the exhaustive selector. Its
``m_samples`` stays small because the exhaustive selector grows as C(M, k).
"""

import hashlib

from frisim.config import ExperimentConfig
from frisim.geometry import GranularityMode
from frisim.pipeline import (design_artifacts, emit_table, reproduce_scenario_a,
                             reproduce_scenario_b, run_ber, run_sweep)

PINNED = {
    "scenario_a_ber.csv":
        "c29a1edbd63f0607ee43a87e0fbddbd55843c112727b216528a427d7ff39780f",
    "scenario_a_ber_per_seed.csv":
        "1d9e109ce6220a776a06c167da74c059f97223b846988c6b7cce08b258be3959",
    "scenario_a_codebooks.csv":
        "70b9d858f4ddd64df57d4fed561e74c22ca46a9bc20d6ccef8773a5cb83ba2e4",
    "scenario_b_sweep.csv":
        "e0ef5b6e3e302217161577f98a137b81c4dcdf05500241411cd57eb527c097ef",
    "default_depth/scenario_b_sweep.csv":
        "139f09c2e2f18096988b2847b8fff999383133169bf1b5977e471da21fd078c8",
}


def test_scenario_csvs_match_the_pinned_hashes(tmp_path):
    reproduce_scenario_a(tmp_path, seed_count=3, trials=500)
    reproduce_scenario_b(tmp_path, trials=500)
    reproduce_scenario_b(tmp_path / "default_depth")
    actual = {path.relative_to(tmp_path).as_posix():
              hashlib.sha256(path.read_bytes()).hexdigest()
              for path in tmp_path.rglob("*.csv")}
    moved = sorted(name for name in PINNED.keys() | actual.keys()
                   if actual.get(name) != PINNED.get(name))
    assert not moved, f"outputs moved from the pinned reference: {', '.join(moved)}"


CALIBRATED_SWEEP = ExperimentConfig(
    grid_rows=2, grid_cols=6, grid_spacing=0.2,
    modes=(GranularityMode.element(), GranularityMode.group(1, 2),
           GranularityMode.group(2, 2)),
    n_act=8, m_samples=64, min_unit_spacing=None, estimation_error_var=0.05,
    sweep_snr_db=5.0, trials=500, seeds=(3, 4))

PINNED_CALIBRATED_SWEEP = {
    "sweep.csv": "75cd50293357b146e48c644f7d85e12d4c546518cd8525ff05be5c024c9cbbec",
    "errors.csv": "9ab32e4d40f48941c54bf239510abfb2f5a198eb50b67428b6d444be5deeee7c",
}


def test_calibrated_sweep_with_infeasible_modes_matches_the_pinned_hashes(tmp_path):
    for name, table in run_sweep(CALIBRATED_SWEEP).items():
        emit_table(table, tmp_path / f"{name}.csv")
    actual = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in tmp_path.glob("*.csv")}
    assert actual == PINNED_CALIBRATED_SWEEP


CALIBRATED_DESIGN = ExperimentConfig(
    modes=(GranularityMode.group(2, 2),), estimation_error_var=0.05,
    methods=("random", "layout_maxmin", "response_maxmin_greedy"), seeds=(9, 10))

PINNED_CALIBRATED_DESIGN = {
    "candidates.txt": "543a49248f91208052de5c34b8888613aad4a672b6c58af09a16351b8f77d41c",
    "response_map.txt": "ae45992402d5c2748289a1e8ed9c33ddb5d628a02800189ecd48a2b9bb372f5a",
    "codebook_random.txt":
        "ec9bcd6d47bc99f9ed3b43daa22397d07810d099a84a8677828fe1df75005f99",
    "codebook_layout_maxmin.txt":
        "b4f1326798278a89a1ad45c27c8ca3a187f3431aacfbd00fddc036c602cdea98",
    "codebook_response_maxmin_greedy.txt":
        "75729f7c9a764934e8b7f53dc65954706d894092bc769b9fa583713437193d4c",
}


def test_calibrated_design_artifacts_match_the_pinned_hashes(tmp_path):
    paths = design_artifacts(CALIBRATED_DESIGN, tmp_path)
    actual = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}
    assert actual == PINNED_CALIBRATED_DESIGN


CALIBRATED_BER = ExperimentConfig(
    grid_rows=4, grid_cols=4,
    modes=(GranularityMode.element(), GranularityMode.group(2, 2),
           GranularityMode.block(2, 2)),
    n_act=4, m_samples=12, estimation_error_var=0.02,
    methods=("fixed_ris", "random", "layout_maxmin", "response_maxmin_greedy",
             "response_maxmin_exact"),
    k=4, snr_db=(0.0, 5.0, 10.0), trials=300, seeds=(5, 6))

PINNED_CALIBRATED_BER = {
    "ber_per_seed.csv": "d0099f1cce4330c82a2acb8bf1a5881d08a3bb0cd151b641f7c81d033d1b8c7e",
    "ber_aggregate.csv": "4acebada84cbe65475b502cd3cad6a63de2ea97bfb28bea62190cbcaf2409f58",
    "codebooks.csv": "472f360b13cf65c13589c457e08db6685c70fee628156137f63ac864bd94ab1b",
}


def test_calibrated_ber_with_every_selector_matches_the_pinned_hashes(tmp_path):
    for name, table in run_ber(CALIBRATED_BER).items():
        emit_table(table, tmp_path / f"{name}.csv")
    actual = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in tmp_path.glob("*.csv")}
    assert actual == PINNED_CALIBRATED_BER
