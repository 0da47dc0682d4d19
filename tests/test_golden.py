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

A design-only ``run_ber`` with seven receive antennas pins the response
distances at the largest antenna count where index-order and numpy's blocked
summation of the antenna terms still agree.

A LoS sweep pins what scenario B leaves out: the exponential kernel, seven
receive antennas, calibrated maps, a K cap (block:4x4 has four layouts) and
four modes that share one channel realization.

Scenario B at ``keff_delta_frac`` 2.0 pins the K_eff pruning itself: every
other pin keeps K_eff = K, while this one prunes to 6, 3 and 1 of 8, 8 and 4
members, so its threshold is the pool's median response distance.

A layout_maxmin study on a 4x5 grid pins the farthest layout pair of a
250-candidate pool in which no pair reaches the most two layouts can differ
by, so the pair is only known once the whole upper triangle is read.
"""

import dataclasses
import hashlib

from frisim.codebook import layout_distances
from frisim.config import ExperimentConfig
from frisim.geometry import GranularityMode, build_grid, enumerate_candidates, partition
from frisim.pipeline import (design_artifacts, emit_table, reproduce_scenario_a,
                             reproduce_scenario_b, run_ber, run_sweep, scenario_b_config)
from frisim.seeding import TAG_CANDIDATES, derive_seed

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
    "sweep.csv": "bbae64497b53f24d661960e2100ee1ca435b2857870023ba94eb5175598ba920",
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


SEVEN_ANTENNA_DESIGN = ExperimentConfig(
    rx_antennas=7, modes=(GranularityMode.element(), GranularityMode.group(2, 2)),
    m_samples=48, estimation_error_var=0.05,
    methods=("random", "layout_maxmin", "response_maxmin_greedy"),
    trials=0, seeds=(9, 10))

PINNED_SEVEN_ANTENNA_CODEBOOKS = (
    "afdd04d5d578e98ba2b4d6a1a04eddb103bbb90c2064c3f8f83e634a2d968c3b")


def test_seven_antenna_design_codebooks_match_the_pinned_hash(tmp_path):
    tables = run_ber(SEVEN_ANTENNA_DESIGN)
    assert len(tables["codebooks"].rows) == 12
    emit_table(tables["codebooks"], tmp_path / "codebooks.csv")
    digest = hashlib.sha256((tmp_path / "codebooks.csv").read_bytes()).hexdigest()
    assert digest == PINNED_SEVEN_ANTENNA_CODEBOOKS


LOS_SWEEP = ExperimentConfig(
    modes=(GranularityMode.element(), GranularityMode.group(2, 2),
           GranularityMode.block(4, 4), GranularityMode.group(2, 4)),
    m_samples=300, fading="los", kernel="exponential", rho=0.4, rx_antennas=7,
    estimation_error_var=0.02, k=6, sweep_snr_db=5.0, trials=800, seeds=(5, 9, 13))

PINNED_LOS_SWEEP = "1b8cb1d3ec81732d6923d8c7281f1681a62595533dd9a9c997b7e5351c760d76"


def test_los_sweep_matches_the_pinned_hash(tmp_path):
    tables = run_sweep(LOS_SWEEP)
    assert set(tables) == {"sweep"}
    emit_table(tables["sweep"], tmp_path / "sweep.csv")
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == \
        PINNED_LOS_SWEEP


PINNED_PRUNED_SWEEP = "47a989ef63dec34b73dbfa25b3341235587b214dd6f163778fec686623992ab9"


def test_sweep_that_prunes_k_eff_matches_the_pinned_hash(tmp_path):
    config = dataclasses.replace(scenario_b_config(trials=500), keff_delta_frac=2.0)
    table = run_sweep(config)["sweep"]
    assert [(row[0], row[2], row[3]) for row in table.rows] == [
        ("element", 8, 6), ("group:2x2", 8, 3), ("block:4x4", 4, 1)]
    emit_table(table, tmp_path / "sweep.csv")
    assert hashlib.sha256((tmp_path / "sweep.csv").read_bytes()).hexdigest() == \
        PINNED_PRUNED_SWEEP


# Every pair of this pool differs in fewer than 20 of its 20 elements, the
# most two 10-element layouts can, so layout_maxmin's farthest pair comes from
# a scan of the whole upper triangle (250 candidates make two row blocks).
FULL_SCAN_LAYOUT_BER = ExperimentConfig(
    grid_rows=4, grid_cols=5, n_act=10, m_samples=250, estimation_error_var=0.02,
    methods=("layout_maxmin", "response_maxmin_greedy"), k=8,
    snr_db=(0.0, 5.0, 10.0), trials=300, seeds=(3, 4))

PINNED_FULL_SCAN_LAYOUT_BER = {
    "ber_per_seed.csv": "1ed875ed2b886597a444dca3443862520e772fb6e3976e3e62426a17ac979dc4",
    "ber_aggregate.csv": "ae4052a00c8d3a189935efaba13794547b947e49ba0582f5a0d6d13d4b1d57d4",
    "codebooks.csv": "4eee624c2a5afeefd24500e4e3e1933f3878e2bc2dec56cc6698d92344d8f464",
}


def test_layout_ber_whose_pool_has_no_pair_at_the_bound_matches_the_pinned_hashes(
        tmp_path):
    config = FULL_SCAN_LAYOUT_BER
    candidates = enumerate_candidates(
        partition(build_grid(4, 5, 0.5), GranularityMode.element()), 10, 250, None,
        seed=derive_seed(config.candidate_seed, TAG_CANDIDATES, 0))
    assert layout_distances(candidates).values.max() < 20
    for name, table in run_ber(config).items():
        emit_table(table, tmp_path / f"{name}.csv")
    actual = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
              for path in tmp_path.glob("*.csv")}
    assert actual == PINNED_FULL_SCAN_LAYOUT_BER
