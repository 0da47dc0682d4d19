"""Pinned reference outputs: the sha256 of every CSV that reduced scenario A
(3 seeds x 500 trials) and scenario B (500 trials, and its default 5 000)
write.

Rerun equality cannot see drift that every run shares; these hashes do. A
change that moves an output on purpose re-pins its hash here and says why in
CHANGES.md. The bytes come from numpy's float64 kernels, so a different numpy
or BLAS build may need a re-pin too. At 500 trials every scenario B mode
reads p_e = 0, so only the default depth pins the sweep's detection streams.
"""

import hashlib

from frisim.pipeline import reproduce_scenario_a, reproduce_scenario_b

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
