"""Command line interface tests, driven through frisim.cli.main."""

import pytest

from frisim import pipeline
from frisim._version import __version__
from frisim.cli import main
from frisim.geometry import InfeasibleConstraintError
from frisim.pipeline import read_table

SMALL_CONFIG = """
grid.rows = 4
grid.cols = 4
grid.spacing = 0.5
candidates.modes = element
candidates.n_act = 4
candidates.m_samples = 40
candidates.min_unit_spacing = 0.0
channel.rx_antennas = 2
codebook.methods = random,response_maxmin_greedy
codebook.k = 4
noise.snr_db = 0,10
run.trials = 100
run.seeds = 1,2
"""


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG)
    return path


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert __version__ in capsys.readouterr().out


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == 2


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == 2


def test_selftest_is_an_invalid_choice(capsys):
    """The oracle checks run as tier-1 tests, not as a shipped subcommand."""
    assert main(["selftest"]) == 2
    assert "invalid choice: 'selftest'" in capsys.readouterr().err


def test_ber_writes_tables_and_applies_overrides(capsys, tmp_path, config_file):
    out = tmp_path / "ber_out"
    code = main(["ber", "--config", str(config_file), "--out", str(out),
                 "--seed", "9", "--trials", "50"])
    assert code == 0
    stdout = capsys.readouterr().out
    for name in ("ber_per_seed.csv", "ber_aggregate.csv", "codebooks.csv"):
        assert (out / name).is_file()
        assert name in stdout
    per_seed = read_table(out / "ber_per_seed.csv")
    meta = dict(per_seed.metadata)
    assert meta["seeds"] == "9"
    assert meta["trials"] == "50"
    # one seed, two methods, two SNR points
    assert len(per_seed.rows) == 4
    assert {row[0] for row in per_seed.rows} == {9}


def test_sweep_writes_table(capsys, tmp_path, config_file):
    out = tmp_path / "sweep_out"
    code = main(["sweep", "--config", str(config_file), "--out", str(out),
                 "--trials", "50"])
    assert code == 0
    table = read_table(out / "sweep.csv")
    assert [row[0] for row in table.rows] == ["element"]


def test_design_writes_artifacts(capsys, tmp_path, config_file):
    out = tmp_path / "design_out"
    code = main(["design", "--config", str(config_file), "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    for name in ("candidates.txt", "response_map.txt", "codebook_random.txt",
                 "codebook_response_maxmin_greedy.txt"):
        assert (out / name).is_file()
        assert name in stdout


def test_defaults_apply_without_config(capsys, tmp_path):
    out = tmp_path / "default_out"
    code = main(["sweep", "--out", str(out), "--trials", "20"])
    assert code == 0
    assert (out / "sweep.csv").is_file()


def test_invalid_config_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("grid.rows = 4\nbogus.key = 1\n")
    code = main(["ber", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "bogus.key" in capsys.readouterr().err


def test_duplicate_method_exits_2(capsys, tmp_path, config_file):
    path = tmp_path / "twice.cfg"
    path.write_text(SMALL_CONFIG.replace("codebook.methods = random,response_maxmin_greedy",
                                         "codebook.methods = random, random"))
    out = tmp_path / "o"
    code = main(["ber", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert "codebook.methods lists random more than once" in capsys.readouterr().err
    assert not out.exists()


def test_repeated_seed_exits_2(capsys, tmp_path):
    path = tmp_path / "twice.cfg"
    path.write_text(SMALL_CONFIG.replace("run.seeds = 1,2", "run.seeds = 3,3"))
    out = tmp_path / "o"
    code = main(["ber", "--config", str(path), "--out", str(out)])
    assert code == 2
    assert "run.seeds lists 3 more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("ber", "noise.snr_db", "nan"),
    ("ber", "noise.snr_db", "inf"),
    ("sweep", "noise.sweep_snr_db", "-inf"),
    ("sweep", "keff.delta_frac", "nan"),
    ("sweep", "overhead.alpha_unit", "nan"),
])
def test_non_finite_setting_exits_2_naming_the_key(capsys, tmp_path, command, key, value):
    path = tmp_path / "nonfinite.cfg"
    lines = [line for line in SMALL_CONFIG.splitlines() if not line.startswith(key)]
    path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    out = tmp_path / "o"
    code = main([command, "--config", str(path), "--out", str(out)])
    assert code == 2
    assert f"{key} must be finite, got {value}" in capsys.readouterr().err
    assert not out.exists()


def _config_with(tmp_path, key, value):
    """SMALL_CONFIG with ``key`` set to ``value``."""
    path = tmp_path / "setting.cfg"
    lines = [line for line in SMALL_CONFIG.splitlines() if not line.startswith(key)]
    path.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    return path


@pytest.mark.parametrize("command, key, value", [
    ("ber", "noise.snr_db", "4000"),
    ("ber", "noise.snr_db", "0,-4000"),
    ("ber", "noise.snr_db", "0:400:100"),
    ("ber", "noise.snr_db", "-400:0:100"),
    ("sweep", "noise.sweep_snr_db", "4000"),
    ("sweep", "noise.sweep_snr_db", "-4000"),
])
def test_snr_setting_out_of_range_exits_2_naming_the_key(capsys, tmp_path, command, key,
                                                         value):
    out = tmp_path / "o"
    code = main([command, "--config", str(_config_with(tmp_path, key, value)),
                 "--out", str(out)])
    assert code == 2
    assert f"{key} must lie in [-300, 300] dB, got " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, key, value", [
    ("ber", "noise.snr_db", "-300,300"),
    ("sweep", "noise.sweep_snr_db", "-300"),
    ("sweep", "noise.sweep_snr_db", "300"),
])
def test_snr_setting_at_the_bound_runs(capsys, tmp_path, command, key, value):
    out = tmp_path / "o"
    code = main([command, "--config", str(_config_with(tmp_path, key, value)),
                 "--out", str(out)])
    assert code == 0, capsys.readouterr().err
    assert any(out.iterdir())


@pytest.mark.parametrize("argv", [
    ["ber", "--seed", "-2"],
    ["repro-a", "--seed", "-1", "--seed-count", "1", "--trials", "0"],
    ["repro-b", "--seed", "-1", "--trials", "10"],
])
def test_negative_seed_exits_2(capsys, tmp_path, argv):
    out = tmp_path / "o"
    code = main(argv + ["--out", str(out)])
    assert code == 2
    assert "must be >= 0, got -" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    path = tmp_path / "binary.cfg"
    path.write_bytes(b"grid.rows = 4\n\xff\xfe\n")
    code = main(["ber", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert f"config file {path} is not UTF-8 text" in capsys.readouterr().err


def test_zero_trial_sweep_is_a_config_error(capsys, tmp_path, config_file):
    out = tmp_path / "o"
    code = main(["sweep", "--config", str(config_file), "--out", str(out),
                 "--trials", "0"])
    assert code == 2
    assert "run.trials must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_error_messages_cannot_corrupt_the_manifest(capsys, tmp_path, config_file,
                                                    monkeypatch):
    def failing_mode(*args):
        raise InfeasibleConstraintError("bad mode, see #3\nsecond line")

    monkeypatch.setattr(pipeline, "evaluate_mode", failing_mode)
    out = tmp_path / "o"
    code = main(["sweep", "--config", str(config_file), "--out", str(out)])
    assert code == 0
    errors = read_table(out / "errors.csv")
    assert errors.rows == (("sweep", "element", "response_maxmin_greedy", -1,
                            "bad mode; see 3 second line"),)


def test_missing_config_file_exits_4(capsys, tmp_path):
    code = main(["ber", "--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "o")])
    assert code == 4
    assert "error:" in capsys.readouterr().err


def test_infeasible_design_exits_3(capsys, tmp_path, config_file):
    path = tmp_path / "tight.cfg"
    path.write_text(SMALL_CONFIG.replace("candidates.min_unit_spacing = 0.0",
                                         "candidates.min_unit_spacing = 10.0"))
    code = main(["design", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "min_unit_spacing" in capsys.readouterr().err


def test_design_on_a_short_candidate_pool_exits_3(capsys, tmp_path, config_file):
    # Elements more than half a spacing apart leave only the two checkerboards
    # of 8 elements, a shortfall that validation cannot foresee.
    path = tmp_path / "short.cfg"
    path.write_text(SMALL_CONFIG.replace("candidates.n_act = 4", "candidates.n_act = 8")
                    .replace("candidates.min_unit_spacing = 0.0",
                             "candidates.min_unit_spacing = 0.6")
                    .replace("codebook.k = 4", "codebook.k = 3"))
    code = main(["design", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "cannot select k=3 members from 2 candidates" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["ber", "design"])
def test_fewer_samples_than_k_exits_2(capsys, tmp_path, command):
    path = tmp_path / "few.cfg"
    path.write_text(SMALL_CONFIG.replace("candidates.m_samples = 40",
                                         "candidates.m_samples = 4")
                    .replace("codebook.k = 4", "codebook.k = 8"))
    out = tmp_path / "o"
    code = main([command, "--config", str(path), "--out", str(out)])
    assert code == 2
    assert "candidates.m_samples must be >= codebook.k=8, got 4" in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_exits_4(capsys, tmp_path, config_file):
    blocker = tmp_path / "occupied"
    blocker.write_text("a file, not a directory\n")
    code = main(["sweep", "--config", str(config_file), "--out", str(blocker),
                 "--trials", "20"])
    assert code == 4


def test_repro_a_reduced(capsys, tmp_path):
    out = tmp_path / "sa"
    code = main(["repro-a", "--out", str(out), "--seed-count", "2",
                 "--trials", "0"])
    assert code == 0
    assert "scenario A" in capsys.readouterr().out
    assert (out / "scenario_a_ber.csv").is_file()
    assert (out / "scenario_a_ber_per_seed.csv").is_file()
    assert (out / "scenario_a_codebooks.csv").is_file()


def test_repro_b_reduced(capsys, tmp_path):
    out = tmp_path / "sb"
    code = main(["repro-b", "--out", str(out), "--trials", "200"])
    assert code == 0
    assert "scenario B" in capsys.readouterr().out
    table = read_table(out / "scenario_b_sweep.csv")
    assert [row[0] for row in table.rows] == ["element", "group:2x2",
                                              "block:4x4"]
