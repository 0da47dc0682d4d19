import pytest

from frisim.config import (ConfigError, ExperimentConfig, channel_params, config_hash,
                           load_config, parse_config_text, require_valid,
                           validate)
from frisim.geometry import GranularityMode
from frisim.seeding import TAG_CHANNEL, derive_seed


def test_defaults_are_valid():
    assert validate(ExperimentConfig()) == []
    assert validate(ExperimentConfig(), for_ber=True) == []


def test_parse_overrides_and_lists():
    cfg = parse_config_text("""
# comment lines and blanks are ignored

grid.rows = 4
grid.cols = 8
candidates.modes = element, group:2x2
candidates.min_unit_spacing = auto
noise.snr_db = -5:5:2.5
run.seeds = 3:6
codebook.methods = random,response_maxmin_greedy
channel.tx_position = 1, 2, 3.5
""")
    assert cfg.grid_rows == 4 and cfg.grid_cols == 8
    assert cfg.modes == (GranularityMode.element(), GranularityMode.group(2, 2))
    assert cfg.min_unit_spacing is None
    assert cfg.snr_db == (-5.0, -2.5, 0.0, 2.5, 5.0)
    assert cfg.seeds == (3, 4, 5, 6)
    assert cfg.methods == ("random", "response_maxmin_greedy")
    assert cfg.tx_position == (1.0, 2.0, 3.5)
    # untouched fields keep their defaults
    assert cfg.trials == ExperimentConfig().trials


def test_parse_reports_every_problem_at_once():
    with pytest.raises(ConfigError) as err:
        parse_config_text("""
not a key value line
mystery.key = 4
grid.rows = four
grid.cols = 2
grid.cols = 3
""")
    message = str(err.value)
    assert "line 2" in message and "expected key=value" in message
    assert "line 3" in message and "unknown key" in message
    assert "line 4" in message and "bad value" in message
    assert "line 6" in message and "duplicate" in message


def test_parse_rejects_malformed_ranges():
    with pytest.raises(ConfigError):
        parse_config_text("noise.snr_db = 0:10\n")
    with pytest.raises(ConfigError, match="grid bounds must be finite"):
        parse_config_text("noise.snr_db = 0:inf:1\n")
    with pytest.raises(ConfigError):
        parse_config_text("run.seeds = 5:1\n")
    with pytest.raises(ConfigError):
        parse_config_text("channel.rx_position = 1,2\n")


def test_load_config_round_trips_through_a_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("grid.rows = 4\ngrid.cols = 4\ncandidates.n_act = 4\n")
    cfg = load_config(path)
    assert (cfg.grid_rows, cfg.grid_cols, cfg.n_act) == (4, 4, 4)


def test_validate_collects_multiple_violations():
    bad = ExperimentConfig(grid_spacing=-1.0, rho=2.0, k=1, trials=-5,
                           kernel="boxcar")
    problems = validate(bad)
    assert len(problems) >= 5
    joined = "\n".join(problems)
    for fragment in ("grid.spacing", "rho", "codebook.k", "run.trials", "kernel"):
        assert fragment in joined


def test_validate_needs_trials_for_the_sweep_only():
    zero = ExperimentConfig(trials=0)
    assert any("run.trials must be >= 1" in p for p in validate(zero))
    assert validate(zero, for_ber=True) == []  # a BER run still designs codebooks


def test_validate_rejects_negative_or_zero_overhead_charges():
    for field, value in (("alpha_unit", -1.0), ("beta_codeword", -0.5)):
        assert validate(ExperimentConfig(**{field: value})) == [
            "overhead coefficients must be >= 0"], field
    assert validate(ExperimentConfig(coherence_symbols=0.0)) == [
        "overhead.coherence_symbols must be positive"]
    assert validate(ExperimentConfig(alpha_unit=0.0, beta_codeword=0.0)) == []


def test_validate_checks_mode_tiling_and_divisibility():
    assert any("does not tile" in p for p in
               validate(ExperimentConfig(modes=(GranularityMode.group(3, 3),))))
    assert any("multiple" in p for p in
               validate(ExperimentConfig(modes=(GranularityMode.group(2, 2),),
                                         n_act=6)))
    assert any("active" in p for p in
               validate(ExperimentConfig(modes=(GranularityMode.element(),),
                                         n_act=100)))


def test_validate_for_ber_requires_enough_configurations():
    cfg = ExperimentConfig(modes=(GranularityMode.block(4, 4),), k=8)
    assert validate(cfg) == []  # sweep caps k, so this is fine
    problems = validate(cfg, for_ber=True)
    assert any("fewer than k" in p for p in problems)


def test_validate_for_ber_requires_k_samples_unless_only_fixed_ris_runs():
    cfg = ExperimentConfig(m_samples=4, k=8)
    assert validate(cfg) == []  # sweep caps k, so this is fine
    assert validate(cfg, for_ber=True) == [
        "candidates.m_samples must be >= codebook.k=8, got 4"]
    # The fixed_ris baseline takes the four quadrants, not m_samples candidates.
    assert validate(ExperimentConfig(m_samples=4, k=8, methods=("fixed_ris",)),
                    for_ber=True) == []


def test_validate_fixed_ris_constraints():
    base = dict(methods=("fixed_ris", "response_maxmin_greedy"))
    assert validate(ExperimentConfig(**base)) == []  # 8x8 with n_act=16 fits
    odd = ExperimentConfig(grid_rows=7, grid_cols=8, n_act=14, **base)
    assert any("even grid" in p for p in validate(odd))
    wrong_quarter = ExperimentConfig(n_act=4, **base)
    assert any("quadrant" in p for p in validate(wrong_quarter))


def test_validate_rejects_a_repeated_method_naming_it_once():
    cfg = parse_config_text("codebook.methods = random, response_maxmin_greedy, "
                            "random, random\n")
    problems = validate(cfg)
    assert problems == ["codebook.methods lists random more than once"]
    with pytest.raises(ConfigError, match="random more than once"):
        require_valid(cfg, for_ber=True)


def test_validate_rejects_a_repeated_mode():
    cfg = parse_config_text("candidates.modes = group:2x2, element, group:2x2\n")
    assert validate(cfg) == ["candidates.modes lists group:2x2 more than once"]
    assert validate(parse_config_text("candidates.modes = group:2x2, block:2x2\n")) == []


def test_validate_rejects_a_repeated_seed_or_snr_point():
    cfg = parse_config_text("run.seeds = 3, 4, 3\nnoise.snr_db = 0, 5, 0, 0\n")
    assert validate(cfg) == ["noise.snr_db lists 0.0 more than once",
                             "run.seeds lists 3 more than once"]
    with pytest.raises(ConfigError, match="run.seeds lists 3 more than once"):
        require_valid(cfg, for_ber=True)
    assert validate(parse_config_text("run.seeds = 3:5\nnoise.snr_db = 0:10:5\n")) == []


@pytest.mark.parametrize("key, value", [
    ("grid.spacing", "nan"),
    ("candidates.min_unit_spacing", "inf"),
    ("channel.rho", "nan"),
    ("channel.estimation_error_var", "inf"),
    ("channel.rx_spacing", "nan"),
    ("channel.tx_position", "0, nan, 50"),
    ("channel.rx_position", "20, 0, -inf"),
    ("noise.snr_db", "0, nan"),
    ("noise.snr_db", "inf"),
    ("noise.sweep_snr_db", "-inf"),
    ("overhead.alpha_unit", "nan"),
    ("overhead.beta_codeword", "inf"),
    ("overhead.coherence_symbols", "inf"),
    ("keff.delta_frac", "nan"),
])
def test_validate_rejects_non_finite_floats(key, value):
    problems = validate(parse_config_text(f"{key} = {value}\n"))
    assert any(p.startswith(f"{key} must be finite, got ") for p in problems), problems


@pytest.mark.parametrize("text, problem", [
    ("noise.snr_db = -300, 300", None),
    ("noise.sweep_snr_db = 300", None),
    ("noise.snr_db = 0, 300.5", "noise.snr_db must lie in [-300, 300] dB, got 0,300.5"),
    ("noise.sweep_snr_db = -1e6", "noise.sweep_snr_db must lie in [-300, 300] dB, got -1000000"),
])
def test_validate_bounds_snr_settings(text, problem):
    assert validate(parse_config_text(text + "\n")) == ([problem] if problem else [])


def test_a_non_finite_snr_is_reported_once():
    assert validate(parse_config_text("noise.snr_db = 0, -inf\n")) == [
        "noise.snr_db must be finite, got 0,-inf"]


def test_validate_rejects_negative_seeds():
    cfg = parse_config_text("run.seeds = 3, -4\ncandidates.seed = -1\n")
    assert validate(cfg) == ["run.seeds must be >= 0, got 3,-4",
                             "candidates.seed must be >= 0, got -1"]
    assert validate(parse_config_text("run.seeds = 0\ncandidates.seed = 0\n")) == []


def test_load_config_rejects_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes("grid.rows = 4 # \u00e9\n".encode("latin-1"))
    with pytest.raises(ConfigError, match="latin1.cfg is not UTF-8 text"):
        load_config(path)


def test_channel_params_derive_the_channel_stream_from_the_run_seed():
    params = channel_params(ExperimentConfig(rx_antennas=3, fading="los"), 5)
    assert params.seed == derive_seed(5, TAG_CHANNEL)
    assert (params.rx_antennas, params.fading) == (3, "los")


def test_require_valid_raises_config_error():
    with pytest.raises(ConfigError):
        require_valid(ExperimentConfig(k=0))


def test_config_hash_is_stable_and_sensitive():
    a = parse_config_text("grid.rows = 4\ngrid.cols = 2\n")
    b = parse_config_text("grid.cols = 2\ngrid.rows = 4\n")  # reordered keys
    assert config_hash(a) == config_hash(b)
    c = parse_config_text("grid.rows = 4\ngrid.cols = 4\n")
    assert config_hash(a) != config_hash(c)
    assert len(config_hash(a)) == 16
    assert all(ch in "0123456789abcdef" for ch in config_hash(a))


def test_config_hash_ignores_output_directory():
    a = ExperimentConfig(out_dir="out/here")
    b = ExperimentConfig(out_dir="out/there")
    assert config_hash(a) == config_hash(b)


def test_config_hash_covers_every_other_field():
    import dataclasses
    base = ExperimentConfig()
    tweaked = {
        "grid_rows": 9, "grid_cols": 9, "grid_spacing": 0.25,
        "modes": (GranularityMode.group(3, 3),), "n_act": 9, "m_samples": 7,
        "min_unit_spacing": 0.9, "candidate_seed": 77, "fading": "los",
        "rx_antennas": 2, "rho": 0.1, "kernel": "none",
        "estimation_error_var": 0.5, "rx_spacing": 0.3,
        "tx_position": (9.0, 9.0, 9.0), "rx_position": (8.0, 8.0, 8.0),
        "methods": ("random",), "k": 3, "snr_db": (1.0,), "sweep_snr_db": 2.0,
        "trials": 17, "seeds": (9,), "alpha_unit": 0.5, "beta_codeword": 0.25,
        "coherence_symbols": 99.0, "keff_delta_frac": 0.3,
    }
    for field, value in tweaked.items():
        changed = dataclasses.replace(base, **{field: value})
        assert config_hash(changed) != config_hash(base), field
