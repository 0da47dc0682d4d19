"""End-to-end pipeline tests: result tables, CSV round-trips, scenarios."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from frisim import codebook, pipeline, throughput
from frisim.codebook import load_codebook
from frisim.config import ConfigError, ExperimentConfig, config_hash, validate
from frisim.channel import build_design_maps, load_response_map
from frisim.geometry import GranularityMode, load_candidate_set
from frisim.pipeline import (
    BER_AGGREGATE_COLUMNS,
    BER_PER_SEED_COLUMNS,
    CODEBOOK_COLUMNS,
    ERROR_COLUMNS,
    SWEEP_COLUMNS,
    ResultTable,
    design_artifacts,
    emit_table,
    read_table,
    reproduce_scenario_a,
    reproduce_scenario_b,
    run_ber,
    run_sweep,
    scenario_a_config,
    scenario_b_config,
)
from frisim._version import __version__
from frisim.seeding import TAG_MAP, derive_seed


def small_ber_config(**overrides) -> ExperimentConfig:
    base = dict(
        grid_rows=4, grid_cols=4, grid_spacing=0.5,
        modes=(GranularityMode.element(),),
        n_act=4, m_samples=40, min_unit_spacing=0.0,
        methods=("random", "response_maxmin_greedy"),
        k=4, snr_db=(0.0, 10.0), trials=200, seeds=(1, 2), rx_antennas=2,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestResultTable:
    def test_row_arity_is_checked(self):
        with pytest.raises(ValueError, match="arity"):
            ResultTable(schema="x", columns=("a", "b"), rows=((1,),), metadata=())

    def test_comma_in_cell_is_rejected_on_emit(self, tmp_path):
        table = ResultTable(schema="x", columns=("a",), rows=(("u,v",),),
                            metadata=())
        with pytest.raises(ValueError, match="corrupt"):
            emit_table(table, tmp_path / "t.csv")

    def test_boolean_cell_is_rejected_on_emit(self, tmp_path):
        table = ResultTable(schema="x", columns=("a",), rows=((True,),),
                            metadata=())
        with pytest.raises(TypeError):
            emit_table(table, tmp_path / "t.csv")


class TestTableRoundTrip:
    def test_values_survive_exactly(self, tmp_path):
        rows = (
            (1, 0.1, "element", -3.0),
            (2, 1.2345678901234567e-17, "group:2x2", 7.5),
            (-4, float(np.pi), "block:4x4", 0.0),
        )
        table = ResultTable(schema="demo_v1", columns=("i", "x", "label", "y"),
                            rows=rows, metadata=(("seed", "11"), ("note", "s")))
        path = tmp_path / "demo.csv"
        emit_table(table, path)
        back = read_table(path)
        assert back.schema == "demo_v1"
        assert back.columns == table.columns
        assert back.metadata == table.metadata
        assert back.rows == rows

    def test_empty_table_keeps_header_and_metadata(self, tmp_path):
        table = ResultTable(schema="demo_v1", columns=("a", "b"), rows=(),
                            metadata=(("trials", "0"),))
        path = tmp_path / "empty.csv"
        emit_table(table, path)
        text = path.read_text()
        assert text.splitlines()[0] == "# schema=demo_v1"
        assert text.splitlines()[-1] == "a,b"
        back = read_table(path)
        assert back.rows == ()
        assert back.columns == ("a", "b")

    def test_file_without_header_is_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("# schema=demo_v1\n# trials=0\n")
        with pytest.raises(ValueError, match="header"):
            read_table(path)


class TestRunBer:
    def test_row_counts_and_schemas(self):
        cfg = small_ber_config()
        tables = run_ber(cfg)
        assert set(tables) == {"ber_per_seed", "ber_aggregate", "codebooks"}
        n_seeds, n_methods, n_snrs = 2, 2, 2
        assert len(tables["ber_per_seed"].rows) == n_seeds * n_methods * n_snrs
        assert len(tables["ber_aggregate"].rows) == n_methods * n_snrs
        assert len(tables["codebooks"].rows) == n_seeds * n_methods
        assert tables["ber_per_seed"].columns == BER_PER_SEED_COLUMNS
        assert tables["ber_aggregate"].columns == BER_AGGREGATE_COLUMNS
        assert tables["codebooks"].columns == CODEBOOK_COLUMNS

    def test_aggregate_matches_per_seed_totals(self):
        cfg = small_ber_config()
        tables = run_ber(cfg)
        per_seed = tables["ber_per_seed"].rows
        for method, k, n_act, mode, snr, trials, errors, p_hat, ci in (
                tables["ber_aggregate"].rows):
            matching = [r for r in per_seed if r[1] == method and r[5] == snr]
            assert trials == sum(r[6] for r in matching)
            assert errors == sum(r[7] for r in matching)
            assert p_hat == errors / trials
            assert k == 4 and n_act == 4 and mode == "element"

    def test_zero_trials_skips_simulation_but_designs_codebooks(self):
        tables = run_ber(small_ber_config(trials=0))
        assert tables["ber_per_seed"].rows == ()
        assert tables["ber_aggregate"].rows == ()
        assert len(tables["codebooks"].rows) == 4
        for _seed, _method, k, mode, d_min in tables["codebooks"].rows:
            assert k == 4 and mode == "element" and d_min >= 0.0

    def test_fixed_ris_uses_quadrant_blocks(self):
        cfg = small_ber_config(
            methods=("fixed_ris", "random", "response_maxmin_greedy"))
        tables = run_ber(cfg)
        fixed = [r for r in tables["codebooks"].rows if r[1] == "fixed_ris"]
        assert len(fixed) == 2
        for _seed, _method, k, mode, _d_min in fixed:
            assert k == 4
            assert mode == "block:2x2"
        agg_methods = [r[0] for r in tables["ber_aggregate"].rows]
        assert agg_methods.count("fixed_ris") == 2

    def test_fixed_ris_label_shared_with_a_configured_mode_is_kept_apart(self):
        # The quadrant baseline of an 8x8 grid is labelled block:4x4, like the
        # configured mode; each (method, mode, SNR) must still appear once.
        cfg = small_ber_config(
            grid_rows=8, grid_cols=8, n_act=16, m_samples=32,
            modes=(GranularityMode.block(4, 4), GranularityMode.element()),
            methods=("fixed_ris", "random", "response_maxmin_greedy"),
            trials=100, seeds=(1,))
        rows = run_ber(cfg)["ber_aggregate"].rows
        cells = [(method, mode, snr) for method, _k, _n, mode, snr, *_ in rows]
        assert len(cells) == 10
        assert len(set(cells)) == 10
        assert {mode for method, mode, _ in cells if method == "fixed_ris"} == {"block:4x4"}

    def test_fixed_ris_alone_designs_only_the_quadrant_pool(self, monkeypatch):
        sizes = []
        real = pipeline.pairwise_distances
        monkeypatch.setattr(pipeline, "pairwise_distances",
                            lambda m: sizes.append(len(m)) or real(m))
        pools = []
        real_enumerate = pipeline.enumerate_candidates

        def enumerate_candidates(*args, **kwargs):
            pools.append(real_enumerate(*args, **kwargs))
            return pools[-1]
        monkeypatch.setattr(pipeline, "enumerate_candidates", enumerate_candidates)
        tables = run_ber(small_ber_config(methods=("fixed_ris",)))
        assert [len(pool) for pool in pools] == [4]
        assert sizes == [4, 4]
        assert [r[3] for r in tables["codebooks"].rows] == ["block:2x2"] * 2

    def test_short_candidate_pool_gives_one_error_row_per_mode_and_method(self):
        # Two 1x2 (or 2x1) units at least 1.6 apart must sit in opposite
        # corners, so the spacing rule leaves two candidates of 28.
        cfg = small_ber_config(
            modes=(GranularityMode.group(1, 2), GranularityMode.group(2, 1)),
            min_unit_spacing=1.6, k=3, seeds=(1,),
            methods=("random", "layout_maxmin", "response_maxmin_greedy",
                     "response_maxmin_exact"))
        assert validate(cfg, for_ber=True) == []
        tables = run_ber(cfg)
        assert tables["codebooks"].rows == ()
        assert tables["ber_per_seed"].rows == ()
        assert tables["errors"].rows == tuple(
            ("codebook", mode, method, 1, "cannot select k=3 members from 2 candidates")
            for mode in ("group:1x2", "group:2x1") for method in cfg.methods)

    def test_a_selector_bug_is_not_reported_as_infeasible(self, monkeypatch):
        def broken(distances, k):
            raise ValueError("selector bug")
        monkeypatch.setattr(codebook, "select_maxmin_greedy", broken)
        with pytest.raises(ValueError, match="selector bug"):
            run_ber(small_ber_config())

    def test_metadata_identifies_the_run(self):
        cfg = small_ber_config()
        tables = run_ber(cfg)
        for table in tables.values():
            meta = dict(table.metadata)
            assert meta["config_hash"] == config_hash(cfg)
            assert meta["seeds"] == "1,2"
            assert meta["trials"] == "200"
            assert meta["tool_version"] == __version__

    def test_infeasible_mode_is_reported_and_others_still_run(self):
        cfg = small_ber_config(
            modes=(GranularityMode.element(), GranularityMode.group(2, 2)),
            min_unit_spacing=1.6, k=2)
        tables = run_ber(cfg)
        assert "errors" in tables
        assert tables["errors"].columns == ERROR_COLUMNS
        (stage, mode, method, seed, message), = tables["errors"].rows
        assert stage == "candidates"
        assert mode == "element"
        assert "min_unit_spacing" in message
        survivors = {r[4] for r in tables["ber_per_seed"].rows}
        assert survivors == {"group:2x2"}
        assert len(tables["ber_per_seed"].rows) == 8

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_ber_config()
        for sub in ("a", "b"):
            out = tmp_path / sub
            out.mkdir()
            tables = run_ber(cfg)
            for name, table in sorted(tables.items()):
                emit_table(table, out / f"{name}.csv")
        for name in ("ber_per_seed", "ber_aggregate", "codebooks"):
            first = (tmp_path / "a" / f"{name}.csv").read_bytes()
            second = (tmp_path / "b" / f"{name}.csv").read_bytes()
            assert first == second

    def test_per_seed_errors_never_grow_along_the_snr_grid(self):
        # Common noise across the SNR grid makes each (seed, method) curve
        # monotone exactly, not only in expectation. The 0.5 dB grid puts
        # neighbouring points close enough that independent draws would
        # cross.
        cfg = replace(scenario_a_config(seed_count=4, trials=2000),
                      snr_db=tuple(-5.0 + 0.5 * i for i in range(51)))
        curves = {}
        for seed, method, _k, _n, _mode, snr, _t, errors, _p, _ci in (
                run_ber(cfg)["ber_per_seed"].rows):
            curves.setdefault((seed, method), []).append((snr, errors))
        assert len(curves) == 16
        for key, points in curves.items():
            assert [snr for snr, _ in points] == sorted(cfg.snr_db)
            errors = [e for _, e in points]
            assert errors == sorted(errors, reverse=True), key

    def test_greedy_selection_dominates_on_design_distance(self):
        cfg = scenario_a_config(seed_count=20, trials=0)
        rows = run_ber(cfg)["codebooks"].rows
        d_min = {}
        for _seed, method, _k, _mode, value in rows:
            d_min.setdefault(method, []).append(value)
        greedy = np.asarray(d_min["response_maxmin_greedy"])
        layout = np.asarray(d_min["layout_maxmin"])
        random = np.asarray(d_min["random"])
        assert np.all(greedy > layout)
        assert greedy.mean() > 3 * layout.mean()
        assert greedy.mean() > 3 * random.mean()

    def test_peak_memory_stays_below_one_distance_matrix(self):
        # The selectors read the farthest pair, rows and blocks on demand, so
        # no (M, M) float64 response-distance matrix (8 MB at M = 1024) is
        # built; the uint8 layout matrices and the maps stay well below it.
        m = 1024
        cfg = ExperimentConfig(
            modes=(GranularityMode.element(), GranularityMode.group(2, 2)),
            m_samples=m, estimation_error_var=0.05,
            methods=("random", "layout_maxmin", "response_maxmin_greedy"),
            snr_db=(10.0,), trials=200, seeds=(1,))
        tracemalloc.start()
        try:
            tables = run_ber(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(tables["codebooks"].rows) == 6
        assert peak < m * m * 8


class TestRunSweep:
    def test_reports_every_mode_in_order(self):
        cfg = small_ber_config(
            modes=(GranularityMode.element(), GranularityMode.group(2, 2)),
            trials=300, k=2)
        tables = run_sweep(cfg)
        assert tables["sweep"].columns == SWEEP_COLUMNS
        labels = [r[0] for r in tables["sweep"].rows]
        assert labels == ["element", "group:2x2"]
        for _mode, unit_count, k, k_eff, raw, oh, p_e, net in tables["sweep"].rows:
            assert 1 <= k_eff <= k
            assert raw == pytest.approx(math.log2(k_eff))
            assert 0.0 <= oh <= 1.0
            assert 0.0 <= p_e <= 1.0
            assert net == pytest.approx((1.0 - oh) * raw * (1.0 - p_e))

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = small_ber_config(trials=300)
        paths = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            out.mkdir()
            emit_table(run_sweep(cfg)["sweep"], out / "sweep.csv")
            paths.append(out / "sweep.csv")
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("estimation_error_var", [0.0, 0.05])
    def test_greedy_codebooks_are_run_bers_for_the_first_seed(
            self, tmp_path, monkeypatch, estimation_error_var):
        cfg = small_ber_config(
            grid_rows=8, grid_cols=8, n_act=8, m_samples=48,
            modes=(GranularityMode.element(), GranularityMode.group(2, 2)),
            methods=("response_maxmin_greedy",), estimation_error_var=estimation_error_var,
            seeds=(3, 4), trials=100)
        selected = []

        def recording(distances, k):
            selected.append(codebook.select_maxmin_greedy(distances, k))
            return selected[-1]

        monkeypatch.setattr(throughput, "select_maxmin_greedy", recording)
        run_sweep(cfg)
        from_ber = [d_min for seed, _method, _k, _mode, d_min in run_ber(cfg)["codebooks"].rows
                    if seed == cfg.seeds[0]]
        assert [book.d_min for book in selected] == from_ber
        design_artifacts(cfg, tmp_path)
        designed = load_codebook(tmp_path / "codebook_response_maxmin_greedy.txt")
        assert (designed.members, designed.d_min) == (selected[0].members, selected[0].d_min)

    def test_each_mode_of_a_calibrated_sweep_draws_its_own_map(self, monkeypatch):
        cfg = small_ber_config(
            modes=(GranularityMode.element(), GranularityMode.group(2, 2),
                   GranularityMode.block(2, 2)),
            estimation_error_var=0.05, trials=100, k=2)
        map_seeds = []

        def recording(*args, seed):
            map_seeds.append(seed)
            return build_design_maps(*args, seed=seed)

        monkeypatch.setattr(pipeline, "build_design_maps", recording)
        assert len(run_sweep(cfg)["sweep"].rows) == 3
        assert map_seeds == [derive_seed(cfg.seeds[0], TAG_MAP, i) for i in range(3)]


class TestDesignArtifacts:
    def test_writes_loadable_artifacts(self, tmp_path):
        cfg = small_ber_config(methods=("random", "layout_maxmin",
                                        "response_maxmin_greedy"))
        paths = design_artifacts(cfg, tmp_path)
        names = [p.name for p in paths]
        assert names == ["candidates.txt", "response_map.txt",
                         "codebook_random.txt", "codebook_layout_maxmin.txt",
                         "codebook_response_maxmin_greedy.txt"]
        for path in paths:
            assert path.is_file()
        candidates = load_candidate_set(tmp_path / "candidates.txt")
        response_map = load_response_map(tmp_path / "response_map.txt")
        assert len(candidates) == len(response_map)
        assert response_map.rx_antennas == cfg.rx_antennas
        for method in cfg.methods:
            codebook = load_codebook(tmp_path / f"codebook_{method}.txt")
            assert codebook.selection_method == method
            assert len(codebook.members) == cfg.k
            assert all(0 <= m < len(candidates) for m in codebook.members)

    def test_codebooks_match_run_ber_for_the_first_seed_and_mode(self, tmp_path):
        cfg = small_ber_config(
            modes=(GranularityMode.element(), GranularityMode.group(2, 2)),
            m_samples=12, estimation_error_var=0.05, trials=0,
            methods=("random", "layout_maxmin", "response_maxmin_greedy",
                     "response_maxmin_exact"))
        design_artifacts(cfg, tmp_path)
        designed = []
        for method in cfg.methods:
            codebook = load_codebook(tmp_path / f"codebook_{method}.txt")
            designed.append((method, len(codebook.members), codebook.d_min))
        rows = run_ber(cfg)["codebooks"].rows
        from_ber = [(method, k, d_min) for seed, method, k, mode, d_min in rows
                    if seed == cfg.seeds[0] and mode == cfg.modes[0].label]
        assert designed == from_ber

    def test_fixed_ris_is_rejected(self, tmp_path):
        cfg = small_ber_config(methods=("fixed_ris", "response_maxmin_greedy"))
        with pytest.raises(ConfigError, match="fixed_ris"):
            design_artifacts(cfg, tmp_path)


class TestScenarios:
    def test_scenario_a_layout(self):
        cfg = scenario_a_config()
        assert (cfg.grid_rows, cfg.grid_cols) == (8, 8)
        assert cfg.modes == (GranularityMode.element(),)
        assert cfg.n_act == 16 and cfg.k == 8
        assert len(cfg.snr_db) == 11
        assert cfg.snr_db[0] == -5.0 and cfg.snr_db[-1] == 20.0
        assert cfg.methods == ("fixed_ris", "random", "layout_maxmin",
                               "response_maxmin_greedy")
        assert len(cfg.seeds) == 200 and cfg.trials == 10_000

    def test_scenario_b_layout(self):
        cfg = scenario_b_config()
        labels = [m.label for m in cfg.modes]
        assert labels == ["element", "group:2x2", "block:4x4"]
        assert cfg.methods == ("response_maxmin_greedy",)
        assert len(cfg.seeds) == 4 and cfg.trials == 5_000
        assert cfg.sweep_snr_db == 10.0

    def test_reproduce_scenario_a_writes_expected_files(self, tmp_path):
        tables = reproduce_scenario_a(tmp_path, seed_count=2, trials=0)
        assert (tmp_path / "scenario_a_ber.csv").is_file()
        assert (tmp_path / "scenario_a_ber_per_seed.csv").is_file()
        assert (tmp_path / "scenario_a_codebooks.csv").is_file()
        back = read_table(tmp_path / "scenario_a_codebooks.csv")
        assert back.rows == tables["codebooks"].rows
        assert len(back.rows) == 2 * 4

    def test_reproduce_scenario_b_writes_sweep_table(self, tmp_path):
        tables = reproduce_scenario_b(tmp_path, trials=300)
        back = read_table(tmp_path / "scenario_b_sweep.csv")
        assert back.schema == "granularity_sweep_v1"
        assert back.rows == tables["sweep"].rows
        assert [r[0] for r in back.rows] == ["element", "group:2x2", "block:4x4"]
