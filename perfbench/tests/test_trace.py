"""The tracer patches every consuming module, restores them, and its self
times add up to no more than the traced wall time."""

import json
import time
from pathlib import Path

import frisim.cli
import frisim.pipeline
import frisim.throughput
import run
import tracing
import workloads

BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_install_patches_every_binding_and_uninstall_restores_them():
    before = (frisim.pipeline.simulate_ber, frisim.throughput.simulate_ber,
              frisim.cli.run_ber, frisim.cli.load_config, frisim.pipeline.derive_seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = (frisim.pipeline.simulate_ber, frisim.throughput.simulate_ber,
                   frisim.cli.run_ber, frisim.cli.load_config, frisim.pipeline.derive_seed)
        assert all(a is not b for a, b in zip(before, patched))
        assert all(p.__wrapped__ is b for p, b in zip(patched, before))
    finally:
        tracer.uninstall()
    after = (frisim.pipeline.simulate_ber, frisim.throughput.simulate_ber,
             frisim.cli.run_ber, frisim.cli.load_config, frisim.pipeline.derive_seed)
    assert all(a is b for a, b in zip(before, after))


def test_self_times_sum_to_at_most_the_traced_wall(tmp_path):
    study = workloads.STUDIES["codebook_screen"]
    config = study.build_input(0, tmp_path)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        with tracer.span("study"):
            study.run(config, tmp_path / "out")
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    stats = tracer.layer_stats()
    self_total = sum(v for k, v in stats.items()
                     if k.endswith(".self_s") and not k.startswith("study."))
    assert 0 < self_total <= wall
    assert stats["config.load_config.calls"] == 1
    assert stats["pipeline.emit_table.calls"] == 3
    assert stats["codebook.pairwise_distances.pairs"] == 2 * 4 * 1024 * 1023 // 2
    assert stats["geometry.enumerate_candidates.candidates"] == 2 * 1024
    assert all(s[1] <= s[2] for s in tracer.spans)
    assert {s[4] for s in tracer.spans} == {0}


def test_benchmark_json_names_what_the_command_prints():
    spec = json.loads(BENCHMARK.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    layer_names = tracing.layer_metric_names() + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == layer_names
    assert all(m["unit"] == run._layer_unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
