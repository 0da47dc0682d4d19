"""The benchmark's span tracer (``perfbench/tracing.py``) around both studies.

The tracer rebinds every function it lists in ``LAYERS`` by name in each
``frisim.*`` module and reads some of their arguments by position and some of
their results by length, size or attribute. A refactor that moves one of those
breaks only traced runs, so this drives a reduced scenario A and scenario B
under the installed tracer.
"""

import importlib.util
import sys
from pathlib import Path

import frisim.pipeline
from frisim.pipeline import scenario_a_config, scenario_b_config

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("frisim_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(layers):
    names = {name for functions in layers.values() for name in functions}
    return {(module_name, name): getattr(module, name)
            for module_name, module in list(sys.modules.items())
            if module is not None and module_name.partition(".")[0] == "frisim"
            for name in names if hasattr(module, name)}


def test_traced_studies_count_every_layer_and_uninstall_restores_them():
    tracing = _load_tracing()
    before = _bindings(tracing.LAYERS)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert _bindings(tracing.LAYERS).keys() == before.keys()
        assert all(getattr(bound, "__wrapped__", None) is before[key]
                   for key, bound in _bindings(tracing.LAYERS).items())
        with tracer.span("study"):
            frisim.pipeline.run_ber(scenario_a_config(seed_count=2, trials=200))
            frisim.pipeline.run_sweep(scenario_b_config(trials=500))
    finally:
        tracer.uninstall()
    assert _bindings(tracing.LAYERS) == before
    stats = tracer.layer_stats()
    assert stats["pipeline.run_ber.calls"] == stats["pipeline.run_sweep.calls"] == 1
    for name in ("geometry.enumerate_candidates.candidates",
                 "codebook.pairwise_distances.pairs", "channel.build_response_map.rows"):
        assert stats[name] > 0, name
