"""frisim: spatial-index codebook design and evaluation for
reconfigurable-surface index modulation.

The package is organised by workflow stage: aperture geometry and candidate
enumeration (:mod:`frisim.geometry`), channel and coupling models
(:mod:`frisim.channel`), codebook selection (:mod:`frisim.codebook`),
index detection and error rates (:mod:`frisim.detection`), throughput
accounting (:mod:`frisim.throughput`), and the experiment harness
(:mod:`frisim.config`, :mod:`frisim.pipeline`, :mod:`frisim.cli`).
"""

from frisim._version import __version__
from frisim.channel import (ChannelParams, ChannelRealization, CouplingMatrix,
                            MapProvenance, ResponseMap, build_response_map,
                            coupling_matrix, draw_channel, load_response_map,
                            save_response_map)
from frisim.codebook import (Codebook, DistanceMatrix, effective_size,
                             layout_distances, load_codebook,
                             pairwise_distances, save_codebook,
                             select_layout_maxmin, select_maxmin_exact,
                             select_maxmin_greedy, select_random)
from frisim.config import ConfigError, ExperimentConfig, config_hash, load_config
from frisim.detection import (BerEstimate, noise_for_snr_db, pairwise_error_prob,
                              q_function, simulate_ber, simulate_ber_curve,
                              union_bound)
from frisim.geometry import (ApertureGrid, CandidateSet, GranularityMode,
                             InfeasibleConstraintError, UnitPartition, build_grid,
                             enumerate_candidates, load_candidate_set,
                             partition, save_candidate_set, unit_centroids)
from frisim.pipeline import (ResultTable, design_artifacts, emit_table,
                             read_table, reproduce_scenario_a,
                             reproduce_scenario_b, run_ber, run_sweep)
from frisim.throughput import (ThroughputReport, evaluate_mode, net_throughput,
                               overhead_fraction)

__all__ = [
    "__version__",
    "ApertureGrid", "BerEstimate", "CandidateSet", "ChannelParams",
    "ChannelRealization", "Codebook", "ConfigError",
    "CouplingMatrix", "DistanceMatrix", "ExperimentConfig",
    "GranularityMode", "InfeasibleConstraintError", "MapProvenance",
    "ResponseMap", "ResultTable",
    "ThroughputReport", "UnitPartition",
    "build_grid", "build_response_map", "config_hash",
    "coupling_matrix", "design_artifacts", "draw_channel",
    "effective_size", "emit_table",
    "enumerate_candidates", "evaluate_mode",
    "layout_distances",
    "load_candidate_set", "load_codebook", "load_config", "load_response_map",
    "net_throughput", "noise_for_snr_db",
    "overhead_fraction", "pairwise_distances", "pairwise_error_prob",
    "partition", "q_function", "read_table", "reproduce_scenario_a",
    "reproduce_scenario_b", "run_ber", "run_sweep",
    "save_candidate_set", "save_codebook", "save_response_map",
    "select_layout_maxmin", "select_maxmin_exact", "select_maxmin_greedy",
    "select_random", "simulate_ber", "simulate_ber_curve", "union_bound",
    "unit_centroids",
]
