"""Span tracer for the per-layer run, applied from outside the package.

``Tracer.install`` replaces each public function listed in ``LAYERS`` with a
wrapper that records a span (name, start, end, parent). frisim modules import
these functions by name, so the wrapper replaces the binding in every
``frisim.*`` module that holds the original, not only the defining one.
Spans stay in memory; ``layer_stats`` folds them into per-function call
counts and self times (span duration minus the time its child spans cover).

Counts are taken at the same boundaries, from arguments and results only:

* ``geometry.enumerate_candidates.candidates`` and ``yield`` (candidates
  returned over ``m_samples`` requested);
* ``codebook.pairwise_distances.pairs`` (M (M - 1) / 2) and
  ``bytes_computed``, computed as M * M * R * 16 bytes of complex differences
  plus M * M * 8 bytes of float64 output. It is not a measured byte count;
* ``detection.simulate_ber.trials`` and ``ns_per_trial`` (self time per trial);
* ``channel.build_response_map.rows``;
* ``pipeline.emit_table.bytes`` (size of the file written).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict

LAYERS = {
    "geometry": ("enumerate_candidates",),
    "channel": ("build_response_map", "draw_channel", "coupling_matrix"),
    "codebook": ("pairwise_distances", "select_maxmin_greedy", "select_layout_maxmin",
                 "select_random", "layout_distances", "effective_size"),
    "detection": ("simulate_ber", "noise_for_snr_db"),
    "throughput": ("evaluate_mode",),
    "pipeline": ("run_ber", "run_sweep", "emit_table"),
    "config": ("load_config",),
    "seeding": ("derive_seed",),
}


def _arg(args, kwargs, position: int, name: str):
    return kwargs[name] if name in kwargs else args[position]


def _count_enumerate(counts, args, kwargs, result) -> None:
    counts["geometry.enumerate_candidates.candidates"] += len(result)
    counts["geometry.enumerate_candidates.requested"] += _arg(args, kwargs, 2, "m_samples")


def _count_distances(counts, args, kwargs, result) -> None:
    m = result.size
    r = _arg(args, kwargs, 0, "response_map").values.shape[1]
    counts["codebook.pairwise_distances.pairs"] += m * (m - 1) // 2
    counts["codebook.pairwise_distances.bytes_computed"] += m * m * r * 16 + m * m * 8


def _count_simulate(counts, args, kwargs, result) -> None:
    counts["detection.simulate_ber.trials"] += result.trials


def _count_map(counts, args, kwargs, result) -> None:
    counts["channel.build_response_map.rows"] += len(result)


def _count_emit(counts, args, kwargs, result) -> None:
    counts["pipeline.emit_table.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


COUNTERS = {
    "geometry.enumerate_candidates": _count_enumerate,
    "codebook.pairwise_distances": _count_distances,
    "detection.simulate_ber": _count_simulate,
    "channel.build_response_map": _count_map,
    "pipeline.emit_table": _count_emit,
}


def layer_metric_names() -> list[str]:
    """Every per-layer metric the traced run reports, in a fixed order."""
    names = []
    for module, functions in LAYERS.items():
        for function in functions:
            names += [f"{module}.{function}.calls", f"{module}.{function}.self_s"]
    names += ["detection.simulate_ber.trials", "detection.simulate_ber.ns_per_trial",
              "codebook.pairwise_distances.pairs",
              "codebook.pairwise_distances.bytes_computed",
              "channel.build_response_map.rows",
              "geometry.enumerate_candidates.candidates",
              "geometry.enumerate_candidates.yield",
              "pipeline.emit_table.bytes"]
    return names


class Tracer:
    """Records spans and counts while installed; ``uninstall`` restores frisim."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, request id]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.request = -1

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "frisim" or name.startswith("frisim."))]
        for module_name, functions in LAYERS.items():
            home = importlib.import_module(f"frisim.{module_name}")
            for function in functions:
                original = getattr(home, function)
                span_name = f"{module_name}.{function}"
                wrapper = self._wrap(span_name, original, COUNTERS.get(span_name))
                for module in modules:
                    if getattr(module, function, None) is original:
                        self._saved.append((module, function, original))
                        setattr(module, function, wrapper)

    def uninstall(self) -> None:
        for module, function, original in reversed(self._saved):
            setattr(module, function, original)
        self._saved.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark itself opens around one study call (one request)."""
        self.request += 1
        index = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, start, time.perf_counter())

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self.request])
        self._stack.append(index)
        return index

    def _close(self, index: int, start: float, end: float) -> None:
        self._stack.pop()
        self.spans[index][1] = start
        self.spans[index][2] = end

    def _wrap(self, name, function, counter):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self._open(name)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                self._close(index, start, time.perf_counter())
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result
        return traced

    def layer_stats(self) -> dict[str, float]:
        """Totals over every recorded span: calls and self seconds per function."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        stats: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), children in zip(self.spans, child_time):
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += (end - start) - children
        stats.update(self.counts)
        return dict(stats)

