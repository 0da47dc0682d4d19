"""frisim benchmark: one workload, one closed-loop client, one JSON result.

    python3 perfbench/run.py --workload ber_study --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The workload runs in a fresh process
(``worker.py``) that imports frisim from ``src/``, builds the workload's inputs
from ``--seed`` and makes study calls one at a time, with no threads of its
own, until ``--seconds`` are spent. BLAS thread settings are left as the
environment has them: ``cpu_s`` is where spinning BLAS threads show.

Every call's CSV artifacts are checked by ``gate.py``. The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``, where
``attempted`` and ``failed`` count operations (``gate.py`` defines them). With
``--trace 0`` the metrics are the end-to-end ones, medians over study calls
and over the set-up launches spread through the run; with ``--trace 1`` they
are the per-layer ones, per traced study call. The
command exits 1 when the gate fails and 2 when it cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import environment
import gate
from tracing import layer_metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = tuple(gate.WORKLOADS)
WORKER_GRACE_S = 120  # time allowed beyond --seconds for start-up and the last call

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "trials_per_s": "1/s",
    "codebooks_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ops_ok_frac": "ratio",
}


def _layer_unit(name: str) -> str:
    stat = name.rsplit(".", 1)[1]
    return {"self_s": "s", "overhead_s": "s", "ns_per_trial": "ns", "yield": "ratio",
            "bytes_computed": "B", "bytes": "B"}.get(stat, "count")


def _worker_command(args, work: Path, spans: Path) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work), "--spans", str(spans)]


def check_calls(workload: str, calls: list[dict], work: Path) -> tuple[list, list[str]]:
    """Gate every call's artifacts, study by study.

    Returns one summed ``CallCheck`` per call, and the problems of the error
    counts pooled over the run, each study's on its own.
    """
    per_study = {}
    for study in gate.WORKLOADS[workload]:
        reference = gate.load_reference(study)
        per_study[study] = [
            gate.check_call(study, reference, c["entry"], work / c["dir"] / study)
            for c in calls]
    summed = []
    for parts in zip(*per_study.values()):
        total = gate.CallCheck()
        for part in parts:
            total.attempted += part.attempted
            total.failed += part.failed
            total.trials += part.trials
            total.codebooks += part.codebooks
            total.problems += part.problems
        summed.append(total)
    problems = [problem for study, checks in per_study.items()
                for problem in gate.run_problems(study, checks)]
    return summed, problems


def end_to_end_metrics(calls: list[dict], checks: list[gate.CallCheck], setup: list[float],
                       peak_rss_mb: float, attempted: int, failed: int) -> dict:
    timed = [(c, k) for c, k in zip(calls, checks) if not c["traced"]]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(c["wall_s"] for c, _ in timed),
        "cpu_s": statistics.median(c["cpu_s"] for c, _ in timed),
        "trials_per_s": statistics.median(k.trials / c["wall_s"] for c, k in timed),
        "codebooks_per_s": statistics.median(k.codebooks / c["wall_s"] for c, k in timed),
        "peak_rss_mb": peak_rss_mb,
        "ops_ok_frac": (attempted - failed) / attempted,
    }


def layer_metrics(calls: list[dict], layers: dict) -> dict:
    # Calls come in pairs on one pool entry: untraced, then traced.
    pairs = list(zip(calls[0::2], calls[1::2]))
    per_call = {name: layers.get(name, 0.0) / len(pairs) for name in layer_metric_names()}
    trials = layers.get("detection.simulate_ber.trials", 0.0)
    per_call["detection.simulate_ber.ns_per_trial"] = (
        1e9 * layers.get("detection.simulate_ber.self_s", 0.0) / trials if trials else 0.0)
    requested = layers.get("geometry.enumerate_candidates.requested", 0.0)
    per_call["geometry.enumerate_candidates.yield"] = (
        layers.get("geometry.enumerate_candidates.candidates", 0.0) / requested
        if requested else 0.0)
    per_call["trace.overhead_s"] = statistics.median(
        traced["wall_s"] - untraced["wall_s"] for untraced, traced in pairs)
    return per_call


def run(args) -> int:
    if not (ROOT / "src" / "frisim" / "__init__.py").is_file():
        print(f"error: no frisim sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        spans = HERE / "out" / f"spans-{args.workload}-{args.seed}.jsonl"
        subprocess.run(_worker_command(args, work, spans), check=True,
                       timeout=args.seconds + WORKER_GRACE_S)
        result = json.loads((work / "calls.json").read_text())
        calls = result["calls"]
        checks, run_problems = check_calls(args.workload, calls, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(k.attempted for k in checks)
    failed = sum(k.failed for k in checks)
    for problem in run_problems:
        print(f"gate: {problem}", file=sys.stderr)
    for call, check in zip(calls, checks):
        if call["error"]:
            print(f"call {call['dir']} raised:\n{call['error']}", file=sys.stderr)
        for problem in check.problems[:5]:
            print(f"call {call['dir']}: {problem}", file=sys.stderr)
    if args.trace:
        values = layer_metrics(calls, result["layers"])
        units = {name: _layer_unit(name) for name in values}
    else:
        values = end_to_end_metrics(calls, checks, result["setup_s"], result["peak_rss_mb"],
                                    attempted, failed)
        units = END_TO_END_UNITS

    record = {**environment.host_record(), **result["numpy"]}
    print("env " + json.dumps(record, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(calls)} study calls, "
          f"{attempted} operations, {failed} failed "
          f"(ops_failed_frac {failed / max(attempted, 1):.4g})")
    for name, value in values.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]}")
    correct = failed == 0 and attempted > 0 and not run_problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        return run(args)
    except (OSError, RuntimeError, subprocess.SubprocessError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
