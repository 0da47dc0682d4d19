"""Alternating parent/change benchmark runs, summarised in one BENCH file.

    python3 tools/bench.py --parent <sha> --change HEAD --out BENCH_<n>.json

Extracts both commits' files with ``git archive`` into temporary directories
and runs ``BENCHMARK.json``'s command with ``--trace 0`` in each, on each of
its workloads for its ``run_seconds``, once per pair. Pair i runs at workload
seed i + 1 on both sides; even pairs run the parent first, odd pairs the
change first, so a drift of the host's speed over the session falls on both
sides alike. Each run's ``env`` line, study-call count and last JSON line are
parsed from its stdout, and its first gate or call problem from its stderr.
The output file records, per workload and side, every run (seed, exit code,
``env`` record, ``study_calls``, ``correct``, ``attempted``, ``failed``, its
metrics, and ``gate``: the first stderr line that starts with ``gate:`` or
``call ``, or None) and, per metric, the median and quartiles over the runs.
Per workload, ``compare`` holds the inputs of the claim rule for each of
``BENCHMARK.json``'s end-to-end metrics (see ``compare``). A run whose gate
fails (exit 1) is kept, and its ``gate`` line tells a pooled check that
tripped from a call that failed or raised; a run that prints no result
(exit 2) is kept without metrics. Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PAIRS = 10

# The summary line of a perfbench/run.py stdout: "<workload> seed <n>: <N> study calls, ..."
_STUDY_CALLS = re.compile(r"^\S+ seed -?\d+: (\d+) study calls", re.M)


def parse_run_output(stdout: str) -> tuple[dict | None, dict | None]:
    """The ``env`` record and the result of one ``perfbench/run.py`` stdout;
    either is None when the run did not print it."""
    env = result = None
    for line in stdout.splitlines():
        if line.startswith("env "):
            env = json.loads(line[len("env "):])
    lines = [line for line in stdout.splitlines() if line.strip()]
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if not isinstance(result, dict) or "metrics" not in result:
        result = None
    return env, result


def study_calls(stdout: str) -> int | None:
    """The study-call count a ``perfbench/run.py`` stdout reports, or None."""
    match = _STUDY_CALLS.search(stdout)
    return int(match.group(1)) if match else None


def gate_line(stderr: str) -> str | None:
    """The first stderr line of a run that reports a gate or call problem:
    one that starts with ``gate:`` (a pooled check failed) or ``call `` (one
    call failed a check or raised); None if there is none."""
    return next((line for line in stderr.splitlines()
                 if line.startswith(("gate:", "call "))), None)


def summarise(runs: list[dict]) -> dict:
    """Per metric: unit, median and quartiles over the runs that report it."""
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for run in runs:
        for name, metric in (run.get("metrics") or {}).items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    summary = {}
    for name, vals in values.items():
        q1, median, q3 = (statistics.quantiles(vals, n=4, method="inclusive")
                          if len(vals) > 1 else vals * 3)
        summary[name] = {"unit": units[name], "n": len(vals), "median": median,
                         "q1": q1, "q3": q3}
    return summary


def compare(parent: list[dict], change: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric that both sides report, pairing the i-th run of
    each side: the pairs the change won in the metric's ``better`` direction
    (a tie counts for neither side), the parent's interquartile range, the
    change's median minus the parent's, whether that moved the better way by
    more than the parent's IQR, and whether it moved the worse way by more
    than ``bound`` times the parent's median."""
    summary = {"parent": summarise(parent), "change": summarise(change)}
    out = {}
    for spec in end_to_end:
        name = spec["name"]
        if name not in summary["parent"] or name not in summary["change"]:
            continue
        sign = 1 if spec["better"] == "higher" else -1
        pairs = [(p["metrics"][name]["value"], c["metrics"][name]["value"])
                 for p, c in zip(parent, change)
                 if name in (p.get("metrics") or {}) and name in (c.get("metrics") or {})]
        base = summary["parent"][name]
        iqr = base["q3"] - base["q1"]
        delta = summary["change"][name]["median"] - base["median"]
        out[name] = {"pairs": len(pairs),
                     "pairs_won": sum(sign * (c - p) > 0 for p, c in pairs),
                     "parent_iqr": iqr,
                     "median_change": delta,
                     "gain_exceeds_iqr": sign * delta > iqr,
                     "worse_than_bound": -sign * delta > spec["bound"] * abs(base["median"])}
    return out


def _sha(rev: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), "rev-parse", rev], check=True,
                          capture_output=True, text=True).stdout.strip()


def _extract(sha: str, dest: Path) -> None:
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha], check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _run(checkout: Path, command: list[str], seed: int) -> dict:
    """One run's summary: seed, exit code, env record, study calls, result
    and first gate or call problem."""
    proc = subprocess.run([*command, "--seed", str(seed)], cwd=checkout,
                          capture_output=True, text=True)
    env, result = parse_run_output(proc.stdout)
    return {"seed": seed, "exit_code": proc.returncode, "env": env,
            "study_calls": study_calls(proc.stdout),
            **{key: (result or {}).get(key) for key in
               ("correct", "attempted", "failed", "metrics")},
            "gate": gate_line(proc.stderr)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", default="HEAD", help="git revision of the change")
    parser.add_argument("--out", required=True, type=Path, help="BENCH file to write")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [*spec["command"], "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = [pair + 1 for pair in range(PAIRS)]
    shas = {"parent": _sha(args.parent), "change": _sha(args.change)}
    runs = {w: {"parent": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="frisim-bench-") as tmp:
        checkouts = {side: Path(tmp) / side for side in shas}
        for side, sha in shas.items():
            _extract(sha, checkouts[side])
        for pair, seed in enumerate(seeds):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    run = _run(checkouts[side], [*command, "--workload", workload], seed)
                    runs[workload][side].append(run)
                    print(f"pair {pair} {workload} {side}: exit {run['exit_code']}, "
                          f"failed {run['failed']}", flush=True)
    record = {
        "command": command,
        "git": shas,
        "pairs": PAIRS,
        "seeds": seeds,
        "workloads": {w: {**{side: {"metrics": summarise(side_runs), "runs": side_runs}
                             for side, side_runs in sides.items()},
                          "compare": compare(sides["parent"], sides["change"],
                                             spec["end_to_end"])}
                      for w, sides in runs.items()},
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
