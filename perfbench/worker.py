"""Workload process: imports frisim from the checkout, builds the workload's
inputs and runs study calls in a closed loop, one at a time, until the time
budget is spent. ``run.py`` starts it; it is not meant to be run by hand.

With ``--setup-only`` it prints ``ready`` once the inputs are built and exits.
An untraced run makes ``SETUP_LAUNCHES`` such launches, one at a time between
study calls and spread evenly over the time budget, and times each from start
to ``ready``; their median is ``setup_s``. With ``--trace 1`` the calls come in
pairs on the same pool entry, first untraced, then under the span tracer, so
the median of the paired wall-time differences is the tracing overhead.

Results go to ``<work>/calls.json``; the CSV artifacts of call ``i`` go to
``<work>/call-<i>``; spans of a traced run go to ``--spans`` as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

import frisim  # noqa: E402

if not Path(frisim.__file__).resolve().is_relative_to(SRC):
    raise SystemExit(f"frisim was imported from {frisim.__file__}, not from {SRC}")

import workloads  # noqa: E402

MIN_CALLS = 4  # at least two traced and two untraced calls in a traced run
SETUP_LAUNCHES = 20


def _cpu_seconds() -> float:
    """CPU time of this process (all threads) and of its reaped children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def time_setup(args) -> float:
    """Seconds from launching a fresh interpreter to it reporting ready."""
    command = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work", str(args.work / "setup"),
               "--spans", str(args.spans), "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"set-up launch exited with {code} before reporting ready")
    return ready


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload]
    order = workloads.plan(args.workload, args.seed)
    inputs = [workload.build_input(entry, args.work) for entry in order]
    if args.setup_only:
        print("ready", flush=True)
        return 0

    # Imported after the set-up exit, so that setup_s times frisim and the inputs only.
    from environment import numpy_record
    from tracing import Tracer

    tracer = Tracer() if args.trace else None
    calls = []
    setup = []
    start = time.perf_counter()
    deadline = start + args.seconds
    # Untraced runs launch a set-up process whenever one falls due on this schedule.
    setup_due = [] if tracer else [start + (j + 0.5) * args.seconds / SETUP_LAUNCHES
                                   for j in range(SETUP_LAUNCHES)]
    while (len(calls) < MIN_CALLS or time.perf_counter() < deadline
           or (tracer is not None and len(calls) % 2 == 1)):
        while len(setup) < len(setup_due) and time.perf_counter() >= setup_due[len(setup)]:
            setup.append(time_setup(args))
        i = len(calls)
        traced = tracer is not None and i % 2 == 1
        entry = i // 2 if tracer else i
        out = args.work / f"call-{i:03d}"
        error = None
        if traced:
            tracer.install()
        cpu0 = _cpu_seconds()
        wall0 = time.perf_counter()
        try:
            if traced:
                with tracer.span("study"):
                    workload.run(inputs[entry % len(inputs)], out)
            else:
                workload.run(inputs[entry % len(inputs)], out)
        except Exception:  # the gate counts the call's missing outputs as failed
            error = traceback.format_exc()
        wall = time.perf_counter() - wall0
        cpu = _cpu_seconds() - cpu0
        if traced:
            tracer.uninstall()
        calls.append({"entry": order[entry % len(order)], "dir": out.name, "wall_s": wall,
                      "cpu_s": cpu, "traced": traced, "error": error})

    while len(setup) < len(setup_due):
        setup.append(time_setup(args))

    result = {
        "calls": calls,
        "setup_s": setup,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy_record(),
        "layers": tracer.layer_stats() if tracer else {},
    }
    (args.work / "calls.json").write_text(json.dumps(result))
    if tracer is not None:
        args.spans.parent.mkdir(parents=True, exist_ok=True)
        with args.spans.open("w") as spans:
            for name, start, end, parent, request in tracer.spans:
                spans.write(json.dumps({"name": name, "start": start, "end": end,
                                        "parent": parent, "request": request}) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
