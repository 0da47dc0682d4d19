"""Pin the gate's reference outputs from the current source tree.

Runs every pool entry of every study once and writes
``reference/<study>.json``. Re-pin only on purpose, when a change is meant
to move design outputs, and say why in CHANGES.md.

    python3 perfbench/pin_reference.py
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import gate  # noqa: E402
import workloads  # noqa: E402
from environment import source_digest  # noqa: E402


def _ber_ops(layout: gate.BerLayout, call_dir: Path) -> list:
    errors: dict[tuple, list[int]] = {}
    for row in gate.read_csv(call_dir / layout.per_seed_csv):
        key = (int(row["seed"]), row["method"], row["mode"])
        errors.setdefault(key, []).append(int(row["errors"]))
    return [[int(row["seed"]), row["method"], row["mode"], float(row["d_min"]),
             errors[(int(row["seed"]), row["method"], row["mode"])]]
            for row in gate.read_csv(call_dir / layout.codebooks_csv)]


def _sweep_ops(layout: gate.SweepLayout, call_dir: Path, bases, trials: int) -> list:
    ops = []
    for base in bases:
        for row in gate.read_csv(call_dir / f"b{base}" / layout.sweep_csv):
            ops.append([base, row["mode"], int(row["K"]), int(row["K_eff"]),
                        float(row["raw_bits"]), float(row["overhead_fraction"]),
                        round(float(row["p_e"]) * trials)])
    return ops


def pin(name: str, scratch: Path) -> Path:
    study = workloads.STUDIES[name]
    layout = gate.LAYOUTS[name]
    trials = study.cell_trials
    entries = {}
    checks = []
    for entry in range(workloads.POOL_SIZE):
        call_dir = scratch / f"{name}-{entry:03d}"
        study.run(study.build_input(entry, scratch), call_dir)
        if isinstance(layout, gate.BerLayout):
            entries[entry] = _ber_ops(layout, call_dir)
        else:
            entries[entry] = _sweep_ops(layout, call_dir, study.base_seeds(entry),
                                        trials)
        reference = {"trials": trials, "entries": entries}
        check = gate.check_call(name, reference, entry, call_dir)
        if check.failed or not check.attempted:
            raise SystemExit(f"{name} entry {entry} fails its own reference: "
                             f"{check.problems[:3]}")
        checks.append(check)
        print(f"{name} entry {entry}: {check.attempted} operations", flush=True)
    problems = gate.run_problems(name, checks)
    if problems:
        raise SystemExit(f"{name} pool fails the pooled checks: {problems[:3]}")
    lines = [f'{{"study": "{name}", "trials": {trials}, '
             f'"source_sha256": "{source_digest()}", "entries": {{']
    lines.append(",\n".join(f'"{e}": {json.dumps(ops, separators=(",", ":"))}'
                            for e, ops in entries.items()))
    lines.append("}}")
    path = gate.REFERENCE_DIR / f"{name}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def main() -> int:
    scratch = Path(tempfile.mkdtemp(prefix="pin-", dir=HERE))
    try:
        for name in workloads.STUDIES:
            print(f"wrote {pin(name, scratch)}")
    finally:
        shutil.rmtree(scratch)
    return 0


if __name__ == "__main__":
    sys.exit(main())
