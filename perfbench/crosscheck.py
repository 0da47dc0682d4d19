"""One-time cross-check of ber_study layer shares against the re-anchor profile
in ROADMAP.md (scenario A, 40 seeds: 8.1 s, simulate_ber 73 %,
pairwise_distances 14 %).

    python3 perfbench/crosscheck.py

Runs scenario A at full depth once untraced, then once traced, in one fresh
process, and prints wall times and each layer's share of the traced wall time.
"""

from __future__ import annotations

import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from frisim.pipeline import reproduce_scenario_a  # noqa: E402

from environment import host_record, numpy_record  # noqa: E402
from tracing import Tracer  # noqa: E402

SEEDS = 40  # the seed count of the profile
PROFILE = {"wall_s": 8.1, "detection.simulate_ber": 0.73, "codebook.pairwise_distances": 0.14}


def main() -> int:
    with tempfile.TemporaryDirectory(dir=HERE) as out:
        start = time.perf_counter()
        reproduce_scenario_a(Path(out) / "plain", seed_count=SEEDS)
        untraced = time.perf_counter() - start
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            with tracer.span("study"):
                reproduce_scenario_a(Path(out) / "traced", seed_count=SEEDS)
            traced = time.perf_counter() - start
        finally:
            tracer.uninstall()
    stats = tracer.layer_stats()
    print(f"env {host_record() | numpy_record()}")
    print(f"scenario A, {SEEDS} seeds: untraced {untraced:.2f} s, traced {traced:.2f} s "
          f"(profile {PROFILE['wall_s']} s)")
    shares = sorted(((v / traced, k[:-len('.self_s')]) for k, v in stats.items()
                     if k.endswith(".self_s") and not k.startswith("study.")), reverse=True)
    for share, name in shares[:8]:
        profile = PROFILE.get(name)
        note = f"  (profile {profile:.0%})" if profile is not None else ""
        print(f"  {name:<36} {share:7.1%}{note}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
