"""Deterministic derivation of independent random streams."""

from __future__ import annotations

import numpy as np

# Seed-path tags: the path element after the seed a stream derives from.
# Each random consumer has its own tag, so no two consumers share a stream.
# The values are part of every output's identity; changing one moves the CSVs.
TAG_CHANNEL = 1
TAG_MAP = 2
TAG_SELECT = 3
TAG_BER = 4
TAG_CANDIDATES = 5
TAG_SWEEP_SEEDS = 7
TAG_SWEEP_MAP = 11
TAG_SWEEP_BER = 12
TAG_SWEEP_CANDIDATES = 13


def derive_seed(*parts: int) -> int:
    """Collapse an integer path into a single RNG seed.

    Distinct paths give statistically independent streams; identical paths
    always give the same seed. Used to keep every random consumer (channel
    draws, map perturbations, selection, detection noise) on its own stream.
    """
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])
