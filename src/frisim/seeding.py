"""Deterministic derivation of independent random streams."""

from __future__ import annotations

import operator

import numpy as np

# Seed-path tags: the path element after the seed a stream derives from.
# Each random consumer has its own tag. Every design draws a mode's candidates
# and map on TAG_CANDIDATES and TAG_MAP with the mode index, so the sweep's
# modes share only the TAG_SWEEP_BER detection streams. 11 and 13 are retired.
# The values are part of every output's identity; changing one moves the CSVs.
TAG_CHANNEL = 1
TAG_MAP = 2
TAG_SELECT = 3
TAG_BER = 4
TAG_CANDIDATES = 5
TAG_SWEEP_SEEDS = 7
TAG_SWEEP_BER = 12


def derive_seed(*parts: int) -> int:
    """Collapse an integer path into a single RNG seed.

    Distinct paths give statistically independent streams; identical paths
    always give the same seed. Used to keep every random consumer (channel
    draws, map perturbations, selection, detection noise) on its own stream.
    """
    return int(np.random.SeedSequence(list(parts)).generate_state(1)[0])


# NumPy's SeedSequence constants (numpy/random/bit_generator.pyx), a fixed
# part of its documented seeding algorithm.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1


def _hasher(init: int, mult: int):
    """SeedSequence's hashmix: xor, multiply and fold a uint32 array, with a
    multiplier that advances on every call whatever the data."""
    hash_const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * mult) & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return result ^ (result >> np.uint32(16))


def _seed_sequence_state(seed: int, rows: int) -> np.ndarray:
    """``SeedSequence([seed, i]).generate_state(8)`` for every i < rows,
    as an (8, rows) uint32 array, without building a SeedSequence per row.

    The entropy words are seed's little-endian uint32 words followed by i
    (one word for any row count that fits in memory). No hash constant
    depends on the data, so all rows run the same steps in lock-step.
    """
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    entropy = np.empty((len(words) + 1, rows), dtype=np.uint32)
    entropy[:-1] = np.array(words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(rows, dtype=np.uint32)

    # mix_entropy: hash the first words into the pool, mix every pool word
    # into every other, then mix in the words beyond the pool.
    hashmix = _hasher(_INIT_A, _MULT_A)
    zero = np.zeros(rows, dtype=np.uint32)
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = _mix(pool[i_dst], hashmix(pool[i_src]))
    for i_src in range(_POOL_SIZE, len(entropy)):
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = _mix(pool[i_dst], hashmix(entropy[i_src]))

    # generate_state: cycle through the pool under a second hash sequence.
    hashmix = _hasher(_INIT_B, _MULT_B)
    return np.stack([hashmix(pool[i % _POOL_SIZE]) for i in range(2 * _POOL_SIZE)])


def row_normals(seed: int, rows: int, n: int) -> np.ndarray:
    """(rows, n) standard normals whose row i is
    ``np.random.default_rng([seed, i]).standard_normal(n)``, bit for bit.

    Only the seeding is reproduced: the SeedSequence words of every row come
    from one array pass, each row's PCG64 state is set on one reused
    generator, and NumPy's own sampler draws the row. A negative seed raises
    ValueError, as ``default_rng`` does.
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    words = _seed_sequence_state(seed, rows).astype(np.uint64)
    # generate_state(4, uint64) pairs the words little-endian; PCG64 takes
    # words (0, 1) as the high and low halves of initstate, (2, 3) of initseq.
    halves = (words[0::2] | (words[1::2] << np.uint64(32))).tolist()
    bit_generator = np.random.PCG64(0)
    generator = np.random.Generator(bit_generator)
    out = np.empty((rows, n))
    # The state setter copies the values out, so one dict serves every row.
    pcg = {"state": 0, "inc": 0}
    full = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
    for row, s_hi, s_lo, q_hi, q_lo in zip(out, *halves):
        # PCG64's seeding: inc = 2 initseq + 1, then two LCG steps from 0
        # with initstate added between them.
        inc = ((((q_hi << 64) | q_lo) << 1) | 1) & _MASK128
        pcg["inc"] = inc
        pcg["state"] = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        bit_generator.state = full
        generator.standard_normal(out=row)
    return out
