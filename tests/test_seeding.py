"""``row_normals`` reproduces one ``default_rng([seed, i])`` per row."""

import numpy as np
import pytest

from frisim.channel import _add_calibration_noise
from frisim.seeding import row_normals

# 2**96 + 1 and 2**128 + 3 give five and six entropy words, more than
# SeedSequence's pool of four, so they run its extra-entropy loop.
SEEDS = [0, 2**32 - 1, 2**32, 2**64, 2**96 + 1, 2**128 + 3]


@pytest.mark.parametrize("rows", [1, 1024])
@pytest.mark.parametrize("seed", SEEDS)
def test_rows_equal_one_default_rng_per_row(seed, rows):
    got = row_normals(seed, rows, 8)
    assert got.shape == (rows, 8)
    for i in range(rows):
        assert np.array_equal(got[i], np.random.default_rng([seed, i]).standard_normal(8)), i


def test_a_negative_seed_raises_like_default_rng():
    with pytest.raises(ValueError):
        np.random.default_rng([-1, 0])
    with pytest.raises(ValueError):
        row_normals(-1, 4, 8)


def test_zero_calibration_variance_returns_the_values_untouched():
    values = np.arange(6, dtype=complex).reshape(3, 2)
    # No draw is made, so the seed is not read either.
    assert _add_calibration_noise(values, 0.0, seed=-1) is values
