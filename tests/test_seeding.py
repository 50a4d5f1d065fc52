"""Seed fan-out, and sample_positions: rng.sample(range(1, n + 1), k)
drawn in numpy from the stream's own words.

Every case compares the draw with the stdlib call on a twin of the
generator: the same positions in the same order, and the same generator
state afterwards, so whatever the stream draws next is unchanged too.
"""

import random

import numpy as np
import pytest

from ecds import seeding
from ecds.seeding import sample_positions

# (n, k): sample's pool branch (n at most its setsize), its set branch with
# k <= 5 and with larger k, k = 0 and k = n, n a power of two (half of
# each word's draws refused), composed-mc's random_flips size, n near 2^26,
# and n at and past 32 bits
CASES = [
    (1, 1), (10, 10), (30, 6), (100, 40), (21, 5),
    (22, 1), (22, 5), (1000, 3), (2**20, 5),
    (1000, 0), (0, 0), (5000, 0),
    (100, 20), (2048, 102), (5000, 1000), (2**20, 2000), (50_000, 16_000), (100_000, 20_000),
    (4_718_592, 23_592), (2**26 - 3, 20_000), (2**26 + 5, 3_000),
    (2**32 - 1, 50), (2**32, 50), (2**33 + 1, 7),
]


def check(n, k, seed):
    want, got = random.Random(seed), random.Random(seed)
    # a pending gauss value is part of the state, and survives the draw
    want.gauss(0, 1), got.gauss(0, 1)
    expected = want.sample(range(1, n + 1), k)
    drawn = sample_positions(got, n, k)
    assert drawn.dtype == np.int64
    assert drawn.tolist() == expected
    assert got.getstate() == want.getstate()
    assert got.random() == want.random()


@pytest.mark.parametrize("n, k", CASES, ids=["%d-%d" % c for c in CASES])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_draw_is_the_stdlib_sample(n, k, seed):
    check(n, k, seed)


def test_draw_continues_a_used_stream():
    """A stream part-way through its words, and through a block of 624,
    draws on from where it stands."""
    for skip in (1, 623, 624, 1000):
        want, got = random.Random(9), random.Random(9)
        for rng in (want, got):
            for _ in range(skip):
                rng.getrandbits(32)
        assert sample_positions(got, 4_718_592, 5_000).tolist() == want.sample(range(1, 4_718_593), 5_000)
        assert got.getstate() == want.getstate()


def test_draw_past_its_expected_words_is_the_stdlib_sample(monkeypatch):
    """Words are drawn for the expected count and a margin; a draw that
    needs more (forced here by expecting none) is the stdlib call on the
    untouched generator."""
    monkeypatch.setattr(seeding.math, "log1p", lambda x: 0.0)
    for seed in range(3):
        check(100_000, 1_000, seed)


def test_draw_from_a_subclass_is_its_own_sample():
    class Doubled(random.Random):
        def random(self):
            return super().random() / 2

    want, got = Doubled(3), Doubled(3)
    assert sample_positions(got, 10_000, 100).tolist() == want.sample(range(1, 10_001), 100)
    assert got.getstate() == want.getstate()


def test_bad_counts_are_the_stdlib_errors():
    for k in (-1, 11):
        with pytest.raises(ValueError):
            sample_positions(random.Random(0), 10, k)

