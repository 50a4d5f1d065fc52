"""Corruption patterns, probe accounting, and exact decode-error enumeration."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecds.bits import BitString
from ecds.errors import EnumerationLimitError, ParameterError, ProbeBudgetError
from ecds.oracle import (
    Codeword,
    CorruptionPattern,
    ProbeOracle,
    Scheme,
    corrupt,
    exact_error,
    probe_mass,
)
from helpers import RecordingOracle


def test_corrupt_frozen_example():
    word = Codeword(BitString.zeros(8))
    pattern = CorruptionPattern([2, 5])
    assert corrupt(word, pattern).to01() == "01001000"


def test_corrupt_is_involution():
    rng = random.Random(3)
    word = Codeword(BitString.random(40, rng))
    pattern = CorruptionPattern(rng.sample(range(1, 41), 7))
    once = corrupt(word, pattern)
    twice = corrupt(Codeword(once), pattern)
    assert twice == word.bits
    assert once != word.bits


def test_pattern_validation_and_budget():
    with pytest.raises(ParameterError):
        CorruptionPattern([0])
    with pytest.raises(ParameterError):
        CorruptionPattern([-3])
    assert CorruptionPattern.budget(0.1, 100) == 10
    assert CorruptionPattern.budget(0.01, 99) == 0
    assert CorruptionPattern.budget(0.0, 1000) == 0
    # floor, never round
    assert CorruptionPattern.budget(0.05, 59) == 2


@pytest.mark.parametrize("delta", [True, False, "0.1", None, [0.1], float("nan"), -0.1, 1.5])
def test_budget_refuses_rates_that_are_not_numbers_in_range(delta):
    """A bool (once read as the rate 1 or 0), a string, a missing rate or
    one outside [0, 1] is refused; any real number in range is taken."""
    with pytest.raises(ParameterError, match="not a number in"):
        CorruptionPattern.budget(delta, 8)
    assert [CorruptionPattern.budget(d, 8) for d in (1, Fraction(1, 2), np.float64(0.25))] == [8, 4, 2]


@pytest.mark.parametrize(
    "flips, positions",
    [
        ([3, 1, 2], (1, 2, 3)),
        ((2, 2, 1), (1, 2)),
        ({5, 4}, (4, 5)),
        (frozenset({7}), (7,)),
        ((j for j in (9, 8)), (8, 9)),
        (range(1, 4), (1, 2, 3)),
        ([], ()),
        (np.array([4, 2], dtype=np.int64), (2, 4)),
        (np.array([4, 2], dtype=np.uint8), (2, 4)),
        ([np.int64(3), 5], (3, 5)),  # numpy integers, as numpy arrays
        ([True, 2], (1, 2)),  # bools are ints in Python: True is position 1
        ([2**62], (2**62,)),
    ],
    ids=[
        "list", "tuple-duplicates", "set", "frozenset", "generator", "range", "empty",
        "int64-array", "uint8-array", "numpy-int-scalars", "bool", "large-int",
    ],
)
def test_pattern_accepts_integer_positions(flips, positions):
    p = CorruptionPattern(flips)
    assert p.positions == positions
    assert p.flips == frozenset(positions)
    assert p.array.dtype == np.int64 and not p.array.flags.writeable
    assert p == CorruptionPattern(list(positions))
    assert hash(p) == hash(CorruptionPattern(list(positions)))


@pytest.mark.parametrize(
    "flips",
    [
        [1.0],
        [2, 1.5],
        ["1"],
        "12",
        [0],
        [-3],
        [1, None],
        [[1, 2]],
        [[1], [2, 3]],
        [2**70],
        [2**63],
        5,
        None,
        np.array([1.0]),
        np.array([0, 1]),
        np.array([[1, 2]]),
        np.array([2**63], dtype=np.uint64),
        np.array(["1"]),
    ],
    ids=[
        "float", "mixed-float", "string", "text", "zero", "negative", "none-inside",
        "nested", "ragged", "beyond-int64", "int64-overflow", "not-iterable", "none",
        "float-array", "zero-array", "2d-array", "uint64-overflow", "string-array",
    ],
)
def test_pattern_refuses_non_positions(flips):
    with pytest.raises(ParameterError):
        CorruptionPattern(flips)


def test_pattern_fits():
    p = CorruptionPattern([1, 5, 9])
    assert p.weight == 3
    assert p.fits(9)
    assert not p.fits(8)
    assert p.fits(100, delta=0.03)
    assert not p.fits(100, delta=0.02)
    assert 5 in p and 4 not in p


def test_pattern_random_respects_count():
    rng = random.Random(11)
    p = CorruptionPattern.random(50, 6, rng)
    assert p.weight == 6
    assert all(1 <= j <= 50 for j in p.positions)


@pytest.mark.parametrize("n, count", [(50, 6), (4096, 200), (4_718_592, 23_592)])
def test_pattern_random_is_the_stdlib_sample(n, count):
    a, b = random.Random(n), random.Random(n)
    assert CorruptionPattern.random(n, count, a).positions == tuple(sorted(b.sample(range(1, n + 1), count)))
    assert a.getstate() == b.getstate()


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.integers(1, 40), max_size=60),
    st.sampled_from([np.int64, np.int32, np.uint16, list]),
)
def test_pattern_of_unsorted_repeats_sorts_and_drops_them(positions, kind):
    """Sorted in a copy, each position once; the caller's array is left
    as it was."""
    given_ = positions if kind is list else np.array(positions, dtype=kind)
    before = list(positions)
    p = CorruptionPattern(given_)
    assert p.positions == tuple(sorted(set(positions)))
    assert list(given_) == before
    assert p.array.dtype == np.int64 and not p.array.flags.writeable


def test_probe_reads_corrupted_word():
    word = Codeword(BitString.from01("1010"))
    oracle = ProbeOracle(word, CorruptionPattern([1]), budget=4)
    assert [oracle.probe(j) for j in (1, 2, 3, 4)] == [0, 0, 1, 0]


def test_probe_budget_enforced():
    word = Codeword(BitString.from01("1111"))
    oracle = ProbeOracle(word, CorruptionPattern.empty(), budget=2)
    oracle.probe(1)
    oracle.probe(2)
    with pytest.raises(ProbeBudgetError):
        oracle.probe(3)
    assert oracle.used == 2


def test_probe_out_of_range():
    oracle = ProbeOracle(Codeword(BitString.from01("10")), CorruptionPattern.empty(), 5)
    with pytest.raises(ParameterError):
        oracle.probe(0)
    with pytest.raises(ParameterError):
        oracle.probe(3)


def test_recording_oracle_trace():
    word = Codeword(BitString.from01("0110"))
    oracle = RecordingOracle(word, CorruptionPattern.empty(), budget=3)
    oracle.probe(2)
    oracle.probe(4)
    assert oracle.trace == [2, 4]


class ParityToy(Scheme):
    """Stores x as two copies of its parity; decodes by one fair probe."""

    def __init__(self, x: BitString):
        self.x = x
        bit = x.weight & 1
        self._word = Codeword(BitString.from01("%d%d" % (bit, bit)))

    @property
    def codeword(self):
        return self._word

    def probe_budget(self, query):
        return 1

    def coin_radices(self, query):
        return (2,)

    def plan(self, query, coins):
        return coins[:, :1] + 1, lambda bits: bits[:, 0]

    def truth(self, query):
        return self.x.weight & 1

    def queries(self):
        return [None]


def test_exact_error_enumerates_coins():
    toy = ParityToy(BitString.from01("101"))
    assert exact_error(toy, None, CorruptionPattern.empty()) == Fraction(0)
    assert exact_error(toy, None, CorruptionPattern([1])) == Fraction(1, 2)
    assert exact_error(toy, None, CorruptionPattern([1, 2])) == Fraction(1)


def test_probe_distribution_uniform_toy():
    toy = ParityToy(BitString.from01("1"))
    # one slot, used by both coins, each reading its own position
    mass = probe_mass(toy, None)
    assert mass.dtype == np.int64
    assert mass.tolist() == [1, 1]
    assert mass.sum() == toy.coin_count(None)


class HugeCoinToy(ParityToy):
    def coin_radices(self, query):
        return (2**21,)


def test_enumeration_limit_guard():
    toy = HugeCoinToy(BitString.from01("1"))
    with pytest.raises(EnumerationLimitError):
        exact_error(toy, None, CorruptionPattern.empty())


def test_scheme_default_sampler_uses_coin_index():
    toy = ParityToy(BitString.from01("11"))
    rng = random.Random(0)
    seen = {toy.sample_coins(None, rng) for _ in range(50)}
    assert seen == {(0,), (1,)}


def test_scheme_oracle_helper_applies_budget():
    toy = ParityToy(BitString.from01("1"))
    oracle = toy.oracle(CorruptionPattern.empty(), None)
    oracle.probe(1)
    with pytest.raises(ProbeBudgetError):
        oracle.probe(2)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 30), st.data())
def test_corrupt_flips_exactly_pattern(n, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    word = Codeword(BitString.random(n, rng))
    k = data.draw(st.integers(0, n))
    pattern = CorruptionPattern(rng.sample(range(1, n + 1), k))
    noisy = corrupt(word, pattern)
    diff = noisy ^ word.bits
    assert diff.support() == pattern.positions
