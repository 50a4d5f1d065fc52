"""Probe plans: the batch route agrees with the scalar oracle route.

Each decoder is one probe plan, read two ways: a single decode reads the
planned positions one by one through a ProbeOracle, and measurement reads
chunks of coin rows at once from the served word.  For every coin of
small instances of all eight decoders, under the empty pattern and a
random one, both routes must read the same positions and give the same
answer, and exact_error must equal the per-coin tally.
"""

import random
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecds.bits import BitString, BoundedWeightSpace
from ecds.errors import ParameterError, ProbeBudgetError
from ecds.hadamard import (
    EqualityScheme,
    HadamardIp,
    MajorityAmplified,
    RandomLinearCode,
    xor_all,
)
from ecds.harness import estimate_error
from ecds.inner_product import PolySharedIp, SubstringHadamard, TableIp
from ecds.membership import BlockCodedMembership, OneProbeMembership
from ecds.oracle import (
    Codeword,
    CorruptionPattern,
    Scheme,
    coin_chunks,
    corrupt,
    exact_error,
    probe_mass,
    read_plan,
)
from helpers import RecordingOracle


def _bits(text):
    return BitString.from01(text)


def _all(n):
    return [BitString.from_int(n, v) for v in range(1 << n)]


@lru_cache(maxsize=None)
def _built_composed():
    return BlockCodedMembership.build(16, 1, eps=0.4, a=5, b=40, seed=0)


def _hand_composed():
    # index 1's two elements share block 1, so it has no good block and
    # the block decoder always answers its fallback coin
    base = OneProbeMembership(
        n=2, s=1, eps=0.4, probe_sets=[(1, 2), (5, 7)], n_prime=8
    )
    return BlockCodedMembership(2, base, list(range(8)), a=2)


def _member():
    return OneProbeMembership.build(8, 1, eps=0.3, seed=0)


X = _bits("101")
# (name, scheme factory, queries): small enough to enumerate every coin
INSTANCES = [
    ("had-ip", lambda: HadamardIp(X), _all(3)),
    ("equality-balanced", lambda: EqualityScheme(X), _all(3)),
    ("equality-raw", lambda: EqualityScheme(X, balanced=False), _all(3)),
    (
        "equality-linear",
        lambda: EqualityScheme(X, code=RandomLinearCode(3, 7, rng=random.Random(2))),
        _all(3),
    ),
    ("ip-table", lambda: TableIp(_bits("1011"), 3, 2), list(BoundedWeightSpace(4, 3))),
    ("ip-poly", lambda: PolySharedIp(_bits("1011"), 1, 3), list(BoundedWeightSpace(4, 1))),
    (
        "substring-t3",
        lambda: SubstringHadamard(_bits("1011"), 2, t=3),
        [_bits("0000"), _bits("0010"), _bits("1001")],
    ),
    ("membership-1p", lambda: _member().instance(BitString.from_indices(8, [3])), [1, 3, 8]),
    (
        "composed-block",
        lambda: _built_composed().instance(BitString.from_indices(16, [2]), decoder="block"),
        [1, 2],
    ),
    (
        "composed-direct",
        lambda: _built_composed().instance(BitString.from_indices(16, [2]), decoder="direct"),
        [1, 2],
    ),
    (
        "composed-hand-block",
        lambda: _hand_composed().instance(_bits("10"), decoder="block"),
        [1, 2],
    ),
    (
        "composed-hand-direct",
        lambda: _hand_composed().instance(_bits("10"), decoder="direct"),
        [1, 2],
    ),
    ("majority-had-ip", lambda: MajorityAmplified(HadamardIp(_bits("10")), 3), _all(2)),
    (
        "majority-equality",
        lambda: MajorityAmplified(EqualityScheme(_bits("10"), balanced=False), 3),
        _all(2),
    ),
]


def cross_check(scheme, query, pattern):
    """Both routes on every coin; returns the per-coin wrong tally."""
    count = scheme.coin_count(query)
    word = corrupt(scheme.codeword, pattern)
    truth = scheme.truth(query)
    budget = scheme.probe_budget(query)
    idx = wrong = 0
    for rows in coin_chunks(scheme.coin_radices(query), count):
        positions, answers = read_plan(scheme, query, rows, word)
        assert len(positions) == len(rows) and positions.shape[1] <= budget
        for row, planned, batch in zip(rows, positions, answers):
            coins = scheme.coin_from_index(query, idx)
            assert tuple(int(d) for d in row) == coins
            oracle = RecordingOracle(scheme.codeword, pattern, budget)
            scalar = scheme.decode_with_coins(oracle, query, coins)
            assert scheme.answer(query, batch) == scalar
            assert oracle.trace == [int(j) for j in planned if j]
            assert oracle.used == np.count_nonzero(planned)
            wrong += scalar != truth
            idx += 1
    assert idx == count
    return Fraction(wrong, count)


@pytest.mark.parametrize("name, make, queries", INSTANCES, ids=[i[0] for i in INSTANCES])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.0, 0.5))
def test_batch_route_matches_oracle_route(name, make, queries, seed, fraction):
    scheme = make()
    n = scheme.codeword.n
    rng = random.Random(seed)
    for pattern in (
        CorruptionPattern.empty(),
        CorruptionPattern.random(n, int(fraction * n), rng),
    ):
        for query in queries:
            tally = cross_check(scheme, query, pattern)
            assert exact_error(scheme, query, pattern) == tally


@pytest.mark.parametrize("name, make, queries", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_default_wrong_counts_match_coin_tally(name, make, queries):
    """Scheme.wrong_counts, the greedy adversary's objective, counts
    exactly what decoding every coin through the oracle counts, and
    refuses (None) exactly the queries whose coin space exceeds limit."""
    scheme = make()
    rng = random.Random(name)
    counts = [scheme.coin_count(q) for q in queries]
    for pattern in (
        CorruptionPattern.empty(),
        CorruptionPattern.random(scheme.codeword.n, scheme.codeword.n // 8, rng),
    ):
        tally = [
            sum(
                scheme.decode_with_coins(scheme.oracle(pattern, q), q, scheme.coin_from_index(q, i))
                != scheme.truth(q)
                for i in range(count)
            )
            for q, count in zip(queries, counts)
        ]
        counted = list(zip(counts, tally))
        assert Scheme.wrong_counts(scheme, queries, pattern, max(counts)) == counted
        assert scheme.wrong_counts(queries, pattern, max(counts)) == counted
        for limit in sorted(set(counts) | {c - 1 for c in counts}):
            got = Scheme.wrong_counts(scheme, queries, pattern, limit)
            assert got == [(c, w) if c <= limit else None for w, c in zip(tally, counts)]


def trace_tally(scheme, query):
    """Reads per position over every coin, traced through the oracle on
    the clean word, entry j - 1 for position j."""
    tally = np.zeros(scheme.codeword.n, dtype=np.int64)
    for idx in range(scheme.coin_count(query)):
        oracle = RecordingOracle(scheme.codeword, CorruptionPattern.empty(), scheme.probe_budget(query))
        scheme.decode_with_coins(oracle, query, scheme.coin_from_index(query, idx))
        np.add.at(tally, np.array(oracle.trace, dtype=np.int64) - 1, 1)
    return tally


@pytest.mark.parametrize("name, make, queries", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_probe_mass_matches_trace_tally(name, make, queries):
    scheme = make()
    for query in queries:
        mass = probe_mass(scheme, query)
        assert mass.dtype == np.int64 and mass.shape == (scheme.codeword.n,)
        assert mass.tolist() == trace_tally(scheme, query).tolist()


def test_probe_mass_spread():
    # had-ip: each position read by exactly 2 of the 2^s coins, for every y
    sch = HadamardIp(X)
    for y in _all(3):
        assert probe_mass(sch, y).tolist() == [2] * 8
    # mem-1p: each position of P_i read once, nothing else
    inst = _member().instance(BitString.from_indices(8, [3]))
    for i in (1, 3, 8):
        expect = np.zeros(inst.codeword.n, dtype=np.int64)
        expect[np.array(inst.structure.probe_set(i)) - 1] = 1
        assert probe_mass(inst, i).tolist() == expect.tolist()


def test_probe_distribution_skips_unread_slots():
    # no good block for index 1: the block decoder never reads
    inst = _hand_composed().instance(_bits("10"), decoder="block")
    assert not probe_mass(inst, 1).any()
    # index 2's good blocks 3 and 4: half its 32 coins read two positions there
    assert probe_mass(inst, 2).tolist() == [0] * 8 + [4] * 8


class PlanToy(Scheme):
    """Reads fixed positions of a 4-bit word, whatever its budget says."""

    name = "plan-toy"

    def __init__(self, positions, budget):
        self.positions = np.array(positions, dtype=np.int64)
        self.budget = budget
        self._word = Codeword(_bits("1010"))

    @property
    def codeword(self):
        return self._word

    def probe_budget(self, query):
        return self.budget

    def coin_radices(self, query):
        return (2,)

    def plan(self, query, coins):
        return np.tile(self.positions, (len(coins), 1)), xor_all

    def truth(self, query):
        return 0


@pytest.mark.parametrize(
    "positions, budget, error",
    [
        ([1, 2, 3], 2, ProbeBudgetError),
        ([5], 1, ParameterError),
        ([-1], 1, ParameterError),
    ],
    ids=["past-budget", "past-end", "negative"],
)
def test_batch_route_refuses_bad_plans(positions, budget, error):
    toy = PlanToy(positions, budget)
    empty = CorruptionPattern.empty()
    with pytest.raises(error):
        exact_error(toy, None, empty)
    with pytest.raises(error):
        probe_mass(toy, None)
    with pytest.raises(error):
        estimate_error(toy, queries=[None], trials=10, exact_limit=1)
    with pytest.raises(error):
        toy.decode_with_coins(toy.oracle(empty, None), None, (0,))


def test_substring_answers_past_62_bits():
    # a 65-bit answer leaves int64: both routes carry it as a python int
    x = BitString.random(130, random.Random(4))
    sch = SubstringHadamard(x, 65)
    query = BitString.from_indices(130, range(1, 66))
    coins = sch.sample_coins(query, random.Random(5))
    assert sch.decode_with_coins(sch.oracle(query=query), query, coins) == sch.truth(query)
    rep = estimate_error(sch, queries=[query], trials=50, exact_limit=1)
    assert rep.results[0].wrong == 0
