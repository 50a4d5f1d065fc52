"""Pair-read counts: every Hadamard pair-read decoder's wrong_counts
equals the per-coin tally.

had-ip, substring extraction and composed membership (both decoders)
each describe their decoder once, as the pair reads of a query
(`PairReadScheme.reads`); the shared PairReadScheme derives the probe
budget, the coin digits, the plan and the exact wrong counts from that
description, counting the wrong coins in closed form instead of
enumerating them, which is what makes them exact past the enumeration
limit.  Majority amplification counts from its inner scheme's counts.
On every query of small instances, under the empty pattern, random
patterns and the killer patterns, each count must equal the tally of
decoding every coin through the probe plan (count_wrong over
coin_chunks; tests/test_plan.py ties that route to the scalar oracle),
also when the queries come as a one-pass iterator.  exact_error past
its limit must route to the same count.
"""

import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecds import hadamard
from ecds.bits import BitString
from ecds.errors import ParameterError
from ecds.hadamard import HadamardIp, MajorityAmplified, pair_read_counter
from ecds.harness import AdversaryStrategy, attack, estimate_error
from ecds.inner_product import SubstringHadamard
from ecds.membership import BlockCodedMembership, ComposedInstance, OneProbeMembership
from ecds.oracle import CorruptionPattern, coin_chunks, corrupt, count_wrong, exact_error


def _bits(text):
    return BitString.from01(text)


def _all(n):
    return [BitString.from_int(n, v) for v in range(1 << n)]


@lru_cache(maxsize=None)
def _built_composed():
    return BlockCodedMembership.build(16, 1, eps=0.4, a=5, b=40, seed=0)


def _hand_composed():
    # index 1's two elements share block 1: no good block, only fallbacks
    base = OneProbeMembership(n=2, s=1, eps=0.4, probe_sets=[(1, 2), (5, 7)], n_prime=8)
    return BlockCodedMembership(2, base, list(range(8)), a=2)


SUB_X = _bits("101101")
# weights 1 to 3, bits in one piece and in several
SUB_QUERIES = [_bits(q) for q in ("100000", "000001", "110000", "011000", "100101")]
# (name, scheme factory, queries): every coin of these is enumerated
INSTANCES = [
    ("had-ip", lambda: HadamardIp(_bits("1011")), _all(4)),
    (
        "composed-block",
        lambda: _built_composed().instance(BitString.from_indices(16, [2]), decoder="block"),
        list(range(1, 17)),
    ),
    (
        "composed-direct",
        lambda: _built_composed().instance(BitString.from_indices(16, [2]), decoder="direct"),
        list(range(1, 17)),
    ),
    ("composed-hand-block", lambda: _hand_composed().instance(_bits("10"), "block"), [1, 2]),
    ("composed-hand-direct", lambda: _hand_composed().instance(_bits("10"), "direct"), [1, 2]),
    ("substring-t1", lambda: SubstringHadamard(SUB_X, 3, t=1), SUB_QUERIES),
    ("substring-t3", lambda: SubstringHadamard(SUB_X, 3, t=3), SUB_QUERIES),
    ("majority-had-ip", lambda: MajorityAmplified(HadamardIp(_bits("101")), 3), _all(3)),
    (
        "majority-substring",
        lambda: MajorityAmplified(SubstringHadamard(SUB_X, 3), 3),
        [_bits(q) for q in ("000000", "100000", "010000", "001000", "000001")],
    ),
]


def coin_tally(scheme, queries, pattern):
    """Wrong coins per query, by decoding every coin through the plan."""
    word = corrupt(scheme.codeword, pattern)
    return [
        count_wrong(scheme, q, coin_chunks(scheme.coin_radices(q), scheme.coin_count(q)), word)
        for q in queries
    ]


def check_counts(scheme, queries, pattern):
    tally = coin_tally(scheme, queries, pattern)
    # limit 0: nothing may be enumerated, so the counts are the override's
    assert scheme.wrong_counts(queries, pattern, 0) == tally
    # queries read once, as from a generator
    assert scheme.wrong_counts(iter(queries), pattern, 0) == tally
    assert [exact_error(scheme, q, pattern, limit=0) for q in queries] == [
        Fraction(w, scheme.coin_count(q)) for q, w in zip(queries, tally)
    ]


def killer_patterns(scheme, queries):
    """Each structure-specific killer aimed at the first two and the last
    query, and a greedy climb, at a small and a large budget."""
    n = scheme.codeword.n
    for budget in (max(1, n // 16), n // 4):
        for kind in scheme.attacks:
            for q in queries[:2] + queries[-1:]:
                yield attack(AdversaryStrategy(kind=kind, budget=budget), scheme, q)
        greedy = AdversaryStrategy(kind="greedy_local", budget=budget, seed=3, eval_proposals=8)
        yield attack(greedy, scheme, queries[-1])


@pytest.mark.parametrize("name, make, queries", INSTANCES, ids=[i[0] for i in INSTANCES])
@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), fraction=st.floats(0.0, 0.6))
def test_counts_match_coin_tally_random_patterns(name, make, queries, seed, fraction):
    scheme = make()
    n = scheme.codeword.n
    check_counts(scheme, queries, CorruptionPattern.empty())
    pattern = CorruptionPattern.random(n, int(fraction * n), random.Random(seed))
    check_counts(scheme, queries, pattern)


@pytest.mark.parametrize("name, make, queries", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_counts_match_coin_tally_killer_patterns(name, make, queries):
    scheme = make()
    for pattern in killer_patterns(scheme, queries):
        check_counts(scheme, queries, pattern)


@pytest.mark.parametrize("cls", [HadamardIp, SubstringHadamard, ComposedInstance])
def test_pair_read_decoders_describe_only_their_reads(cls):
    """Each pair-read decoder states its reads and nothing the reads
    determine: budget, coin digits, plan and counts come from
    PairReadScheme alone, and so does the greedy climb's swap scorer."""
    assert "reads" in vars(cls)
    derived = ("plan", "wrong_counts", "swap_counts", "coin_radices", "probe_budget")
    assert [name for name in derived if name in vars(cls)] == []


def test_composed_non_members_read_colliding_bits():
    """The instances above exercise the clean-bit term: some non-member
    reads a good block whose bit is set by a member's probe set, so that
    read is wrong on every offset the flips leave alone."""
    for decoder in ("block", "direct"):
        inst = _built_composed().instance(BitString.from_indices(16, [2]), decoder=decoder)
        length = inst.structure.code.length
        collisions = 0
        for q in range(1, 17):
            blocks, units = inst.reads(q).base[0] // length, inst.reads(q).unit[0]
            read = units > 0
            clean = [
                inst.codeword.bits.bit(int(k * length + u + 1))
                for k, u in zip(blocks[read], units[read])
            ]
            collisions += sum(bit != inst.truth(q) for bit in clean)
        assert collisions > 0
        # noiseless, such a query errs with exactly its colliding share
        empty = CorruptionPattern.empty()
        assert inst.wrong_counts([1], empty, 0) == coin_tally(inst, [1], empty) != [0]


def test_majority_refuses_wide_answers():
    """A two-bit substring answer is not a vote: decode, exact_error (by
    enumeration and by counting) and wrong_counts refuse it, while zero-
    and one-bit answers pass and decode to the inner scheme's answer type."""
    sch = MajorityAmplified(SubstringHadamard(SUB_X, 3), 3)
    query = _bits("110000")
    pattern = CorruptionPattern([1, 6])
    with pytest.raises(ParameterError):
        sch.decode(sch.oracle(query=query), query, random.Random(0))
    for limit in (sch.coin_count(query), 0):
        with pytest.raises(ParameterError):
            exact_error(sch, query, CorruptionPattern.empty(), limit=limit)
    with pytest.raises(ParameterError):
        sch.wrong_counts([_bits("100000"), query], pattern, 0)
    one, zero = _bits("010000"), _bits("000000")
    assert sch.decode(sch.oracle(query=one), one, random.Random(0)) == sch.truth(one)
    assert sch.wrong_counts([zero, one], pattern, 0) == coin_tally(sch, [zero, one], pattern)


def test_hadamard_ip_counts_all_queries_in_one_call(monkeypatch):
    """A small pattern's queries share one pair-read count call."""
    calls = []

    def counter(*args):
        count = pair_read_counter(*args)

        def counted(*reads):
            calls.append(reads)
            return count(*reads)

        return counted

    monkeypatch.setattr(hadamard, "pair_read_counter", counter)
    sch = HadamardIp(BitString.random(8, random.Random(8)))
    pattern = CorruptionPattern.random(sch.codeword.n, 12, random.Random(12))
    queries = list(sch.queries())
    assert sch.wrong_counts(queries, pattern, 0) == coin_tally(sch, queries, pattern)
    assert len(calls) == 1


def test_hadamard_ip_counts_past_the_transform_limit():
    """s = 21 puts each query's 2^21 coins past the enumeration limit:
    greedy_local climbs on the pair-read count, and estimate_error is
    exact there, equal to the coin tally, at the budget of delta = 0.05
    and as many queries as the CLI samples by default."""
    rng = random.Random(21)
    s = 21
    sch = HadamardIp(BitString.random(s, rng))
    queries = [BitString.from_int(s, rng.randrange(1, 1 << s)) for _ in range(16)]
    budget = CorruptionPattern.budget(0.05, sch.codeword.n)
    strategy = AdversaryStrategy(
        kind="greedy_local", budget=budget, seed=1, target=queries[0], eval_proposals=10
    )
    pattern = attack(strategy, sch)
    assert pattern.weight == budget
    rep = estimate_error(sch, queries=queries, strategy=strategy, trials=10)
    assert [r.mode for r in rep.results] == ["exact"] * len(queries)
    assert [r.wrong for r in rep.results[:2]] == coin_tally(sch, queries[:2], pattern)
    # the rest by the XOR of the flip indicator at z and z^y
    flipped = np.zeros(1 << s, dtype=bool)
    flipped[pattern.array - 1] = True
    z = np.arange(1 << s)
    assert [r.wrong for r in rep.results] == [
        int((flipped != flipped[z ^ q.value]).sum()) for q in queries
    ]


def test_hadamard_ip_counts_in_memory_linear_in_the_flips():
    """Counting many queries under many flips holds about one query's
    reads at a time: peak memory stays a few times |F| int64 words, not
    |queries| times that."""
    s = 21
    sch = HadamardIp(BitString.random(s, random.Random(5)))
    pattern = CorruptionPattern.random(sch.codeword.n, sch.codeword.n // 20, random.Random(6))
    queries = [BitString.from_int(s, v) for v in range(1, 65)]
    tracemalloc.start()
    try:
        sch.wrong_counts(queries, pattern, 0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 8 * pattern.weight
