"""One measurement path: every query is counted through wrong_counts.

estimate_error and exact_error ask the scheme's wrong_counts for every
query and enumerate nothing themselves, so small coin spaces are no
longer tallied coin by coin during measurement.  On toy instances of
every decoder, under the empty pattern, random flips, the scheme's
killers and a targeted greedy climb, each exact count
they report must equal the per-coin tally through the probe plan
(count_wrong over coin_chunks; tests/test_plan.py ties that to the
scalar oracle).  Reports keep their results as columns: the views they
build, their JSON and CSV are pinned, and many kept reports stay small.
"""

import gc
import hashlib
import json
import random
import tracemalloc
from fractions import Fraction
from functools import lru_cache

import pytest

from ecds.bits import BitString, BoundedWeightSpace
from ecds.hadamard import EqualityScheme, HadamardIp, MajorityAmplified, RandomLinearCode
from ecds.harness import AdversaryStrategy, attack, estimate_error
from ecds.inner_product import PolySharedIp, SubstringHadamard, TableIp
from ecds.membership import BlockCodedMembership, OneProbeMembership
from ecds.oracle import coin_chunks, corrupt, count_wrong, exact_error


def _bits(text):
    return BitString.from01(text)


def _all(n):
    return [BitString.from_int(n, v) for v in range(1 << n)]


@lru_cache(maxsize=None)
def _composed():
    return BlockCodedMembership.build(16, 1, eps=0.4, a=8, b=64, seed=0)


# (name, scheme factory, queries)
INSTANCES = [
    ("had-ip", lambda: HadamardIp(_bits("10110")), _all(5)),
    (
        "substring-t1",
        lambda: SubstringHadamard(_bits("101101"), 3),
        [_bits(q) for q in ("100000", "000001", "110000", "011000", "100101")],
    ),
    (
        "substring-t3",
        lambda: SubstringHadamard(_bits("1011"), 2, t=3),
        [_bits(q) for q in ("1000", "0010", "1001")],
    ),
    ("majority-had-ip", lambda: MajorityAmplified(HadamardIp(_bits("101")), 3), _all(3)),
    (
        "composed-block",
        lambda: _composed().instance(BitString.from_indices(16, [2]), decoder="block"),
        [1, 2, 9],
    ),
    (
        "composed-direct",
        lambda: _composed().instance(BitString.from_indices(16, [2]), decoder="direct"),
        [1, 2, 9],
    ),
    ("equality-balanced", lambda: EqualityScheme(_bits("1011")), _all(4)),
    ("equality-raw", lambda: EqualityScheme(_bits("1011"), balanced=False), _all(4)),
    (
        "equality-linear",
        lambda: EqualityScheme(_bits("101"), code=RandomLinearCode(3, 7, rng=random.Random(2))),
        _all(3),
    ),
    ("ip-table", lambda: TableIp(_bits("1011"), 3, 2), list(BoundedWeightSpace(4, 3))),
    ("ip-poly", lambda: PolySharedIp(_bits("1011"), 1, 3), list(BoundedWeightSpace(4, 1))),
    (
        "mem-1p",
        lambda: OneProbeMembership.build(8, 1, eps=0.3, seed=0).instance(
            BitString.from_indices(8, [3])
        ),
        [1, 3, 8],
    ),
]


def _tally(scheme, query, pattern):
    """Wrong coins by decoding every coin through the plan."""
    chunks = coin_chunks(scheme.coin_radices(query), scheme.coin_count(query))
    return count_wrong(scheme, query, chunks, corrupt(scheme.codeword, pattern))


def _strategies(scheme, queries):
    n = scheme.codeword.n
    yield AdversaryStrategy(kind="none", budget=0)
    yield AdversaryStrategy(kind="random_flips", budget=max(1, n // 8), seed=3)
    for kind in scheme.attacks:  # re-aimed at each query
        yield AdversaryStrategy(kind=kind, budget=max(1, n // 8), seed=3)
    yield AdversaryStrategy(
        kind="greedy_local", budget=max(1, n // 8), seed=3, target=queries[0], eval_proposals=10,
    )


@pytest.mark.parametrize("name, make, queries", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_measurement_matches_coin_tally(name, make, queries):
    scheme = make()
    for strategy in _strategies(scheme, queries):
        rep = estimate_error(scheme, queries=queries, strategy=strategy, trials=10)
        assert [r.query for r in rep.results] == [scheme.query_label(q) for q in queries]
        for r, q in zip(rep.results, queries):
            # killers are re-aimed at each query; the rest share one pattern
            pattern = attack(strategy, scheme, q if strategy.kind in scheme.attacks else None)
            tally = _tally(scheme, q, pattern)
            assert (r.mode, r.trials, r.wrong) == ("exact", scheme.coin_count(q), tally)
            assert r.pattern_weight == pattern.weight
            assert exact_error(scheme, q, pattern) == Fraction(tally, scheme.coin_count(q))


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _pinned_reports():
    rng = random.Random(3)
    had = HadamardIp(BitString.random(6, rng))
    yield "hadip", estimate_error(
        had, strategy=AdversaryStrategy("random_flips", 5, seed=2), trials=50
    )
    eq = EqualityScheme(BitString.random(5, rng))
    queries = [BitString.random(5, rng) for _ in range(3)] + [eq.x]
    yield "eq-mc", estimate_error(
        eq, queries=queries, strategy=AdversaryStrategy("random_flips", 3, seed=4),
        trials=3000, seed=5, exact_limit=1,
    )
    composed = BlockCodedMembership.build(16, 1, eps=0.4, a=5, b=40, seed=0)
    inst = composed.instance(BitString.from_indices(16, [3]))
    yield "composed-killer", estimate_error(
        inst, queries=list(composed.good_indices)[:6],
        strategy=AdversaryStrategy("block_killer", 40, seed=1), trials=100,
    )
    sub = SubstringHadamard(_bits("10110100"), 2, t=31)
    yield "substring-t31", estimate_error(
        sub, queries=[BitString.unit(8, 1), _bits("11000000")],
        strategy=AdversaryStrategy("piece_killer", 4), trials=100,
    )


# digests of worst_error, to_json(), csv_rows() and the results' repr,
# taken before reports kept their results as columns, and kept since
# counts are stored in their narrowest type.  composed-killer's are those
# of the block_killer that attacks the blocks the block decoder reads
# (before: 0.4, 88caaff57595d446, 1799acd26438657d, 854f639537320929,
# the error of no attack at all).
PINNED = {
    "hadip": (0.15625, "5bbf9e9fd29a49ee", "b8a9511d52f023a0", "87ed742bf98aab94"),
    "eq-mc": (0.4053333333333333, "bcf6bb754a98389f", "ac1dc0db76f03c98", "4df7a07a7070b80d"),
    "composed-killer": (0.4625, "9ec96912d3bbcaac", "5c6c5d5dc21fcd05", "38b42724e39b7ab4"),
    "substring-t31": (0.75, "a31f101e9c7ad87d", "1360492e92cd4150", "d631ac59d03c2a47"),
}


def test_report_views_and_bytes_are_pinned():
    """An all-exact report, a Monte Carlo one, a re-aimed killer and
    counts past 2^63 read back the same results, JSON and CSV rows."""
    seen = {}
    for name, rep in _pinned_reports():
        seen[name] = (
            rep.worst_error,
            _digest(rep.to_json()),
            _digest(json.dumps(rep.csv_rows(), sort_keys=True)),
            _digest(repr(rep.results)),
        )
        assert {r.mode for r in rep.results} == ({"mc"} if name == "eq-mc" else {"exact"})
    assert seen == PINNED
    # substring-t31's counts pass 2^64: kept as exact Python ints
    assert rep.counts.dtype["trials"] == rep.counts.dtype["wrong"] == object
    sub = SubstringHadamard(_bits("10110100"), 2, t=31)
    for r, q in zip(rep.results, [BitString.unit(8, 1), _bits("11000000")]):
        assert type(r.trials) is int and type(r.wrong) is int
        assert r.trials == sub.coin_count(q) > 2**63


def test_kept_reports_hold_little_per_query():
    """Twenty kept reports of 256 had-ip queries hold their results in
    columns of the narrowest type, and share one labels string and one
    counts array: at most 16 bytes a query."""
    sch = HadamardIp(BitString.random(8, random.Random(1)))
    queries = list(sch.queries())
    strategy = AdversaryStrategy("random_flips", 10, seed=1)
    kept = [estimate_error(sch, queries=queries, strategy=strategy, trials=10)]
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(20):
            kept.append(estimate_error(sch, queries=queries, strategy=strategy, trials=10))
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 16 * 20 * len(queries)
    assert all(r.to_json() == kept[0].to_json() for r in kept)
    assert len({id(r.label_text) for r in kept}) == 1
    assert len({id(r.counts) for r in kept}) == 1 and not kept[0].counts.flags.writeable
    assert kept[0].labels == tuple(q.to01() for q in queries)
