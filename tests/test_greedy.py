"""The greedy adversary's running counts and its frozen patterns.

greedy_local climbs on Scheme.swap_counts: the default recounts every
proposed swap through wrong_counts, and a pair-read decoder scores a
swap by the reads of the pieces holding the dropped and the added flip.
After every swap, accepted or not, the running counts must equal a full
wrong_counts of the flips they describe.  The patterns the climb returns
are pinned by digests taken while every swap was still recounted.
"""

import hashlib
import random
from functools import lru_cache

import pytest

from ecds.bits import BitString
from ecds.hadamard import EqualityScheme, HadamardIp, MajorityAmplified
from ecds.harness import AdversaryStrategy, attack
from ecds.inner_product import SubstringHadamard
from ecds.membership import BlockCodedMembership, OneProbeMembership
from ecds.oracle import CorruptionPattern


def _bits(text):
    return BitString.from01(text)


@lru_cache(maxsize=None)
def _composed():
    return BlockCodedMembership.build(16, 1, eps=0.4, a=5, b=40, seed=0)


def _composed_instance(decoder):
    st = _composed()
    return st.instance(BitString.from_indices(16, [st.good_indices[0]]), decoder)


def _membership_toy():
    mem = OneProbeMembership(2, 1, 0.4, [(1, 2, 3, 4, 5), (4, 5, 6, 7, 8)], 8)
    return mem.instance(_bits("10"))


def _majority_equality():
    """A majority over 3^3 * 2^33 coins, which wrong_counts declines at 4096."""
    return MajorityAmplified(EqualityScheme(BitString.random(11, random.Random(2))), 3)


EQ_QUERY = BitString.random(11, random.Random(3))

# (name, scheme factory, queries)
INSTANCES = [
    ("had-ip", lambda: HadamardIp(_bits("10110")), [BitString.from_int(5, v) for v in (0, 1, 6, 19, 31)]),
    (
        "substring-t3",
        lambda: SubstringHadamard(_bits("101101001110"), 3, t=3),
        [_bits(q) for q in ("100000000000", "110000000001", "000100100100")],
    ),
    ("composed-block", lambda: _composed_instance("block"), [1, 2, 9, 16]),
    ("composed-direct", lambda: _composed_instance("direct"), [1, 2, 9, 16]),
    # the default scorer: a plan-only decoder, counts from an inner
    # scheme's, and counts declined past the limit
    ("mem-1p", _membership_toy, [1, 2]),
    ("majority-had-ip", lambda: MajorityAmplified(HadamardIp(_bits("1011")), 3), [_bits("0110")]),
    ("majority-equality", _majority_equality, [EQ_QUERY]),
]


def _partner(scheme, queries, drop, flipped):
    """An unflipped d xor u for a read of unit u > 0 in a piece holding
    drop (1-based), or None: a swap onto it changes one read twice."""
    if not hasattr(scheme, "reads"):
        return None
    for q in queries:
        r = scheme.reads([q])
        for base, unit in zip(r.base.ravel().tolist(), r.unit.ravel().tolist()):
            if unit and base <= drop - 1 < base + r.length:
                partner = ((drop - 1) ^ unit) + 1
                if partner not in flipped:
                    return partner
    return None


def _check(flips, scheme, queries, limit):
    assert flips.positions == sorted(flips.flipped)
    current = CorruptionPattern(flips.positions)
    assert flips.counts == scheme.wrong_counts(queries, current, limit)


@pytest.mark.parametrize("name, make, queries", INSTANCES, ids=[i[0] for i in INSTANCES])
def test_running_counts_equal_a_full_recount(name, make, queries):
    """From budgets 0, 1, small and near n, random swaps (some onto the
    drop's partner), each accepted or rejected at random: the scored
    counts equal wrong_counts of the swapped pattern, and the running
    counts those of the flips kept."""
    scheme = make()
    n = scheme.codeword.n
    rng = random.Random(name)
    limit = 4096
    partners = 0
    for budget in (0, 1, max(2, n // 16), n - 2):
        flips = scheme.swap_counts(queries, rng.sample(range(1, n + 1), budget), limit)
        _check(flips, scheme, queries, limit)
        for step in range(24 if budget else 0):
            drop = rng.choice(flips.positions)
            add = _partner(scheme, queries, drop, flips.flipped) if step % 3 == 0 else None
            partners += add is not None
            while add is None or add in flips.flipped:
                add = rng.randrange(1, n + 1)
            swapped = CorruptionPattern((flips.flipped - {drop}) | {add})
            assert flips.swap(drop, add) == scheme.wrong_counts(queries, swapped, limit)
            assert flips.pattern() == swapped
            if rng.random() < 0.5:
                flips.accept()
            _check(flips, scheme, queries, limit)
    assert partners > 0 or not hasattr(scheme, "reads")


def _greedy(budget, seed, **kw):
    return AdversaryStrategy(kind="greedy_local", budget=budget, seed=seed, **kw)


def _greedy_patterns():
    had = HadamardIp(BitString.random(8, random.Random(1)))
    target = BitString.from_int(8, 77)
    yield "had-ip-targeted", attack(_greedy(40, 6), had, target)
    yield "had-ip", attack(_greedy(100, 6), had)
    yield "had-ip-wide", attack(_greedy(250, 6), had, target)
    sub = SubstringHadamard(_bits("101101001110"), 3, t=3)
    yield "substring-t3-targeted", attack(_greedy(6, 8), sub, _bits("110000000001"))
    yield "substring-t3", attack(_greedy(9, 9), sub)
    for decoder in ("block", "direct"):
        inst = _composed_instance(decoder)
        target = _composed().good_indices[-1]
        yield "composed-%s-targeted" % decoder, attack(_greedy(40, 10), inst, target)
        yield "composed-%s" % decoder, attack(_greedy(60, 11, eval_proposals=30), inst)
    yield "membership-toy", attack(_greedy(3, 12, eval_proposals=20), _membership_toy())
    maj = MajorityAmplified(HadamardIp(_bits("1011")), 5)  # counted from had-ip's
    yield "majority-had-ip", attack(
        _greedy(8, 13, eval_proposals=20, eval_trials=64, eval_queries=2), maj
    )
    yield "majority-equality", attack(  # sampled
        _greedy(400, 13, eval_proposals=20, eval_trials=64), _majority_equality(), EQ_QUERY
    )


# (weight, sha256 of the positions' repr, first 16 hex digits), taken when
# every proposed swap was recounted through wrong_counts; each climb here
# accepts at least one swap
PINNED = {
    "had-ip-targeted": (40, "97066f02165f0d36"),
    "had-ip": (100, "ea2dd7cd7e2d6e2c"),
    "had-ip-wide": (250, "8c92f6e6407e2b14"),
    "substring-t3-targeted": (6, "1eef54cd1d0642b2"),
    "substring-t3": (9, "59210c8227c9b344"),
    "composed-block-targeted": (40, "95f2d2fd00aec919"),
    "composed-block": (60, "897400176f114923"),
    "composed-direct-targeted": (40, "c9f5bbfdb327fbdb"),
    "composed-direct": (60, "ebc3f0fd5fae1661"),
    "membership-toy": (3, "6699b75b32b5b922"),
    "majority-had-ip": (8, "0880ed62caaa487e"),
    "majority-equality": (400, "9ec0681d46f22869"),
}


def test_greedy_patterns_are_frozen():
    seen = {
        name: (p.weight, hashlib.sha256(repr(p.positions).encode()).hexdigest()[:16])
        for name, p in _greedy_patterns()
    }
    assert seen == PINNED
