"""Pair-read counts: every Hadamard pair-read decoder's wrong_counts
equals the per-coin tally.

had-ip, substring extraction and composed membership (both decoders)
each describe their decoder once, as the pair reads of a batch of
queries (`PairReadScheme.reads`); the shared PairReadScheme derives the
probe budget, the coin digits, the plan, the true answer and the exact
wrong counts from that description, counting the wrong coins in closed
form instead of enumerating them, which is what makes them exact past
the enumeration limit.  Majority amplification counts from its inner scheme's counts.
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
from ecds.bits import BitString, dot_mod2
from ecds.errors import ParameterError
from ecds.hadamard import HadamardIp, MajorityAmplified, PairReadScheme, pair_read_counter
from ecds.harness import AdversaryStrategy, attack, estimate_error
from ecds.inner_product import SubstringHadamard
from ecds.membership import BlockCodedMembership, ComposedInstance, OneProbeMembership
from ecds.oracle import CorruptionPattern, coin_chunks, corrupt, count_wrong, exact_error
from helpers import extract_substring


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
    ("majority-had-ip-t5", lambda: MajorityAmplified(HadamardIp(_bits("101")), 5), _all(3)),
    *(
        (
            "majority-composed-hand-" + decoder,
            lambda decoder=decoder: MajorityAmplified(_hand_composed().instance(_bits("10"), decoder), 3),
            [1, 2],
        )
        for decoder in ("block", "direct")
    ),
    (
        "majority-substring",
        lambda: MajorityAmplified(SubstringHadamard(SUB_X, 3), 3),
        [_bits(q) for q in ("000000", "100000", "010000", "001000", "000001")],
    ),
]


def coin_tally(scheme, queries, pattern):
    """Per query, its coins and how many decode wrongly, by decoding
    every coin through the plan."""
    word = corrupt(scheme.codeword, pattern)
    counts = [scheme.coin_count(q) for q in queries]
    return [
        (count, count_wrong(scheme, q, coin_chunks(scheme.coin_radices(q), count), word))
        for q, count in zip(queries, counts)
    ]


def check_counts(scheme, queries, pattern):
    tally = coin_tally(scheme, queries, pattern)
    # limit 0: nothing may be enumerated, so the counts are the override's
    assert scheme.wrong_counts(queries, pattern, 0) == tally
    # queries read once, as from a generator
    assert scheme.wrong_counts(iter(queries), pattern, 0) == tally
    assert [exact_error(scheme, q, pattern, limit=0) for q in queries] == [
        Fraction(w, coins) for coins, w in tally
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
    determine: budget, coin digits, plan, true answer and counts come
    from PairReadScheme alone, and so does the greedy climb's swap
    scorer; no other base class shadows them."""
    assert "reads" in vars(cls)
    derived = ("plan", "wrong_counts", "swap_counts", "coin_radices", "probe_budget", "truth", "block_killer")
    assert [name for name in derived if name in vars(cls)] == []
    assert [name for name in derived if getattr(cls, name) is not getattr(PairReadScheme, name)] == []


PAIR_INSTANCES = [i for i in INSTANCES if not i[0].startswith("majority")]


@pytest.mark.parametrize("name, make, queries", PAIR_INSTANCES, ids=[i[0] for i in PAIR_INSTANCES])
def test_block_killer_inverts_exactly_the_reads_that_are_right(name, make, queries):
    """With the whole codeword as its budget, block_killer turns every
    read of its target whose clean read is right into one that is wrong
    at every offset, and leaves each other read of the target as it is
    clean: a unit-0 read, or one that is wrong already."""
    scheme = make()
    for q in queries:
        r = scheme.reads([q])
        flips = CorruptionPattern(scheme.block_killer(scheme.codeword.n, q))
        reads = (r.base.ravel(), r.unit.ravel(), np.repeat(r.truth, r.unit.shape[1]), r.length)
        before = pair_read_counter(scheme.codeword, CorruptionPattern.empty())(*reads)
        after = pair_read_counter(scheme.codeword, flips)(*reads)
        kept = (reads[1] > 0) & (before == 0)
        assert (after[kept] == r.length).all() and (after[~kept] == before[~kept]).all()
        assert flips.weight == r.length // 2 * len(np.unique(reads[0][kept]))


@pytest.mark.parametrize("s", [3, 5, 7])
def test_block_killer_reaches_twice_delta_on_had_ip(s):
    """On had-ip, block_killer(k, y) flips k positions, each the probe of
    two coins of y and no coin's two probes together: exact error 2k/2^s,
    the paper's bound 2*delta, for every y != 0 and k up to half the
    codeword."""
    scheme = HadamardIp(BitString.random(s, random.Random(s)))
    for y in _all(s)[1:]:
        for k in range((1 << (s - 1)) + 1):
            flips = CorruptionPattern(scheme.block_killer(k, y))
            assert flips.weight == k
            assert exact_error(scheme, y, flips) == Fraction(2 * k, 1 << s)


def test_block_killer_default_target_and_kinds():
    """Untargeted, block_killer aims at the first query with a read at a
    nonzero unit, and refuses a scheme without one; every pair-read
    decoder carries it."""
    had = HadamardIp(_bits("1011"))
    assert had.block_killer(3).tolist() == had.block_killer(3, _bits("0001")).tolist()
    sub = SubstringHadamard(SUB_X, 3)
    assert sub.block_killer(5).tolist() == sub.block_killer(5, next(q for q in sub.queries() if q.weight)).tolist()
    composed = _built_composed().instance(BitString.from_indices(16, [2]), "direct")
    first = composed.structure.good_indices[0]
    assert composed.block_killer(40).tolist() == composed.block_killer(40, first).tolist()
    # both probe sets lie in block 1: no index is good, so none is a query
    base = OneProbeMembership(n=2, s=1, eps=0.4, probe_sets=[(1, 2), (3, 4)], n_prime=8)
    crowded = BlockCodedMembership(2, base, list(range(8)), a=4)
    assert crowded.good_indices == ()
    for decoder in ("block", "direct"):
        with pytest.raises(ParameterError, match="no query"):
            crowded.instance(_bits("10"), decoder).block_killer(4)
    assert (HadamardIp.attacks, ComposedInstance.attacks) == (("block_killer",),) * 2
    assert SubstringHadamard.attacks == ("piece_killer", "block_killer")


@lru_cache(maxsize=None)
def _composed_8_64():
    return BlockCodedMembership.build(16, 1, eps=0.4, a=8, b=64, seed=0)


def _answer_bits(answer):
    return [int(c) for c in answer.to01()] if isinstance(answer, BitString) else [answer]


ZERO = _bits("000000")
# (name, scheme factory, one batch of queries, the answer from x alone,
# a query the scheme refuses)
BATCHES = [
    ("had-ip", lambda: HadamardIp(_bits("1011")), _all(4), lambda s, q: dot_mod2(s.x, q), _bits("101")),
    (
        "substring-t1",
        lambda: SubstringHadamard(SUB_X, 3, t=1),
        [ZERO, *SUB_QUERIES, ZERO],
        lambda s, q: extract_substring(s.x, q),
        _bits("1010"),
    ),
    (
        "substring-t3",
        lambda: SubstringHadamard(SUB_X, 3, t=3),
        [*SUB_QUERIES[:2], ZERO, *SUB_QUERIES[2:]],
        lambda s, q: extract_substring(s.x, q),
        _bits("1000000"),
    ),
    *(
        (
            "composed-" + decoder,
            lambda decoder=decoder: _composed_8_64().instance(BitString.from_indices(16, [9]), decoder),
            list(range(1, 17)),
            lambda s, q: s.x.bit(q),
            17,
        )
        for decoder in ("block", "direct")
    ),
]


@pytest.mark.parametrize("name, make, queries, reference, bad", BATCHES, ids=[b[0] for b in BATCHES])
def test_a_batch_reads_as_its_queries_one_by_one(name, make, queries, reference, bad):
    """reads(queries) is the row-wise concatenation of reads([q]) over
    the batch, with the instance's length, t and fallback; each bit's
    true value is the bit of truth(q), and truth(q) is the answer
    computed from x alone."""
    scheme = make()
    batch, parts = scheme.reads(queries), [scheme.reads([q]) for q in queries]
    for field in ("base", "unit", "truth", "widths"):
        assert np.array_equal(getattr(batch, field), np.concatenate([getattr(p, field) for p in parts]))
    assert {(p.length, p.t, p.fallback) for p in parts} == {(batch.length, batch.t, batch.fallback)}
    assert batch.truth.tolist() == [bit for q in queries for bit in _answer_bits(scheme.truth(q))]
    assert [scheme.truth(q) for q in queries] == [reference(scheme, q) for q in queries]
    assert np.array_equal(scheme.reads(iter(queries)).unit, batch.unit)


@pytest.mark.parametrize("name, make, queries, reference, bad", BATCHES, ids=[b[0] for b in BATCHES])
def test_a_batch_with_one_bad_query_is_refused_before_any_count(
    monkeypatch, name, make, queries, reference, bad
):
    """One wrong-length query, or an index outside the public domain,
    anywhere in a batch raises ParameterError before any pair read is
    counted."""
    calls = []
    monkeypatch.setattr(hadamard, "pair_read_counter", lambda *args: calls.append(args))
    scheme = make()
    for batch in ([bad, *queries], [*queries[:3], bad, *queries[3:]], [*queries, bad]):
        with pytest.raises(ParameterError):
            scheme.wrong_counts(batch, CorruptionPattern([1]), 0)
        with pytest.raises(ParameterError):
            estimate_error(scheme, queries=batch, trials=10)
    if not isinstance(bad, BitString):
        with pytest.raises(ParameterError):
            scheme.reads([*queries, 0])
    assert calls == []


def counting_reads(monkeypatch):
    """The batch size of every HadamardIp.reads call from here on."""
    calls = []
    reads = HadamardIp.reads

    def counted(self, queries):
        queries = list(queries)
        calls.append(len(queries))
        return reads(self, queries)

    monkeypatch.setattr(HadamardIp, "reads", counted)
    return calls


def test_hadamard_ip_measurement_builds_its_reads_once(monkeypatch):
    """A 256-query had-ip estimate_error describes its queries in one
    reads call, not again per query for its coin count and truth; a
    targeted greedy climb adds one more, for the one query it climbs on."""
    calls = counting_reads(monkeypatch)
    sch = HadamardIp(BitString.random(8, random.Random(3)))
    queries = list(sch.queries())
    strategy = AdversaryStrategy(kind="random_flips", budget=12, seed=1)
    rep = estimate_error(sch, queries=queries, strategy=strategy, trials=10)
    assert [r.mode for r in rep.results] == ["exact"] * 256
    assert calls == [256]
    calls.clear()
    strategy = AdversaryStrategy(kind="greedy_local", budget=12, seed=1, target=queries[5])
    estimate_error(sch, queries=queries, strategy=strategy, trials=10)
    assert calls == [1, 256]


def test_composed_non_members_read_colliding_bits():
    """The instances above exercise the clean-bit term: some non-member
    reads a good block whose bit is set by a member's probe set, so that
    read is wrong on every offset the flips leave alone."""
    for decoder in ("block", "direct"):
        inst = _built_composed().instance(BitString.from_indices(16, [2]), decoder=decoder)
        length = inst.structure.code.length
        collisions = 0
        for q in range(1, 17):
            blocks, units = inst.reads([q]).base[0] // length, inst.reads([q]).unit[0]
            read = units > 0
            clean = [
                inst.codeword.bits.bit(int(k * length + u + 1))
                for k, u in zip(blocks[read], units[read])
            ]
            collisions += sum(bit != inst.truth(q) for bit in clean)
        assert collisions > 0
        # noiseless, such a query errs with exactly its colliding share
        empty = CorruptionPattern.empty()
        tally = coin_tally(inst, [1], empty)
        assert inst.wrong_counts([1], empty, 0) == tally and tally[0][1] != 0


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


def test_majority_counts_from_one_inner_reads_call(monkeypatch):
    """A majority over had-ip counts all 256 queries of s = 8 from one
    inner reads call: its one-bit check reads the answer type, not a
    one-query truth per query."""
    calls = counting_reads(monkeypatch)
    sch = MajorityAmplified(HadamardIp(BitString.random(8, random.Random(8))), 3)
    pattern = CorruptionPattern.random(sch.codeword.n, 12, random.Random(12))
    counts = sch.wrong_counts(sch.queries(), pattern, 0)
    assert calls == [256]
    inner = sch.inner.wrong_counts(sch.queries(), pattern, 0)
    assert counts == [(c**3, 3 * w * w * (c - w) + w**3) for c, w in inner]


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
    assert [(r.trials, r.wrong) for r in rep.results[:2]] == coin_tally(sch, queries[:2], pattern)
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


def _per_read(codeword, pattern, base, unit, truth, length):
    """Each read's wrong count on its own, from the flips of its piece:
    D = 2|{f : f xor unit not flipped}| offsets are hit, and the count is
    D where the clean bit at unit is the truth, else length - D."""
    flipped = set((pattern.array - 1).tolist())
    clean = codeword.bits
    out = []
    for b, u, t in zip(base.tolist(), unit.tolist(), truth.tolist()):
        piece = [f - b for f in flipped if b <= f < b + length]
        hit = 2 * sum((f ^ u) + b not in flipped for f in piece)
        out.append(hit if clean.bit(b + u + 1) == t else length - hit)
    return out


# (name, scheme factory, the queries a batch picks from)
DEDUPE = [
    ("had-ip", lambda: HadamardIp(_bits("10110")), _all(5)),
    *(
        ("composed-" + decoder, lambda decoder=decoder: _composed_8_64().instance(BitString.from_indices(16, [9]), decoder), list(range(1, 17)))
        for decoder in ("block", "direct")
    ),
]


@pytest.mark.parametrize("name, make, pool", DEDUPE, ids=[d[0] for d in DEDUPE])
@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), fraction=st.sampled_from([0.0, 0.02, 0.2, 0.6]))
def test_count_of_repeated_reads_equals_each_read_counted_alone(name, make, pool, data, seed, fraction):
    """pair_read_counter counts each distinct (base, unit) once and maps
    the counts back: on batches of many queries, repeats among them, it
    gives every read the count of that read alone, also under the empty
    pattern (fraction 0)."""
    scheme = make()
    queries = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    n = scheme.codeword.n
    pattern = CorruptionPattern.random(n, int(fraction * n), random.Random(seed))
    columns = scheme.read_table(queries).columns
    counted = pair_read_counter(scheme.codeword, pattern)(*columns)
    assert counted.tolist() == _per_read(scheme.codeword, pattern, *columns)


def test_composed_batches_repeat_reads():
    """The batches above do repeat reads: every query of a composed
    structure read twice, and its pieces shared between queries."""
    scheme = _composed_8_64().instance(BitString.from_indices(16, [9]), "block")
    base, unit, truth, length = scheme.read_table(list(range(1, 17)) * 2).columns
    keys = (base + unit).tolist()
    assert len(set(keys)) * 2 < len(keys)
    assert len(set(base.tolist())) < len(set(keys))
