"""Hadamard encodings, 2-probe product decoding, majority voting, equality.

Brute-force references here recompute everything with python loops over
explicit bit lists, independent of the vectorized implementations; the
pairwise error counts (HadamardIp.wrong_counts over every query, from the
pair-read count) are checked against the direct O(4^s) count.
"""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecds.bits import BitString, dot_mod2
from ecds.errors import InfeasibleSizeError, ParameterError, integer
from ecds.hadamard import (
    EqualityScheme,
    HadamardCode,
    HadamardIp,
    MajorityAmplified,
    RandomLinearCode,
    majority_wrong,
)
from ecds.harness import AdversaryStrategy, _greedy_objective, attack
from ecds.inner_product import SubstringHadamard
from ecds.oracle import (
    Codeword,
    CorruptionPattern,
    ProbeOracle,
    corrupt,
    exact_error,
    probe_mass,
)
from helpers import RecordingOracle


def brute_encode(s, xv):
    return [bin(xv & z).count("1") % 2 for z in range(1 << s)]


def parity_bits(s, v):
    """v's length-2^s Hadamard codeword by its per-position definition:
    position z (0-based) holds parity(z & v), as a 0/1 uint8 array."""
    vals = np.arange(1 << s, dtype=np.uint64)
    return (np.bitwise_count(vals & np.uint64(v)) & 1).astype(np.uint8)


def test_encode_frozen_example():
    code = HadamardCode(2)
    assert code.encode(BitString.from01("10")).to01() == "0011"
    assert code.encode(BitString.from01("00")).to01() == "0000"
    assert code.encode(BitString.from01("11")).to01() == "0110"


def test_encode_matches_brute_force():
    for s in range(1, 5):
        code = HadamardCode(s)
        for xv in range(1 << s):
            expect = brute_encode(s, xv)
            assert list(parity_bits(s, xv)) == expect
            assert code.encode(BitString.from_int(s, xv)).to_bit_array().tolist() == expect


@pytest.mark.parametrize("s", range(1, 11))
def test_packed_encode_matches_parity_definition(s):
    """The doubling encoder gives the per-position parity codeword and
    the batch encoder's bytes for every message, and the pad bits of a
    codeword shorter than a byte are zero."""
    code = HadamardCode(s)
    for v in range(code.length):
        word = code.encode(BitString.from_int(s, v))
        assert word == BitString.from_bit_array(parity_bits(s, v))
        assert word == code.encode_blocks([v])
        assert word.n == code.length and len(word._data) == -(-code.length // 8)
        if s < 3:
            assert word._data[0] & (0xFF >> code.length) == 0


@pytest.mark.parametrize("s", [14, 16, 18, 20])
def test_packed_encode_matches_parity_definition_sampled(s):
    code = HadamardCode(s)
    rng = random.Random(s)
    for v in [0, code.length - 1] + [rng.randrange(code.length) for _ in range(4)]:
        word = code.encode(BitString.from_int(s, v))
        assert word == BitString.from_bit_array(parity_bits(s, v))
        assert word == code.encode_blocks([v])


@pytest.mark.parametrize("s", [22, 26])
def test_hadamard_ip_encode_memory(s):
    """Building HadamardIp allocates under three times its packed
    codeword at its peak (512 KiB at s = 22, 8 MiB at s = 26): no array
    with an entry per position is made."""
    x = BitString.random(s, random.Random(s))
    tracemalloc.start()
    try:
        inst = HadamardIp(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(inst.codeword.bits._data) == (1 << s) // 8
    assert peak < 3 * (1 << s) // 8


@pytest.mark.parametrize("s", [1, 2, 3, 4, 8, 11])
def test_encode_blocks_matches_encode_value(s):
    """The one-pass batch encoding concatenates the per-position parity
    codeword of each message, for codewords shorter than a byte as well."""
    code = HadamardCode(s)
    values = np.random.default_rng(s).integers(code.length, size=7)
    values[:2] = (0, code.length - 1)
    got = code.encode_blocks(values)
    expect = BitString.from_bit_array(np.concatenate([parity_bits(s, int(v)) for v in values]))
    assert got == expect and got.n == 7 * code.length
    assert code.encode_blocks([]) == BitString.zeros(0)
    with pytest.raises(ParameterError):
        code.encode_blocks([0, code.length])


def test_every_pair_at_exactly_half_distance():
    code = HadamardCode(3)
    words = [code.encode(BitString.from_int(3, v)) for v in range(8)]
    for a, b in itertools.combinations(words, 2):
        assert (a ^ b).weight == 4
    assert code.length // 2 == 4


def test_size_guard():
    with pytest.raises(InfeasibleSizeError):
        HadamardCode(27)
    with pytest.raises(ParameterError):
        HadamardCode(0)


def test_noiseless_decode_all_queries():
    for xv in range(8):
        sch = HadamardIp(BitString.from_int(3, xv))
        for y in sch.queries():
            for z in range(8):
                oracle = sch.oracle()
                assert sch.decode_with_coins(oracle, y, (z,)) == sch.truth(y)
                assert oracle.used == 2


@pytest.mark.parametrize(
    "scheme", [HadamardIp(BitString.from01("1011")), EqualityScheme(BitString.from01("1011"))]
)
def test_decode_refuses_wrong_length_query(scheme):
    with pytest.raises(ParameterError):
        scheme.decode(scheme.oracle(), BitString.from01("11"), random.Random(0))


def brute_fail_count(s, flips, yv):
    n = 1 << s
    flipped = [((z + 1) in flips) for z in range(n)]
    return sum(1 for z in range(n) if flipped[z] != flipped[z ^ yv])


def pairwise_error_counts(s, pattern, seed=0):
    """Wrong coins of the 2-probe decoder at every query value y, in order:
    HadamardIp.wrong_counts over all queries, nothing enumerated.  The
    clean bit at y is always the truth x.y, so the counts do not depend
    on x, which is drawn from `seed`."""
    sch = HadamardIp(BitString.random(s, random.Random(seed)))
    return [wrong for _, wrong in sch.wrong_counts(list(sch.queries()), pattern, 0)]


def test_pairwise_error_counts_matches_brute_force():
    s = 3
    rng = random.Random(2)
    for seed in range(25):
        k = rng.randrange(0, 5)
        pattern = CorruptionPattern.random(8, k, rng)
        counts = pairwise_error_counts(s, pattern, seed)
        for yv in range(8):
            assert counts[yv] == brute_fail_count(s, pattern.flips, yv)
    with pytest.raises(ParameterError):
        pairwise_error_counts(s, CorruptionPattern([9]))


def quadratic_error_counts(s, pattern, block=1 << 12):
    """Reference for pairwise_error_counts: XOR the flip indicator at z
    and z^y for every pair (y, z), O(4^s)."""
    n = 1 << s
    flipped = corrupt(Codeword(BitString.zeros(n)), pattern).to_bit_array()
    z = np.arange(n, dtype=np.uint32)
    out = np.empty(n, dtype=np.int64)
    for start in range(0, n, block):
        ys = np.arange(start, min(start + block, n), dtype=np.uint32)
        out[start : start + len(ys)] = (
            flipped[z[None, :]] ^ flipped[ys[:, None] ^ z[None, :]]
        ).sum(axis=1)
    return out


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(1, 10),
    seed=st.integers(0, 2**32 - 1),
    fraction=st.floats(0.0, 1.0),
)
def test_pairwise_error_counts_match_quadratic_reference(s, seed, fraction):
    n = 1 << s
    pattern = CorruptionPattern.random(n, round(fraction * n), random.Random(seed))
    counts = pairwise_error_counts(s, pattern, seed)
    assert all(type(c) is int for c in counts)
    assert counts == quadratic_error_counts(s, pattern).tolist()


def subspace_offsets(s, rng):
    """Offsets in the span of a few random vectors of {0,1}^s."""
    span = {0}
    for _ in range(rng.randrange(1, s + 1)):
        v = rng.randrange(1 << s)
        span |= {u ^ v for u in span}
    return span


def structured_patterns(s, rng):
    n = 1 << s
    sub = subspace_offsets(s, rng)
    shift = rng.randrange(n)
    start = rng.randrange(1, n + 1)
    stop = rng.randrange(start, n + 1)
    sch = HadamardIp(BitString.random(s, rng))
    out = {
        "empty": CorruptionPattern.empty(),
        "all": CorruptionPattern(range(1, n + 1)),
        "subspace": CorruptionPattern(z + 1 for z in sub),
        "coset": CorruptionPattern((z ^ shift) + 1 for z in sub),
        "block": CorruptionPattern(range(start, stop + 1)),
    }
    for budget in (1, n // 20, n // 4):
        strategy = AdversaryStrategy(kind="greedy_local", budget=budget, seed=budget)
        out["greedy%d" % budget] = attack(strategy, sch)
    return out


@pytest.mark.parametrize("s", [1, 3, 6, 9])
def test_pairwise_error_counts_on_structured_patterns(s):
    for name, pattern in structured_patterns(s, random.Random(s)).items():
        counts = pairwise_error_counts(s, pattern, s)
        assert counts == quadratic_error_counts(s, pattern).tolist(), name


def test_pairwise_error_counts_identities_at_largest_size():
    s = 12
    n = 1 << s
    pattern = CorruptionPattern.random(n, n // 20, random.Random(20))
    counts = pairwise_error_counts(s, pattern)
    w = pattern.weight
    assert counts[0] == 0
    # every ordered pair of offsets with one flipped end is counted once
    assert sum(counts) == 2 * w * (n - w)
    assert max(counts) <= 2 * w


@settings(max_examples=30, deadline=None)
@given(
    s=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    fraction=st.floats(0.0, 1.0),
)
def test_greedy_objective_matches_oracle_route(s, seed, fraction):
    """The pair-read counts the greedy adversary climbs on, at the start
    and after a swap, equal the coin enumeration through the plan and the
    direct count, query by query."""
    rng = random.Random(seed)
    n = 1 << s
    sch = HadamardIp(BitString.random(s, rng))
    pattern = CorruptionPattern.random(n, round(fraction * n), rng)
    queries = list(sch.queries())
    counted = sch.wrong_counts(queries, pattern, limit=0)
    counts = [wrong for _, wrong in counted]
    assert counted == [(n, wrong) for wrong in counts]
    assert counts == [exact_error(sch, y, pattern) * n for y in queries]
    objective = _greedy_objective(sch, queries, 0, 0)
    flips = sch.swap_counts(queries, pattern.positions, 0)
    assert flips.counts == counted
    assert objective(flips.counts, flips.pattern) == max(counts) / n
    if 0 < pattern.weight < n:
        drop = rng.choice(pattern.positions)
        add = rng.choice([j for j in range(1, n + 1) if j not in pattern])
        swapped = CorruptionPattern((pattern.flips - {drop}) | {add})
        direct = [(n, wrong) for wrong in quadratic_error_counts(s, swapped).tolist()]
        assert flips.swap(drop, add) == direct
        assert flips.pattern() == swapped
        assert objective(direct, flips.pattern) == max(wrong for _, wrong in direct) / n


def test_error_at_most_twice_flip_fraction():
    # exhaustive over every pattern of weight <= 3 at s = 3
    s, n = 3, 8
    for w in range(4):
        for flips in itertools.combinations(range(1, n + 1), w):
            counts = pairwise_error_counts(s, CorruptionPattern(flips), w)
            assert max(counts) <= 2 * w


def test_exact_error_agrees_with_pair_counts():
    sch = HadamardIp(BitString.from01("101"))
    rng = random.Random(9)
    for _ in range(10):
        pattern = CorruptionPattern.random(8, rng.randrange(0, 4), rng)
        counts = [wrong for _, wrong in sch.wrong_counts(list(sch.queries()), pattern, 0)]
        for yv in (0, 3, 7):
            y = BitString.from_int(3, yv)
            assert exact_error(sch, y, pattern) == Fraction(counts[yv], 8)


def test_probe_distribution_uniform():
    # both slots used by all 4 coins, each reading every position once
    sch = HadamardIp(BitString.from01("01"))
    assert probe_mass(sch, BitString.from01("11")).tolist() == [2, 2, 2, 2]


def majority_error(p: Fraction, t: int) -> Fraction:
    """Reference: the exact probability that a majority of t iid
    Bernoulli(p) votes is wrong, t odd."""
    return sum(math.comb(t, k) * p**k * (1 - p) ** (t - k) for k in range((t + 1) // 2, t + 1))


def test_majority_error_frozen_values():
    """The Fraction reference at frozen values, and the integer count
    the library votes with (majority_wrong) equal to it."""
    assert majority_error(Fraction(1, 4), 3) == Fraction(5, 32)
    assert majority_error(Fraction(1, 2), 5) == Fraction(1, 2)
    assert majority_error(Fraction(0), 7) == 0
    assert majority_error(Fraction(1), 3) == 1
    for n, t in itertools.product((1, 2, 4, 7), (1, 3, 5, 7)):
        for wrong in range(n + 1):
            assert majority_wrong([wrong], n, t) == majority_error(Fraction(wrong, n), t) * n**t
    with pytest.raises(ParameterError):
        MajorityAmplified(HadamardIp(BitString.from01("1")), 2)


@pytest.mark.parametrize("t", [0, -1, 2, 1.5, 3.0, True, "3", None])
def test_repetition_count_is_an_odd_positive_int(t):
    """Majority and substring share one check: a bool, a float or a
    string is refused like an even count, not carried into a vote."""
    with pytest.raises(ParameterError):
        integer(t, "an odd t >= 1", 1, odd=True)
    with pytest.raises(ParameterError):
        MajorityAmplified(HadamardIp(BitString.from01("1")), t)
    with pytest.raises(ParameterError):
        SubstringHadamard(BitString.from01("1011"), 2, t=t)
    assert integer(3, "an odd t >= 1", 1, odd=True) == 3


def test_amplified_error_matches_binomial_tail():
    # dual route: enumerate all coin triples vs the closed form
    sch = HadamardIp(BitString.from01("11"))
    amp = MajorityAmplified(sch, 3)
    y = BitString.from01("10")
    assert amp.coin_count(y) == 64
    for flips in ([1], [2, 3], [1, 4]):
        pattern = CorruptionPattern(flips)
        base = exact_error(sch, y, pattern)
        assert exact_error(amp, y, pattern) == majority_error(base, 3)


def test_amplified_coin_enumeration_covers_all_tuples():
    sch = HadamardIp(BitString.from01("1"))
    amp = MajorityAmplified(sch, 3)
    y = BitString.from01("1")
    seen = {amp.coin_from_index(y, i) for i in range(amp.coin_count(y))}
    assert seen == set(itertools.product(range(2), repeat=3))


def test_amplified_budget():
    amp = MajorityAmplified(HadamardIp(BitString.from01("101")), 5)
    y = BitString.from01("001")
    assert amp.probe_budget(y) == 10
    oracle = RecordingOracle(amp.codeword, CorruptionPattern.empty(), 10)
    amp.decode_with_coins(oracle, y, amp.coin_from_index(y, 777))
    assert len(oracle.trace) == 10


def brute_linear_dmin(rows):
    s = len(rows)
    best = rows[0].n
    for v in range(1, 1 << s):
        acc = BitString.zeros(rows[0].n)
        for i in range(s):
            if (v >> (s - 1 - i)) & 1:
                acc = acc ^ rows[i]
        best = min(best, acc.weight)
    return best


def test_random_linear_code_distance_and_gamma():
    rng = random.Random(17)
    for _ in range(10):
        rows = [BitString.random(12, rng) for _ in range(3)]
        code = RandomLinearCode(3, 12, rows=rows)
        assert code.dmin == brute_linear_dmin(rows)
        assert code.gamma == max(
            Fraction(0), Fraction(1, 2) - Fraction(code.dmin, 12)
        )


@pytest.mark.parametrize("s, length", [(1, 1), (1, 5), (2, 9), (3, 63), (4, 65), (5, 130)])
def test_linear_code_matches_row_xor(s, length):
    """The column formula gives the row-XOR encoding at every message,
    bit_of reads the same bits, and dmin is the brute-force distance."""
    rng = random.Random(s * 1000 + length)
    for _ in range(3):
        rows = [BitString.random(length, rng) for _ in range(s)]
        code = RandomLinearCode(s, length, rows=rows)
        assert code.dmin == brute_linear_dmin(rows)
        for v in range(1 << s):
            x = BitString.from_int(s, v)
            want = BitString.zeros(length)
            for i in x.support():
                want = want ^ rows[i - 1]
            assert code.encode(x) == want
            assert code.bit_of(x, np.arange(1, length + 1)).tolist() == want.to_bit_array().tolist()


def test_linear_code_encode_is_linear():
    rng = random.Random(23)
    code = RandomLinearCode(4, 20, rng=rng)
    a = BitString.from01("1010")
    b = BitString.from01("0111")
    assert code.encode(a ^ b) == code.encode(a) ^ code.encode(b)
    word = code.encode(a)
    for j in range(1, 21):
        assert code.bit_of(a, j) == word.bit(j)


def test_hadamard_equality_code_is_balanced():
    code = HadamardCode(3)
    assert code.gamma == 0
    assert code.length // 2 == 4
    assert code.describe() == {"kind": "hadamard", "s": 3, "length": 8}
    x = BitString.from01("110")
    word = code.encode(x)
    for j in range(1, 9):
        assert code.bit_of(x, j) == word.bit(j)


def test_equality_noiseless_error_is_exactly_one_third():
    x = BitString.from01("10110")
    sch = EqualityScheme(x)
    assert exact_error(sch, x, CorruptionPattern.empty()) == Fraction(1, 3)
    for yv in (0, 7, 21):
        y = BitString.from_int(5, yv)
        if y == x:
            continue
        assert exact_error(sch, y, CorruptionPattern.empty()) == Fraction(1, 3)


def test_equality_raw_variant():
    x = BitString.from01("011")
    sch = EqualityScheme(x, balanced=False)
    assert exact_error(sch, x, CorruptionPattern.empty()) == 0
    y = BitString.from01("111")
    assert exact_error(sch, y, CorruptionPattern.empty()) == Fraction(1, 2)
    assert sch.probe_budget(y) == 1
    assert sch.coin_count(y) == 8


def test_equality_error_bound_under_noise():
    # every pattern of weight <= 2 on the 8-bit word, both query sides
    x = BitString.from01("101")
    sch = EqualityScheme(x)
    for w in range(3):
        for flips in itertools.combinations(range(1, 9), w):
            pattern = CorruptionPattern(flips)
            bound = Fraction(1, 3) + Fraction(2, 3) * Fraction(w, 8)
            for yv in range(8):
                y = BitString.from_int(3, yv)
                assert exact_error(sch, y, pattern) <= bound


def test_equality_unbalanced_code_hits_gamma_bound():
    # one generator row of weight 1: dmin 1, gamma 1/4, and the bound
    # 1/3 + 2*gamma/3 = 1/2 is achieved by the all-zero query
    code = RandomLinearCode(1, 4, rows=[BitString.from01("1000")])
    assert code.gamma == Fraction(1, 4)
    sch = EqualityScheme(BitString.from01("1"), code=code)
    err = exact_error(sch, BitString.from01("0"), CorruptionPattern.empty())
    assert err == Fraction(1, 2)
    assert err == Fraction(1, 3) + Fraction(2, 3) * code.gamma


def test_equality_rejects_mismatched_code():
    code = RandomLinearCode(2, 6, rng=random.Random(1))
    with pytest.raises(ParameterError):
        EqualityScheme(BitString.from01("101"), code=code)
