"""Table, shared-polynomial, and substring structures.

The polynomial scheme is checked through algebraic identities that hold
for every share tuple, not just sampled coins: the per-block tables must
XOR to the polynomial value at the XOR of the shares.
"""

import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from ecds.bits import BitString, BoundedWeightSpace, ball_size, dot_mod2
from ecds.errors import InfeasibleSizeError, ParameterError
from ecds.inner_product import (
    PolySharedIp,
    SubstringHadamard,
    TableIp,
    _poly_m,
    poly_ip_geometry,
    substring_length,
    table_ip_length,
)
from ecds.oracle import CorruptionPattern, exact_error
from helpers import RecordingOracle


# -- plain table ------------------------------------------------------


def test_table_length_frozen():
    assert table_ip_length(4, 2, 1) == 11
    assert table_ip_length(6, 4, 2) == 22
    assert table_ip_length(5, 5, 5) == 6
    with pytest.raises(ParameterError):
        table_ip_length(4, 5, 1)


def test_table_noiseless_exhaustive():
    rng = random.Random(4)
    for n in range(1, 6):
        x = BitString.random(n, rng)
        for r in range(n + 1):
            for p in range(1, 4):
                sch = TableIp(x, r, p)
                assert sch.codeword.n == table_ip_length(n, r, p)
                for y in sch.queries():
                    oracle = sch.oracle()
                    assert sch.decode_with_coins(oracle, y, (0,)) == dot_mod2(x, y)
                    assert oracle.used == p


def test_table_is_deterministic():
    sch = TableIp(BitString.from01("1101"), 2, 2)
    y = BitString.from01("0101")
    assert sch.coin_count(y) == 1
    assert sch.coin_from_index(y, 0) == (0,)


def test_table_single_probe_error_is_cell_indicator():
    x = BitString.from01("10110")
    sch = TableIp(x, 2, 1)
    space = BoundedWeightSpace(5, 2)
    rng = random.Random(8)
    pattern = CorruptionPattern.random(sch.codeword.n, 3, rng)
    for y in sch.queries():
        hit = (space.rank(y) + 1) in pattern
        assert exact_error(sch, y, pattern) == Fraction(1 if hit else 0)


@pytest.mark.parametrize(
    "n, r, p",
    [(1, 0, 1), (5, 5, 5), (10, 4, 1), (30, 3, 1), (63, 2, 1), (64, 3, 2), (70, 2, 1), (79, 0, 2)],
)
def test_table_matches_per_query_dot_products(n, r, p):
    """The table, gathered from `unrank_rows` a block of ranks at a time,
    holds dot_mod2(x, z) for every z in the space's iteration order, on
    both sides of 63 bits (n = 30, r = 3 spans two blocks)."""
    x = BitString.random(n, random.Random(n * 100 + r))
    sch = TableIp(x, r, p)
    expect = [dot_mod2(x, z) for z in BoundedWeightSpace(n, math.ceil(r / p))]
    assert sch.codeword.bits.to_bit_array().tolist() == expect


@pytest.mark.parametrize("r, p", [(5, 1), (9, 3), (-1, 1)])
def test_table_rejects_r_outside_0_to_n(r, p):
    with pytest.raises(ParameterError, match="0 <= r <= n"):
        TableIp(BitString.from01("1011"), r, p)


@pytest.mark.parametrize(
    "build",
    [lambda x: TableIp(x, 1.5), lambda x: TableIp(x, 2, 1.0), lambda x: SubstringHadamard(x, True)],
    ids=["table-r-float", "table-p-float", "substring-r-bool"],
)
def test_parameters_that_are_not_ints_are_refused(build):
    """r = 1.5, p = 1.0 and r = True once built, and their reports said
    so; the length functions take ints only."""
    with pytest.raises(ParameterError):
        build(BitString.from01("1011"))


def test_table_rejects_bad_queries():
    sch = TableIp(BitString.from01("101"), 1, 1)
    with pytest.raises(ParameterError):
        sch.truth(BitString.from01("11"))
    with pytest.raises(ParameterError):
        sch.truth(BitString.from01("110"))


# -- shared polynomial ------------------------------------------------


def test_poly_m_is_exact_integer_root():
    for n in range(1, 200):
        for d in range(1, 5):
            m = _poly_m(n, d)
            assert (m - 1) ** d < d**d * n <= m**d


def test_poly_geometry_frozen():
    g = poly_ip_geometry(2, 1, 2)
    assert (g["d"], g["m"], g["length"]) == (1, 2, 8)
    g = poly_ip_geometry(4, 1, 3)
    assert (g["d"], g["m"], g["length"]) == (2, 4, 768)
    assert poly_ip_geometry(2, 1, 2)["length"] == 8
    assert poly_ip_geometry(4, 1, 3)["length"] == 768
    with pytest.raises(ParameterError):
        poly_ip_geometry(4, 1, 1)


def test_poly_point_recovers_bits():
    # p_x at the i-th characteristic point is exactly bit i
    for xv in range(16):
        sch = PolySharedIp(BitString.from_int(4, xv), 1, 3)
        for i in range(1, 5):
            assert sch.p_x(sch.chi(sch.subsets[i - 1])) == sch.x.bit(i)
        if sch.dummy is not None:
            assert sch.p_x(sch.chi(sch.dummy)) == 0
        assert sch.p_x(0) == 0


def test_poly_point_value_matches_truth():
    rng = random.Random(13)
    for n, r, p in ((2, 1, 2), (3, 2, 2), (4, 1, 3), (4, 2, 2)):
        x = BitString.random(n, rng)
        sch = PolySharedIp(x, r, p)
        for y in sch.queries():
            assert sch.p_x_copies(sch.point_value(y)) == dot_mod2(x, y)


def test_poly_share_identity_exhaustive_p2():
    # blocks must XOR to the polynomial at w1 ^ w2 for EVERY share pair
    x = BitString.from01("101")
    sch = PolySharedIp(x, 2, 2)
    rm = sch.r * sch.m
    for w1 in range(1 << rm):
        for w2 in range(1 << rm):
            bits, block = sch.codeword.bits, sch.block_position
            total = bits.bit(block(1, [w1, w2])) ^ bits.bit(block(2, [w1, w2]))
            assert total == sch.p_x_copies(w1 ^ w2)


def test_poly_share_identity_exhaustive_p3():
    x = BitString.from01("1011")
    sch = PolySharedIp(x, 1, 3)
    rm = sch.r * sch.m
    for shares in itertools.product(range(1 << rm), repeat=3):
        total = 0
        for j in (1, 2, 3):
            total ^= sch.codeword.bits.bit(sch.block_position(j, shares))
        assert total == sch.p_x_copies(shares[0] ^ shares[1] ^ shares[2])


def monomial_tables(sch):
    """Reference block tables from the share expansion itself: every
    monomial of p_x_copies in the shares, a set of (share, copy, var)
    triples, goes to the block of the first share it misses and is
    tabulated there as one mask over the block's address, the other
    shares leftmost first."""
    parity = {}
    for i in sch.x.support():
        s_i = sch.subsets[i - 1]
        for l in range(1, sch.r + 1):
            for shares in itertools.product(range(1, sch.p + 1), repeat=sch.d):
                mono = frozenset((shares[k], l, s_i[k]) for k in range(sch.d))
                parity[mono] = parity.get(mono, 0) ^ 1
    rm = sch.r * sch.m
    v = np.arange(sch.block_length, dtype=np.uint64)
    tables = np.zeros((sch.p, sch.block_length), dtype=np.uint8)
    for mono, live in parity.items():
        if not live:
            continue
        j = min(set(range(1, sch.p + 1)) - {share for share, _, _ in mono})
        others = [k for k in range(1, sch.p + 1) if k != j]
        mask = 0
        for share, l, t in mono:
            offset = others.index(share) * rm + (l - 1) * sch.m + (t - 1)
            mask |= 1 << (sch.exponent - 1 - offset)
        mask = np.uint64(mask)
        tables[j - 1] ^= (v & mask) == mask
    return tables


@pytest.mark.parametrize(
    "n, r, p",
    [(2, 1, 2), (5, 2, 2), (4, 1, 3), (3, 2, 3), (1, 1, 4), (2, 1, 4), (1, 1, 5)],
)
def test_poly_tables_match_monomial_expansion(n, r, p):
    """The inclusion-exclusion tables store the same bytes as the
    monomial-by-monomial expansion, for x = 0, all ones and random x."""
    rng = random.Random(n * 100 + r * 10 + p)
    for xv in (0, (1 << n) - 1, rng.getrandbits(n), rng.getrandbits(n)):
        sch = PolySharedIp(BitString.from_int(n, xv), r, p)
        want = BitString.from_bit_array(monomial_tables(sch).ravel())
        assert sch.codeword.bits == want, (n, r, p, xv)


def test_poly_evaluators_take_arrays():
    """p_x and p_x_copies agree elementwise on int64 arrays and ints."""
    sch = PolySharedIp(BitString.from01("10110"), 2, 2)
    points = np.arange(1 << (sch.r * sch.m), dtype=np.int64)
    assert sch.p_x_copies(points).tolist() == [sch.p_x_copies(int(z)) for z in points]
    assert sch.p_x(points % (1 << sch.m)).tolist() == [
        sch.p_x(int(z) % (1 << sch.m)) for z in points
    ]


@pytest.mark.parametrize(
    "n, r, p",
    [(3, 1, 2), (8, 2, 2), (5, 3, 2), (4, 1, 3), (6, 2, 3), (2, 1, 4), (5, 1, 4)],
)
def test_poly_lookup_matches_evaluator(n, r, p):
    """p_x_copies reads a table of p_x over its 2^m points: the table is
    p_x at every point, and p_x_copies is the XOR of p_x over the r
    copies at every rm-bit point (4096 random ones past 2^12)."""
    rng = random.Random(n * 100 + r * 10 + p)
    for xv in (0, (1 << n) - 1, rng.getrandbits(n)):
        sch = PolySharedIp(BitString.from_int(n, xv), r, p)
        m = sch.m
        assert sch._p_x_table.tolist() == [sch.p_x(z) for z in range(1 << m)]
        rm = r * m
        points = range(1 << rm) if rm <= 12 else [rng.getrandbits(rm) for _ in range(4096)]
        want = [
            sum(sch.p_x((z >> (m * (r - 1 - l))) & ((1 << m) - 1)) for l in range(r)) % 2
            for z in points
        ]
        assert sch.p_x_copies(np.array(points, dtype=np.int64)).tolist() == want, (n, r, p, xv)


def test_poly_shares_xor_to_point():
    sch = PolySharedIp(BitString.from01("1101"), 2, 2)
    y = BitString.from01("0101")
    for coins in range(0, sch.coin_count(y), 7):
        shares = sch.shares_from_coins(y, coins)
        acc = 0
        for w in shares:
            acc ^= w
        assert acc == sch.point_value(y)


def test_poly_noiseless_decode_all_coins():
    x = BitString.from01("11")
    sch = PolySharedIp(x, 1, 2)
    assert sch.codeword.n == 8
    for y in sch.queries():
        assert exact_error(sch, y, CorruptionPattern.empty()) == 0


def test_poly_noiseless_decode_sampled():
    rng = random.Random(19)
    x = BitString.from01("0110")
    sch = PolySharedIp(x, 1, 3)
    for y in sch.queries():
        for _ in range(30):
            oracle = sch.oracle()
            assert sch.decode(oracle, y, rng) == sch.truth(y)
            assert oracle.used == 3


def test_poly_block_error_additivity_exhaustive():
    # every corruption pattern on the 8-bit structure, every query:
    # error <= sum over blocks of (flips in block / block length)
    x = BitString.from01("10")
    sch = PolySharedIp(x, 1, 2)
    n = sch.codeword.n
    bl = sch.block_length
    for mask in range(1 << n):
        flips = [j + 1 for j in range(n) if (mask >> j) & 1]
        pattern = CorruptionPattern(flips)
        bound = sum(
            Fraction(sum(1 for f in flips if (f - 1) // bl == j), bl)
            for j in range(sch.p)
        )
        for y in sch.queries():
            assert exact_error(sch, y, pattern) <= bound


def test_poly_probe_positions_stay_in_blocks():
    sch = PolySharedIp(BitString.from01("1010"), 1, 3)
    y = BitString.from01("0010")
    rng = random.Random(3)
    for _ in range(20):
        oracle = RecordingOracle(sch.codeword, CorruptionPattern.empty(), 3)
        sch.decode(oracle, y, rng)
        blocks = sorted((pos - 1) // sch.block_length for pos in oracle.trace)
        assert blocks == [0, 1, 2]


def test_poly_weight_zero_query_decodes_zero():
    sch = PolySharedIp(BitString.from01("1111"), 2, 2)
    y = BitString.zeros(4)
    assert sch.truth(y) == 0
    assert exact_error(sch, y, CorruptionPattern.empty()) == 0


def test_poly_rejects_overweight_query():
    sch = PolySharedIp(BitString.from01("111"), 1, 2)
    with pytest.raises(ParameterError):
        sch.point_value(BitString.from01("110"))


# -- substring --------------------------------------------------------


def test_substring_length_frozen():
    assert substring_length(8, 4) == 16
    assert substring_length(6, 3) == 12
    assert substring_length(5, 2) == 16
    with pytest.raises(ParameterError):
        substring_length(4, 0)


def test_substring_noiseless_exhaustive():
    rng = random.Random(6)
    for n in range(1, 7):
        x = BitString.random(n, rng)
        for r in range(1, min(n, 4) + 1):
            sch = SubstringHadamard(x, r)
            assert sch.codeword.n == substring_length(n, r)
            for y in sch.queries():
                assert exact_error(sch, y, CorruptionPattern.empty()) == 0


def test_substring_majority_noiseless():
    x = BitString.from01("110100")
    sch = SubstringHadamard(x, 3, t=3)
    rng = random.Random(21)
    for y in sch.queries():
        for _ in range(5):
            oracle = sch.oracle(query=y)
            assert sch.decode(oracle, y, rng) == sch.truth(y)
            assert oracle.used == 6 * y.weight


def test_substring_geometry():
    sch = SubstringHadamard(BitString.from01("10110100"), 4)
    assert sch.chunk == 2 and sch.piece_len == 4
    assert sch.bit_location(1) == (1, 1)
    assert sch.bit_location(2) == (1, 2)
    assert sch.bit_location(3) == (2, 1)
    assert sch.bit_location(8) == (4, 2)
    assert [sch.piece_offset(k) for k in (1, 2, 3, 4)] == [0, 4, 8, 12]
    y = BitString.from01("01010001")
    assert sch.probe_budget(y) == 6
    assert sch.coin_count(y) == 64


def parity_bits(s, v):
    """v's length-2^s Hadamard codeword by its per-position definition:
    position z (0-based) holds parity(z & v), as a 0/1 uint8 array."""
    vals = np.arange(1 << s, dtype=np.uint64)
    return (np.bitwise_count(vals & np.uint64(v)) & 1).astype(np.uint8)


@pytest.mark.parametrize("n, r", [(1, 1), (5, 2), (5, 4), (7, 7), (12, 3), (40, 5), (70, 7)])
def test_substring_codeword_is_per_chunk_encodings(n, r):
    """The one-call block encoding equals each chunk's own codeword in
    turn, chunks running past n (n = 5, r = 4: the last holds no bit of x)
    encoding their zero padding."""
    x = BitString.random(n, random.Random(n * 10 + r))
    sch = SubstringHadamard(x, r)
    c = sch.chunk
    padded = x.to01() + "0" * (r * c - n)
    pieces = [parity_bits(c, int(padded[k * c : (k + 1) * c], 2)) for k in range(r)]
    assert sch.codeword.bits == BitString.from_bit_array(np.concatenate(pieces))


def test_substring_zero_padding_of_last_piece():
    # n = 5, r = 2: second chunk holds bits 4,5 padded with a zero
    x = BitString.from01("10111")
    sch = SubstringHadamard(x, 2)
    y = BitString.from01("00011")
    assert sch.truth(y).to01() == "11"
    assert exact_error(sch, y, CorruptionPattern.empty()) == 0


def test_substring_quarter_piece_flip_gives_half_error():
    # flip the one position of piece 1 whose offset has both low bits set;
    # each bit of that piece then fails on exactly half the offsets, at
    # any odd repetition count
    x = BitString.from01("1011")
    for t in (1, 3):
        sch = SubstringHadamard(x, 2, t=t)
        pattern = CorruptionPattern([4])  # offset 3 of piece 1
        for i in (1, 2):
            y = BitString.unit(4, i)
            assert exact_error(sch, y, pattern) == Fraction(1, 2)
    # the other piece is untouched
    sch = SubstringHadamard(x, 2)
    assert exact_error(sch, BitString.unit(4, 3), CorruptionPattern([4])) == 0


def test_piece_killer_is_first_offsets_with_both_bits_set():
    # reference: scan the target's piece offset by offset
    sch = SubstringHadamard(BitString.from01("101100111010"), 3)
    for target in (None, 1, 4, 6, 12, BitString.from_indices(12, [5, 9])):
        i = 1 if target is None else target
        if isinstance(i, BitString):
            i = i.support()[0]
        k, e = sch.bit_location(i)
        mask = (1 << (sch.chunk - e)) | (1 << (sch.chunk - e % sch.chunk - 1))
        both = [sch.piece_offset(k) + z + 1 for z in range(sch.piece_len) if z & mask == mask]
        assert len(both) == sch.piece_len // 4
        for budget in (0, 1, 3, len(both), sch.piece_len + 1):
            assert sch.piece_killer(budget, target) == both[:budget]


def test_substring_rejects_bad_parameters():
    x = BitString.from01("1010")
    with pytest.raises(ParameterError):
        SubstringHadamard(x, 2, t=2)
    with pytest.raises(ParameterError):
        SubstringHadamard(x, 5)
    sch = SubstringHadamard(x, 2)
    with pytest.raises(ParameterError):
        sch.truth(BitString.from01("111"))
    with pytest.raises(ParameterError):
        sch.probe_budget(BitString.from01("1110"))
