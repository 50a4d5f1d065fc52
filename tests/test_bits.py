"""Bit algebra and bounded-weight rank/unrank.

The rank/unrank expectations are frozen from an independent brute-force
enumeration: generate every n-bit string as text, filter by weight,
sort, and compare indices.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecds.bits import (
    BitString,
    BoundedWeightSpace,
    ball_size,
    dot_mod2,
    split_query,
)
from helpers import extract_substring


def brute_space(n, r):
    """All weight-<=r strings in lexicographic order, as text."""
    return [
        format(v, "0%db" % n) if n else ""
        for v in range(1 << n)
        if format(v, "b").count("1") <= r
    ]


def test_indexing_convention():
    b = BitString.from01("1010")
    assert b.bit(1) == 1 and b.bit(2) == 0 and b.bit(3) == 1 and b.bit(4) == 0
    assert b.value == 0b1010
    assert b.to01() == "1010"
    assert len(b) == 4
    assert list(b) == [1, 0, 1, 0]


def test_constructors_agree():
    assert BitString.zeros(5).to01() == "00000"
    assert BitString.unit(4, 2).to01() == "0100"
    assert BitString.from_indices(6, [1, 4]).to01() == "100100"
    assert BitString.from_int(4, 11).to01() == "1011"
    with pytest.raises(ValueError):
        BitString.from01("012")
    with pytest.raises(ValueError):
        BitString.from_int(3, 8)
    with pytest.raises(ValueError):
        BitString.unit(4, 5)


def test_empty_string():
    e = BitString.from01("")
    assert len(e) == 0 and e.value == 0 and e.weight == 0
    assert e.to01() == ""


def test_support_and_weight():
    b = BitString.from01("0110100000000101")
    assert b.support() == (2, 3, 5, 14, 16)
    assert b.weight == 5


def test_algebra():
    a = BitString.from01("1100")
    b = BitString.from01("1010")
    assert (a ^ b).to01() == "0110"
    with pytest.raises(ValueError):
        a ^ BitString.from01("110")


def test_bit_array_roundtrip():
    b = BitString.from01("101101001")
    arr = b.to_bit_array()
    assert list(arr) == [1, 0, 1, 1, 0, 1, 0, 0, 1]
    assert BitString.from_bit_array(arr) == b


def test_dot_mod2():
    x = BitString.from01("1011")
    assert dot_mod2(x, BitString.from01("1000")) == 1
    assert dot_mod2(x, BitString.from01("1010")) == 0
    assert dot_mod2(x, BitString.zeros(4)) == 0


def test_extract_substring_example():
    x = BitString.from01("10110100")
    y = BitString.from01("01010001")
    assert extract_substring(x, y).to01() == "010"
    assert extract_substring(x, BitString.zeros(8)).to01() == ""


def test_split_query_example():
    y = BitString.from01("10100")
    pieces = split_query(y, 3)
    assert [p.to01() for p in pieces] == ["10000", "00100", "00000"]


def test_split_query_properties():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 24)
        y = BitString.random(n, rng)
        p = rng.randrange(1, 6)
        pieces = split_query(y, p)
        assert len(pieces) == p
        acc = BitString.zeros(n)
        cap = math.ceil(y.weight / p)
        for piece in pieces:
            assert piece.weight <= cap
            acc = acc ^ piece
        assert acc == y
        # pieces are disjoint, so weights add up
        assert sum(piece.weight for piece in pieces) == y.weight


def test_ball_size_matches_comb_sum():
    for n in range(9):
        for r in range(n + 1):
            assert ball_size(n, r) == sum(math.comb(n, i) for i in range(r + 1))
    assert ball_size(4, 2) == 11
    assert ball_size(64, 2) == 1 + 64 + 2016


def test_rank_unrank_against_brute_force():
    for n in range(1, 9):
        for r in range(n + 1):
            space = BoundedWeightSpace(n, r)
            expect = brute_space(n, r)
            assert space.size() == len(expect)
            got = [space.unrank(k).to01() for k in range(space.size())]
            assert got == expect
            for k, text in enumerate(expect):
                assert space.rank(BitString.from01(text)) == k


def test_unrank_frozen_values():
    space = BoundedWeightSpace(3, 2)
    assert space.unrank(0).to01() == "000"
    assert space.unrank(3).to01() == "011"
    assert space.unrank(6).to01() == "110"
    assert space.size() == 7
    with pytest.raises(ValueError):
        space.unrank(7)
    with pytest.raises(ValueError):
        space.rank(BitString.from01("111"))


def padded_support(space, k):
    support = space.unrank(k).support()
    return list(support) + [0] * (space.r - len(support))


@pytest.mark.parametrize("n, r", [(0, 0), (1, 1), (5, 0), (6, 2), (8, 8), (12, 4)])
def test_unrank_rows_match_unrank(n, r):
    space = BoundedWeightSpace(n, r)
    rows = space.unrank_rows(list(range(space.size())))
    assert rows.dtype == np.int64 and rows.shape == (space.size(), r)
    assert rows.tolist() == [padded_support(space, k) for k in range(space.size())]
    for bad in ([-1], [space.size()]):
        with pytest.raises(ValueError):
            space.unrank_rows(bad)


@pytest.mark.parametrize(
    "n, r", [(3, 0), (1, 1), (64, 2), (300, 3), (64, 31), (63, 63)],
    ids=["size-1", "size-2", "2081", "4.5M", "near-2^63", "2^63"],
)
def test_batched_draws_replay_scalar_draws(n, r):
    """One rng.integers call for all ranks, then unrank_rows, gives the
    supports of one rng.integers and one unrank per draw, on the running
    numpy: bounds from 1 up to 2^63, the largest an int64 draw takes."""
    space = BoundedWeightSpace(n, r)
    assert space.size() <= 1 << 63
    rows = space.unrank_rows(np.random.default_rng(11).integers(space.size(), size=60))
    rng = np.random.default_rng(11)
    assert rows.tolist() == [padded_support(space, int(rng.integers(space.size()))) for _ in range(60)]


def test_unrank_rows_refuse_spaces_past_int64():
    """Past 2^63 strings neither a batch nor a scalar draw fits int64."""
    space = BoundedWeightSpace(64, 32)
    assert space.size() > 1 << 63
    with pytest.raises(ValueError):
        space.unrank_rows([0])
    with pytest.raises(ValueError):
        np.random.default_rng(0).integers(space.size())


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40), st.data())
def test_rank_unrank_roundtrip(n, data):
    r = data.draw(st.integers(0, n))
    space = BoundedWeightSpace(n, r)
    k = data.draw(st.integers(0, space.size() - 1))
    assert space.rank(space.unrank(k)) == k


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**24 - 1))
def test_value_roundtrip(v):
    b = BitString.from_int(24, v)
    assert b.value == v
    assert BitString.from01(b.to01()) == b
    assert b.weight == bin(v).count("1")


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 64), st.data())
def test_flip_involution(n, data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    b = BitString.random(n, rng)
    idx = data.draw(
        st.lists(st.integers(1, n), min_size=0, max_size=n, unique=True)
    )
    mask = BitString.from_indices(n, idx)
    assert b ^ mask ^ mask == b
