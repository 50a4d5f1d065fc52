"""Structures answering inner products x.y mod 2 for low-weight y,
and substring extraction; three routes with different probe/length
trade-offs.

TableIp stores the answer for every query piece of weight <= ceil(r/p)
and reads p table cells.  PolySharedIp additively shares the evaluation
point of a degree-(p-1) polynomial whose value at a query's
characteristic point is the answer; each of p blocks tabulates one
share's worth, and corrupting a delta_j fraction of block j adds at most
delta_j to the error, so the total is at most p*delta.  SubstringHadamard
concatenates per-chunk Hadamard encodings and recovers each requested bit
with 2 probes (times an odd repetition factor under majority voting).
"""

from __future__ import annotations

import math
from itertools import combinations, islice
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bits import (
    BitString,
    BoundedWeightSpace,
    ball_size,
    dot_mod2,
    split_query,
)
from .errors import MAX_EXPONENT, InfeasibleSizeError, ParameterError, desk_scale, integer
from .hadamard import HadamardCode, PairReads, PairReadScheme, xor_all
from .oracle import MC_BLOCK, Codeword, Scheme


class LowWeightQueries(Scheme):
    """Queries are the length-n strings of weight at most r."""

    def check_query(self, query: BitString) -> None:
        super().check_query(query)
        if query.weight > self.r:
            raise ParameterError("query weight exceeds r")

    def queries(self):
        return iter(BoundedWeightSpace(self.x.n, self.r))

    def random_query(self, rng) -> BitString:
        space = BoundedWeightSpace(self.x.n, self.r)
        return space.unrank(rng.randrange(space.size()))


# -- plain table ------------------------------------------------------

# TableIp reads p cells, one per piece split_query builds in a loop over p
MAX_TABLE_PROBES = 4096


def table_ip_length(n: int, r: int, p: int = 1) -> int:
    """Length of the p-probe table structure, one bit per piece of weight
    <= ceil(r/p).  ip-table's parameter check, on r, p and the desk scale
    of the table and of the n data bits its file holds."""
    integer(r, "0 <= r <= n", 0, n)
    integer(p, "p >= 1", 1)
    if p > MAX_TABLE_PROBES:
        raise InfeasibleSizeError("%d probes is beyond desk scale" % p)
    # a weight past MAX_EXPONENT + 1 only adds to a ball already past desk scale
    length = ball_size(n, min(-(-r // p), MAX_EXPONENT + 1))
    desk_scale("ip-table length", max(length, n))
    return length


class TableIp(LowWeightQueries):
    """Table of x.z for every z of weight <= ceil(r/p); p-probe decode.

    The decoder splits y into p pieces of weight <= ceil(r/p), reads the
    table cell of each piece, and XORs.  It is deterministic: the coin
    space is a single point.
    """

    name = "ip-table"
    kind = "ip-table"
    header_fields = ("r", "p")

    def __init__(self, x: BitString, r: int, p: int = 1):
        table_ip_length(x.n, r, p)
        self.x = x
        self.r = r
        self.p = p
        self.space = BoundedWeightSpace(x.n, math.ceil(r / p))
        self.codeword = Codeword(self._build_table())

    def _build_table(self) -> BitString:
        """x.z for every z of the space, in rank order: the sum mod 2 of
        x's bits at z's one-positions (`unrank_rows`, whose 0 padding
        reads a zero bit), MC_BLOCK ranks at a time."""
        xbits = np.concatenate(([0], self.x.to_bit_array()))
        size = self.space.size()
        bits = np.empty(size, dtype=np.uint8)
        for lo in range(0, size, MC_BLOCK):
            rows = self.space.unrank_rows(np.arange(lo, min(lo + MC_BLOCK, size)))
            bits[lo : lo + MC_BLOCK] = xbits[rows].sum(axis=1) & 1
        return BitString.from_bit_array(bits)

    def probe_budget(self, query) -> int:
        return self.p

    def coin_radices(self, query) -> Tuple[int, ...]:
        return (1,)

    def probe_positions(self, query: BitString) -> List[int]:
        return [self.space.rank(piece) + 1 for piece in split_query(query, self.p)]

    def plan(self, query: BitString, coins: np.ndarray):
        self.check_query(query)
        positions = np.array(self.probe_positions(query), dtype=np.int64)
        return np.tile(positions, (len(coins), 1)), xor_all

    def truth(self, query: BitString) -> int:
        self.check_query(query)
        return dot_mod2(self.x, query)

    def params(self) -> Dict[str, object]:
        return {"n": self.x.n, "r": self.r, "p": self.p, "x": self.x.to01()}


# -- substring via concatenated Hadamard pieces -----------------------


def substring_length(n: int, r: int, t: int = 1) -> int:
    """Length of r Hadamard pieces of ceil(n/r) bits each: substring's
    parameter check, on r, t and the pieces' desk scale."""
    integer(t, "an odd repetition count t >= 1", 1, odd=True)
    return desk_scale("substring length", integer(r, "1 <= r <= n", 1, n), -(-n // r))


class SubstringHadamard(LowWeightQueries, PairReadScheme):
    """Answers x restricted to the one-positions of y, weight(y) <= r.

    x is cut into r chunks of c = ceil(n/r) bits (the last zero-padded)
    and each chunk is Hadamard-encoded.  A requested bit i lives in chunk
    (i-1)//c + 1 and is read with the 2-probe unit-query decode on that
    piece, repeated t times under majority when t > 1 (reads(): one read
    per bit).  Flipping a quarter of one piece already drives two of its
    bits to error 1/2, so per-bit guarantees die at delta = 1/(4r) no
    matter the repetition.
    """

    name = "substring-hadamard"
    kind = "substring"
    header_fields = ("r", "t")
    attacks = ("piece_killer", "block_killer")

    def __init__(self, x: BitString, r: int, t: int = 1):
        substring_length(x.n, r, t)
        self.x = x
        self.r = r
        self.t = t
        self.chunk = -(-x.n // r)
        self.code = HadamardCode(self.chunk)
        self.piece_len = self.code.length
        # piece k (0-based) encodes bits k*c+1..(k+1)*c of x zero-padded on
        # the right to r*c bits: chunks past n are zero
        padded = x.value << (r * self.chunk - x.n)
        mask = (1 << self.chunk) - 1
        chunks = [(padded >> ((r - 1 - k) * self.chunk)) & mask for k in range(r)]
        self.codeword = Codeword(self.code.encode_blocks(chunks))

    def bit_location(self, i: int) -> Tuple[int, int]:
        """Piece index (1-based) and local bit index of message bit i."""
        if not 1 <= i <= self.x.n:
            raise ParameterError("bit index out of range")
        return (i - 1) // self.chunk + 1, (i - 1) % self.chunk + 1

    def piece_offset(self, k: int) -> int:
        """Codeword positions of piece k start at piece_offset(k) + 1."""
        if not 1 <= k <= self.r:
            raise ParameterError("piece index out of range")
        return (k - 1) * self.piece_len

    def reads(self, queries) -> PairReads:
        """Per requested bit of each query, first to last: its piece, at its unit vector."""
        queries = self.checked(queries)
        i = np.array([j for query in queries for j in query.support()], dtype=np.int64) - 1
        piece, e = np.divmod(i, self.chunk)
        truth = self.x.to_bit_array()[i]
        widths = np.array([query.weight for query in queries], dtype=np.int64)
        base, unit = (piece * self.piece_len)[:, None], (1 << (self.chunk - 1 - e))[:, None]
        return PairReads(base, unit, truth, widths, self.piece_len, self.t)

    def answer(self, query: BitString, value) -> BitString:
        return BitString.from_int(query.weight, int(value))

    def piece_killer(self, budget: int, target=None) -> List[int]:
        """Corrupt a quarter of one piece: all z with two chosen coordinates
        set, which makes both of those bits decode to a fair coin.  The
        target is a bit index or a query mask, aiming at its first bit."""
        if self.chunk < 2:
            raise ParameterError("piece_killer needs pieces with at least 2 bits")
        i = 1 if target is None else target
        if isinstance(i, BitString):
            sup = i.support()
            i = sup[0] if sup else 1
        k, e = self.bit_location(i)
        e2 = e % self.chunk + 1
        mask = (1 << (self.chunk - e)) | (1 << (self.chunk - e2))
        hits = np.flatnonzero((np.arange(self.piece_len) & mask) == mask)
        return (self.piece_offset(k) + 1 + hits[: max(budget, 0)]).tolist()

    def params(self) -> Dict[str, object]:
        return {"n": self.x.n, "r": self.r, "t": self.t, "x": self.x.to01()}


# -- polynomial secret sharing ----------------------------------------


def _poly_m(n: int, d: int) -> int:
    """Smallest m with (m-1)^d < d^d * n <= m^d, i.e. ceil(d * n^(1/d))."""
    m = max(d, math.ceil(d * n ** (1.0 / d)))
    while (m - 1) ** d >= d**d * n:
        m -= 1
    while m**d < d**d * n:
        m += 1
    return m


def poly_ip_geometry(n: int, r: int, p: int) -> Dict[str, int]:
    """Degree, variable count, block length and total length of the
    p-block shared-polynomial structure: ip-poly's parameter check, on r,
    p and the blocks' desk scale."""
    integer(r, "1 <= r <= n", 1, n)
    integer(p, "p >= 2", 2)
    d = p - 1
    # m >= d and 2^m >= n: a share space already beyond desk scale at
    # that m is refused before m, which takes d^d
    desk_scale("ip-poly length", p, d * r * max(d, n.bit_length() - 1))
    m = _poly_m(n, d)  # m^d >= d^d n, so C(m, d) >= (m/d)^d >= n monomials
    exp = d * r * m
    length = desk_scale("ip-poly length", p, exp)
    return {
        "d": d,
        "m": m,
        "exponent": exp,
        "block_length": 1 << exp,
        "length": length,
    }


class PolySharedIp(LowWeightQueries):
    """p-probe inner products via additively shared polynomial evaluation.

    Data x becomes the multilinear polynomial p_x(z) = sum_i x_i *
    prod_{t in S_i} z_t over GF(2), where S_i is the i-th size-(p-1)
    subset of [m] in lexicographic order.  A query y of weight k maps to
    the point listing chi(S_i) for each one-position of y (r slots; short
    queries are padded with an unused subset's point, or the zero point
    when every subset is in use).  The point is split into p random XOR
    shares; expanding the polynomial in the shares yields monomials that
    each miss at least one share.  Block j tabulates, over the other p-1
    shares, those that miss share j and contain every share before it,
    built by inclusion-exclusion from p_x itself.  The decoder
    reads one position per block and XORs; each block's read is uniform
    over that block under uniform shares.
    """

    name = "ip-poly"
    kind = "ip-poly"
    header_fields = ("r", "p")

    def __init__(self, x: BitString, r: int, p: int):
        geo = poly_ip_geometry(x.n, r, p)
        self.x = x
        self.r = r
        self.p = p
        self.d = geo["d"]
        self.m = geo["m"]
        self.exponent = geo["exponent"]
        self.block_length = geo["block_length"]
        self.subsets: List[Tuple[int, ...]] = list(
            islice(combinations(range(1, self.m + 1), self.d), x.n + 1)
        )
        self.dummy: Optional[Tuple[int, ...]] = None
        if len(self.subsets) > x.n:
            self.dummy = self.subsets.pop()
        # p_x at every m-bit point, for p_x_copies
        self._p_x_table = np.zeros(1 << self.m, dtype=np.uint8)
        self._p_x_table[:] = self.p_x(np.arange(1 << self.m))
        self.codeword = Codeword(BitString.from_bit_array(self._build_tables().ravel()))

    # variable (l, t) of the rm-bit point vector: copy l in 1..r, var t
    # in 1..m; bit (l-1)*m + t counted from the left (index 1 first).

    def chi(self, subset: Sequence[int]) -> int:
        """Characteristic m-bit value of a variable subset."""
        v = 0
        for t in subset:
            v |= 1 << (self.m - t)
        return v

    def point_value(self, query: BitString) -> int:
        """The rm-bit evaluation point for a query, copies left to right."""
        self.check_query(query)
        sup = query.support()
        pad = self.chi(self.dummy) if self.dummy is not None else 0
        copies = [self.chi(self.subsets[i - 1]) for i in sup]
        copies += [pad] * (self.r - len(sup))
        v = 0
        for c in copies:
            v = (v << self.m) | c
        return v

    def _build_tables(self) -> np.ndarray:
        """The p block tables, uint8[p, block_length], MC_BLOCK addresses
        at a time.  The monomials inside a share set A sum to p_x_copies
        at the XOR of A's shares, so by inclusion-exclusion (signless
        over GF(2)) block j is the XOR, over the subsets U of the shares
        before j, of p_x_copies at the XOR of the shares outside {j} and
        U.  Shares 1..j-1 fill the first j-1 slots of block j's address,
        so block j+1 is block j XOR p_x_copies at each of block j's
        points XORed with slot j."""
        rm = self.r * self.m
        size = self.block_length
        tables = np.empty((self.p, size), dtype=np.uint8)
        for lo in range(0, size, MC_BLOCK):
            addr = np.arange(lo, min(lo + MC_BLOCK, size), dtype=np.int64)
            slots = [(addr >> (rm * k)) & ((1 << rm) - 1) for k in reversed(range(self.p - 1))]
            points = [np.bitwise_xor.reduce(slots)]  # the XOR of all slots, U empty
            bit = self.p_x_copies(points[0])
            tables[0, lo : lo + MC_BLOCK] = bit
            for j, slot in enumerate(slots, start=1):
                fresh = [q ^ slot for q in points]
                for q in fresh:
                    bit = bit ^ self.p_x_copies(q)
                points += fresh
                tables[j, lo : lo + MC_BLOCK] = bit
        return tables

    def probe_budget(self, query) -> int:
        return self.p

    def coin_radices(self, query) -> Tuple[int, ...]:
        return (self.block_length,)

    def shares_from_coins(self, query: BitString, coins):
        """All p shares, ints or arrays like coins: p-1 uniform from the
        coins, the last the complement so they XOR to the query's point."""
        rm = self.r * self.m
        shares = []
        rest = coins
        for _ in range(self.p - 1):
            rest, w = divmod(rest, 1 << rm)
            shares.append(w)
        acc = self.point_value(query)
        for w in shares:
            acc ^= w
        shares.append(acc)
        return shares

    def block_position(self, block_j: int, shares: Sequence):
        """Position block_j's decoder reads for these shares (arrays broadcast)."""
        rm = self.r * self.m
        addr = 0
        for j in range(1, self.p + 1):
            if j != block_j:
                addr = (addr << rm) | shares[j - 1]
        return (block_j - 1) * self.block_length + addr + 1

    def plan(self, query: BitString, coins: np.ndarray):
        """One read per block at the address its other shares spell."""
        shares = self.shares_from_coins(query, coins[:, 0])
        positions = [self.block_position(j, shares) for j in range(1, self.p + 1)]
        return np.stack(positions, axis=1), xor_all

    def truth(self, query: BitString) -> int:
        self.check_query(query)
        return dot_mod2(self.x, query)

    # -- evaluators (the table builder and the identity checks) -------

    def p_x(self, z):
        """Evaluate p_x at an m-bit point value, an int or an int64 array."""
        out = 0
        for i in self.x.support():
            mask = self.chi(self.subsets[i - 1])
            out ^= z & mask == mask
        return out

    def p_x_copies(self, point):
        """Evaluate the r-copy XOR of p_x at an rm-bit point value, an int
        or an int64 array: one lookup of p_x's table per copy."""
        out = 0
        mmask = (1 << self.m) - 1
        for l in range(self.r):
            out ^= self._p_x_table[(point >> (self.m * (self.r - 1 - l))) & mmask]
        return out

    def params(self) -> Dict[str, object]:
        return {
            "n": self.x.n,
            "r": self.r,
            "p": self.p,
            "d": self.d,
            "m": self.m,
            "x": self.x.to01(),
        }
