"""Hadamard-code structures: 2-probe inner products, majority
amplification, and the 1-probe equality scheme.

The length-2^s Hadamard encoding of x lists x.y mod 2 for every y in
{0,1}^s; position j holds the product with the y whose value is j-1.
Reading positions z and z^y and XORing recovers x.y through any
corruption that misses both probes, so the decoding error is at most
twice the corrupted fraction, for every flip pattern.  Every decoder
that reads Hadamard pieces so (this inner product, substring extraction,
composed membership) is a PairReadScheme, described by its reads alone.
A majority of t runs counts in integers wherever its inner scheme counts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .bits import BitString
from .errors import MAX_EXPONENT, InfeasibleSizeError, ParameterError, desk_scale, integer
from .oracle import (
    MC_BLOCK,
    Codeword,
    CorruptionPattern,
    Scheme,
    SwapCounts,
    flip_mask,
    packed_bits,
)


def _codewords(s: int) -> List[int]:
    """The length-2^s Hadamard codewords of every value v < 2^s, indexed
    by v, as ints whose most significant bit is position 0: each step
    doubles every word, appending a copy that is inverted for the values
    whose next bit is set."""
    words = [0]
    for k in range(s):
        half = 1 << k
        words = [w << half | w ^ inv for inv in (0, (1 << half) - 1) for w in words]
    return words


# HadamardCode.encode starts from one of these, past eight doublings
_HEADS = _codewords(8)


class HadamardCode:
    """The [2^s, s] Hadamard code with 1-based positions.

    Every nonzero codeword has weight exactly half the length, so as an
    equality code its balance defect gamma is zero.  Codewords are built
    as packed bytes, never one entry per position: `encode` builds one
    (had-ip, equality, and their loads), `encode_blocks` many at once
    (substring pieces and composed membership blocks).  The constructor
    is the parameter check of had-ip and Hadamard equality.
    """

    gamma = Fraction(0)

    def __init__(self, s: int):
        if s < 1:
            raise ParameterError("need s >= 1")
        if s > MAX_EXPONENT:
            raise InfeasibleSizeError("2^%d positions is beyond desk scale" % s)
        self.s = s
        self.length = 1 << s

    def encode_blocks(self, values: np.ndarray) -> BitString:
        """The codewords of a batch of message values, concatenated.

        For s >= 3 they are built as packed bytes in one pass: position
        8q + r of v's codeword is parity(r & v) ^ parity(q & (v >> 3)), so
        the first 64 positions are packed from their parities, and for
        2^k <= q < 2^(k+1) byte q is byte q - 2^k, inverted when bit k + 3
        of v is set.  Shorter codewords are packed bit by bit."""
        values = np.asarray(values, dtype=np.int64).reshape(-1)
        if values.size and (values.min() < 0 or values.max() >= self.length):
            raise ParameterError("message value out of range")
        head = (np.bitwise_count(values[:, None] & np.arange(min(self.length, 64))) & 1).astype(np.uint8)
        if self.s < 3:
            return BitString.from_bit_array(head.ravel())
        out = np.empty((len(values), self.length // 8), dtype=np.uint8)
        out[:, : min(self.length, 64) // 8] = np.packbits(head, axis=1)
        invert = ((values[:, None] >> np.arange(3, self.s)) & 1).astype(np.uint8) * np.uint8(0xFF)
        for k in range(min(self.s, 6) - 3, self.s - 3):
            np.bitwise_xor(out[:, : 1 << k], invert[:, k, None], out=out[:, 1 << k : 2 << k])
        return BitString(len(values) * self.length, out.tobytes())

    def encode(self, x: BitString) -> BitString:
        """x's codeword, built as one packed word by doubling.

        Position z (0-based) holds parity(z & v), v = x.value, so the first
        2L positions are the first L followed by the same L, inverted when
        bit log2(L) of v is set.  The word is a Python int, position 0 its
        most significant bit, read from a table for the first 8 steps; a
        sub-byte codeword (s < 3) is shifted left so that its pad bits are
        zero.  The peak is about 2.7 times the 2^s/8 packed bytes (the
        last step's word, inverted word and mask, as ints that use 30 bits
        of every 32)."""
        if x.n != self.s:
            raise ParameterError("message length does not match s")
        v, k0 = x.value, min(self.s, 8)
        # the first 2^k0 positions of v's codeword start its table entry
        word = _HEADS[v & 0xFF] >> (256 - (1 << k0))
        for k in range(k0, self.s):
            half = 1 << k
            word = (word << half) | word
            if v >> k & 1:
                word ^= (1 << half) - 1
        if self.s < 3:
            word <<= 8 - self.length
        return BitString(self.length, word.to_bytes(-(-self.length // 8), "big"))

    def bit_of(self, x: BitString, j):
        """Bit j of x's codeword; j may be an array of positions."""
        return np.bitwise_count(np.asarray(j - 1, dtype=np.uint64) & np.uint64(x.value)) & 1

    def describe(self) -> Dict[str, object]:
        return {"kind": "hadamard", "s": self.s, "length": self.length}


class PairReads(NamedTuple):
    """How a pair-read decoder answers a batch of queries, whose answer
    bits are numbered in one sequence: query q's are the next widths[q],
    the first most significant, and bit i's true value is truth[i].  Each
    bit picks one of its k reads uniformly, and takes the majority over t
    picks.  Read (i, j) XORs offsets z and z xor unit[i, j] of the
    length-`length` Hadamard piece stored after 0-based position
    base[i, j].  With `fallback`, each pick also draws a bit that answers
    where the unit is 0; without, a unit-0 read reads z twice.  Query q's
    coins have widths[q]*t digits, bit by bit, then pick by pick, each
    below k * (2 if fallback else 1) * length: the pick, the fallback bit, z.
    """

    base: np.ndarray  # int64[bits, k]
    unit: np.ndarray  # int64[bits, k]
    truth: np.ndarray  # 0/1 integers [bits]
    widths: np.ndarray  # int64[queries]
    length: int
    t: int = 1
    fallback: bool = False


def pair_read_counter(codeword: Codeword, pattern: CorruptionPattern):
    """Exact wrong counts of pair reads under `pattern`, no offset enumerated.

    Returns count(base, unit, truth, length), int64 arrays, one entry a
    read, and the pieces' length: for the read of offsets z and z xor unit
    in the piece stored after 0-based position base (a multiple of length),
    how many of the `length` offsets z XOR to something other than truth.

    With F the piece's flips, an offset is hit exactly when one of its
    two probes is flipped, which happens on D = 2|{f in F : f^unit not
    in F}| offsets.  The clean read at any offset is the uncorrupted bit
    at unit, so the count is D where that bit equals truth and
    length - D where it does not.  The flips are sorted and masked once
    per pattern; each distinct read, by its (base, unit), costs O(|F|),
    however many reads of the call repeat it.  Reads are counted in runs,
    by the stretch of max(MC_BLOCK, |F|) gathered flips they start in, so
    memory stays linear in |F| however many reads one call counts.
    """
    flips = pattern.array - 1  # 0-based, ascending
    flipped = flip_mask(pattern, codeword.n)
    clean = np.frombuffer(codeword.bits._data, dtype=np.uint8)
    run = max(MC_BLOCK, len(flips))

    def count(base, unit, truth, length) -> np.ndarray:
        # the distinct reads, ascending, and each read's place among
        # them; pieces are aligned to their length, a power of two, so
        # base + unit splits back into the two
        key = base + unit
        order = key.argsort()
        key = key[order]
        new = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=new[1:])
        read = np.empty_like(order)
        read[order] = new.cumsum() - 1
        key = key[new]
        base, unit = key & -length, key & (length - 1)
        lo = np.searchsorted(flips, base)
        sizes = np.searchsorted(flips, base + length) - lo
        starts = np.cumsum(sizes) - sizes
        cuts = [0, *(np.flatnonzero(np.diff(starts // run)) + 1).tolist(), len(base)]
        hit = np.empty(len(base), dtype=np.int64)
        for a, b in zip(cuts, cuts[1:]):
            # the flips of every piece the run reads, concatenated; each
            # read's start among them
            size, first = sizes[a:b], starts[a:b] - starts[a:b][:1]
            f = flips[np.arange(size.sum()) + np.repeat(lo[a:b] - first, size)]
            # a running total of the flips whose partner f ^ unit is flipped too
            paired = np.zeros(len(f) + 1, dtype=np.int64)
            np.cumsum(packed_bits(flipped, f ^ np.repeat(unit[a:b], size)), out=paired[1:])
            hit[a:b] = 2 * (size - (paired[first + size] - paired[first]))
        hit = hit[read]
        return np.where(packed_bits(clean, key)[read] == truth, hit, length - hit)

    return count


def xor_all(bits: np.ndarray) -> np.ndarray:
    return np.bitwise_xor.reduce(bits, axis=1)


class PairReadScheme(Scheme):
    """A decoder of Hadamard pieces read in pairs, described once: a
    subclass implements reads(queries), which checks a batch of queries,
    and the probe budget, coin digits, probe plan, truth, exact wrong
    counts (of a batch at once) and block_killer follow."""

    attacks = ("block_killer",)

    def reads(self, queries) -> PairReads:
        raise NotImplementedError

    def probe_budget(self, query) -> int:
        """Two probes per pick.  With no query, those of a one-bit answer
        picked once, as every had-ip and composed membership answer is."""
        if query is None:
            return 2
        r = self.reads([query])
        return 2 * len(r.unit) * r.t

    def coin_radices(self, query) -> Tuple[int, ...]:
        r = self.reads([query])
        (w, k), picks = r.unit.shape, 2 if r.fallback else 1
        return (k * picks * r.length,) * (w * r.t)

    def truth(self, query):
        bits = self.reads([query]).truth.tolist()
        return self.answer(query, sum(bit << i for i, bit in enumerate(reversed(bits))))

    def plan(self, query, coins: np.ndarray):
        """Each digit's pick read at z and z xor its unit, or its fallback
        bit; the answer packs each bit's majority over its t digits.  Work
        the description makes trivial is skipped: the pick when k = 1
        without fallback, the fallback if every pick reads, the vote if
        w = t = 1."""
        r = self.reads([query])
        (w, k), t, length = r.unit.shape, r.t, r.length
        z = coins.reshape(len(coins), w, t)
        base, unit, read = r.base, r.unit, None
        if k > 1 or r.fallback:
            pick, z = np.divmod(z, (2 if r.fallback else 1) * length)
            fb, z = np.divmod(z, length)
            rows = np.arange(w)[:, None]
            base, unit = base[rows, pick], unit[rows, pick]
            if r.fallback and not r.unit.all():
                read = unit > 0
        positions = np.stack([base + z + 1, base + (z ^ unit) + 1], axis=-1)
        if read is not None:
            positions = np.where(read[..., None], positions, 0)
        # answers past 62 bits are python integers
        weights = np.array([1 << i for i in reversed(range(w))], dtype=np.int64 if w < 63 else object)

        def combine(bits: np.ndarray) -> np.ndarray:
            votes = bits[:, 0::2] ^ bits[:, 1::2]
            if read is not None:
                votes = np.where(read.reshape(len(bits), -1), votes, fb.reshape(len(bits), -1))
            if w == t == 1:
                return votes[:, 0]
            majority = votes.reshape(len(bits), w, t).sum(axis=2) * 2 > t
            return majority.astype(weights.dtype) @ weights

        return positions.reshape(len(coins), 2 * w * t), combine

    def read_table(self, queries) -> "ReadTable":
        """The reads of every query, from one reads call, for one
        pair_read_counter count."""
        r = self.reads(queries)
        (bits, k), picks = r.unit.shape, 2 if r.fallback else 1
        bit = np.repeat(np.arange(bits), k)
        base, unit = r.base.ravel(), r.unit.ravel()
        read = (unit > 0) | (not r.fallback)  # a unit-0 read's fallback bit is wrong on `length` values
        fixed = np.bincount(bit[~read], minlength=bits) * r.length
        base, unit, bit = base[read], unit[read], bit[read]
        return ReadTable((base, unit, r.truth[bit], r.length), bit, picks, fixed, r.widths, k * picks * r.length, r.t)

    def wrong_counts(self, queries, pattern, limit: int) -> List[Tuple[int, int]]:
        """Exact at every query from one pair-read count per read, all in
        one count call, so `limit` never applies."""
        table = self.read_table(queries)
        return table.counts(table.bad(pair_read_counter(self.codeword, pattern)(*table.columns)))

    def swap_counts(self, queries, positions, limit: int) -> "PairSwapCounts":
        return PairSwapCounts(self, queries, positions, limit)

    def block_killer(self, budget: int, target=None) -> np.ndarray:
        """Invert the target's reads whose clean read is right (by default
        the first query with a nonzero unit), and no other read of it.
        A piece's mask m ORs the lowest set bit of each such unit: the ones
        of m's codeword flip one probe of read (z, z ^ u) at every z when
        u.m is odd, none when it is even, so every kept read is inverted
        where a piece's units are unit vectors or it has one read.  Pieces
        go most kept reads first, half their length each, to the budget."""
        if target is None:
            target = next((q for q in self.queries() if self.reads([q]).unit.any()), None)
            if target is None:
                raise ParameterError("%s has no query with a read to invert" % self.name)
        r = self.reads([target])
        clean = np.frombuffer(self.codeword.bits._data, dtype=np.uint8)
        keep = (r.unit > 0) & (packed_bits(clean, r.base + r.unit) == r.truth[:, None])
        base, unit = r.base[keep], r.unit[keep]
        pieces, kept = np.unique(base, return_counts=True)
        masks = np.zeros(len(pieces), dtype=np.int64)
        np.bitwise_or.at(masks, np.searchsorted(pieces, base), unit & -unit)
        budget = max(budget, 0)
        order = np.argsort(-kept, kind="stable")[: -(-budget // (r.length // 2))]
        words = HadamardCode(r.length.bit_length() - 1).encode_blocks(masks[order])
        # every nonzero mask's codeword has length / 2 ones
        ones = np.flatnonzero(words.to_bit_array().view(bool)).reshape(len(order), r.length // 2)
        return (ones + (pieces[order] - r.length * np.arange(len(order)) + 1)[:, None]).ravel()[:budget]


class ReadTable(NamedTuple):
    """Every read of a batch of queries, the answer bits of all queries
    numbered in one sequence.

    `columns` are (base, unit, truth) of the reads that read, in query,
    bit and read order, and the pieces' length; `bit` is the answer bit
    each serves, and `weight` the values of its pick per offset (2 with a
    fallback bit, else 1).  Per bit, `fixed` of its pick values are wrong
    whatever the flips: `length` for each read whose unit is 0, which the
    fallback bit answers.  Query q's answer is the next widths[q] bits,
    each a majority of t picks among `values` values.
    """

    columns: Tuple[np.ndarray, np.ndarray, np.ndarray, int]
    bit: np.ndarray
    weight: int
    fixed: np.ndarray
    widths: np.ndarray
    values: int
    t: int

    def bad(self, counted: np.ndarray) -> List[int]:
        """Per bit, the wrong pick values given each read's count."""
        out = self.fixed.copy()
        np.add.at(out, self.bit, self.weight * counted)
        return out.tolist()

    def counts(self, bad: Sequence[int]) -> List[Tuple[int, int]]:
        """Per query, its coins and how many decode wrongly, given each
        bit's wrong pick values: a one-bit answer picked once is wrong on
        exactly those of its bit."""
        n, t = self.values, self.t
        if t == 1 and (self.widths == 1).all():
            return list(zip([n] * len(bad), bad))
        ends = np.cumsum(self.widths).tolist()
        return [(n ** ((hi - lo) * t), majority_wrong(bad[lo:hi], n, t)) for lo, hi in zip([0, *ends], ends)]


def majority_wrong(bad: Sequence[int], n: int, t: int) -> int:
    """Wrong coins of an answer whose bit i picks one of n values t times,
    bad[i] of them wrong, and takes the majority.  Bit i's majority is
    right on R_i = sum over m > t/2 of C(t, m) (n - bad[i])^m
    bad[i]^(t - m) of its n^t digit tuples, and the bits' digits are
    independent, so n^(wt) - prod R_i coins are wrong."""
    right = 1
    for b in bad:
        right *= sum(math.comb(t, m) * (n - b) ** m * b ** (t - m) for m in range((t + 1) // 2, t + 1))
    return n ** (len(bad) * t) - right


class PairSwapCounts(SwapCounts):
    """Running wrong counts of a pair-read decoder, a swap scored by the
    reads it touches.

    Each bit's wrong pick values are kept, from one pair_read_counter
    count at the start.  A read of unit u has D lone-pair offsets: z
    where exactly one of z, z xor u is flipped.  Toggling position p of
    its piece changes D by +2 when p and p xor u were in the same state
    before, and by -2 otherwise (by 0 when u = 0, as the read then reads
    z twice); the read's wrong count moves by the same amount where its
    clean read is right, and against it where it is wrong.  A swap
    toggles the drop, then the add, and recombines only the queries whose
    bits they touch.  Pieces are aligned to their length, a power of two,
    so the partner of 0-based p is p xor u.
    """

    def _count(self) -> List[Tuple[int, int]]:
        table = self.table = self.scheme.read_table(self.queries)
        base, unit, truth, self.length = table.columns
        self.bad = table.bad(pair_read_counter(self.scheme.codeword, self.pattern())(*table.columns))
        ends = np.cumsum(table.widths).tolist()
        self.answers = list(zip([0, *ends], ends))  # per query, its bits lo..hi - 1
        clean = np.frombuffer(self.scheme.codeword.bits._data, dtype=np.uint8)
        agree = packed_bits(clean, base + unit) == truth
        self.units = unit.tolist()
        self.signs = np.where(agree, table.weight, -table.weight).tolist()
        self.bit_of = table.bit.tolist()
        self.query_of = [q for q, (lo, hi) in enumerate(self.answers) for _ in range(lo, hi)]
        # the reads that a toggle can change, by the base of their piece
        self.pieces: Dict[int, List[int]] = {}
        for i, (b, u) in enumerate(zip(base.tolist(), self.units)):
            if u:
                self.pieces.setdefault(b, []).append(i)
        return table.counts(self.bad)

    def _score(self, drop: int, add: int) -> List[Tuple[int, int]]:
        self._moved: Dict[int, int] = {}
        for p, flipped in ((drop, True), (add, False)):
            p0 = p - 1
            for i in self.pieces.get(p0 - p0 % self.length, ()):
                partner = (p0 ^ self.units[i]) + 1
                same = flipped == (partner in self.flipped and partner != drop)
                bit = self.bit_of[i]
                self._moved[bit] = self._moved.get(bit, 0) + (2 if same else -2) * self.signs[i]
        counts = list(self.counts)
        for q in {self.query_of[bit] for bit in self._moved}:
            lo, hi = self.answers[q]
            bad = [self.bad[b] + self._moved.get(b, 0) for b in range(lo, hi)]
            counts[q] = (counts[q][0], majority_wrong(bad, self.table.values, self.table.t))
        return counts

    def accept(self) -> None:
        for bit, step in self._moved.items():
            self.bad[bit] += step
        super().accept()


class HadamardIp(PairReadScheme):
    """Encoded instance answering inner-product queries y -> x.y mod 2:
    one read of the whole codeword, at unit y."""

    name = "hadamard-ip"
    kind = "hadamard-ip"

    def __init__(self, x: BitString):
        self.x = x
        self.code = HadamardCode(x.n)
        self.codeword = Codeword(self.code.encode(x))

    def reads(self, queries) -> PairReads:
        y = np.array([query.value for query in self.checked(queries)], dtype=np.int64)
        truth, ones = np.bitwise_count(y & self.x.value) & 1, np.ones_like(y)
        return PairReads(np.zeros_like(y)[:, None], y[:, None], truth, ones, self.code.length)

    def queries(self):
        return (BitString.from_int(self.x.n, v) for v in range(self.code.length))

    def random_query(self, rng) -> BitString:
        return BitString.random(self.x.n, rng)

    def params(self) -> Dict[str, object]:
        return {"s": self.x.n, "x": self.x.to01()}


class MajorityAmplified(Scheme):
    """Runs an inner bit-valued scheme t times and takes the majority.

    Coins are t inner coin tuples laid end to end; the budget scales by t.
    Only queries with answers of at most one bit are put to a vote.
    """

    def __init__(self, inner: Scheme, t: int):
        self.t = integer(t, "an odd repetition count t >= 1", 1, odd=True)
        self.inner = inner
        self.name = inner.name + "-maj%d" % t
        self.codeword = inner.codeword

    def probe_budget(self, query) -> int:
        return self.t * self.inner.probe_budget(query)

    def coin_radices(self, query) -> Tuple[int, ...]:
        return self.inner.coin_radices(query) * self.t

    def check_query(self, query) -> None:
        """The inner scheme's check, and a vote needs a one-bit answer,
        whose type `answer` gives without a truth."""
        self.inner.check_query(query)
        width = self.inner.answer(query, 0)
        if isinstance(width, BitString) and width.n > 1:
            raise ParameterError("majority votes on one-bit answers, not %d bits" % width.n)

    def plan(self, query, coins: np.ndarray):
        self.check_query(query)
        runs = [self.inner.plan(query, part) for part in np.split(coins, self.t, axis=1)]

        def combine(bits: np.ndarray) -> np.ndarray:
            parts = np.split(bits, self.t, axis=1)
            votes = sum(inner(part) for (_, inner), part in zip(runs, parts))
            return (votes * 2 > self.t).astype(np.int64)

        return np.hstack([positions for positions, _ in runs]), combine

    def answer(self, query, value):
        return self.inner.answer(query, value)

    def truth(self, query):
        return self.inner.truth(query)

    def wrong_counts(self, queries, pattern, limit: int) -> List[Optional[Tuple[int, int]]]:
        """Exact wherever the inner scheme's wrong_counts is: the t runs
        use independent coins, so the majority is wrong on
        majority_wrong([wrong], coins, t) of the coins**t tuples."""
        t, counts = self.t, self.inner.wrong_counts(self.checked(queries), pattern, limit)
        return [None if c is None else (c[0] ** t, majority_wrong([c[1]], c[0], t)) for c in counts]

    def queries(self):
        return self.inner.queries()

    def params(self) -> Dict[str, object]:
        out = dict(self.inner.params())
        out["t"] = self.t
        return out


# -- equality ---------------------------------------------------------


class RandomLinearCode:
    """A random linear [length, s] code with exhaustively measured distance.

    gamma is the defect 1/2 - dmin/length, clamped at zero; the equality
    scheme's error bound degrades by 2*gamma/3 relative to a perfectly
    balanced code.  The constructor is linear equality's parameter
    check: its distance check reads 2^s messages of `length` bits.
    """

    def __init__(
        self,
        s: int,
        length: int,
        rng=None,
        rows: Optional[Sequence[BitString]] = None,
    ):
        desk_scale("linear code distance check", integer(length, "length >= 1", 1), integer(s, "s >= 1", 1))
        self.s = s
        self.length = length
        if rows is not None:
            if len(rows) != s or any(row.n != length for row in rows):
                raise ParameterError("need s generator rows of the code length")
            self.rows = list(rows)
        elif rng is not None:
            self.rows = [BitString.random(length, rng) for _ in range(s)]
        else:
            raise ParameterError("need an rng or explicit rows")
        # column j as an s-bit value, row 1 its most significant bit
        bits = np.stack([row.to_bit_array() for row in self.rows]).astype(np.uint64)
        shifts = np.arange(s - 1, -1, -1, dtype=np.uint64)[:, None]
        self.columns = np.bitwise_or.reduce(bits << shifts, axis=0)
        self.dmin = self._min_distance()

    def _min_distance(self) -> int:
        """The least codeword weight over the nonzero messages, about
        64 * MC_BLOCK message-column pairs at a time."""
        step = max(1, (MC_BLOCK << 6) // self.length)
        best = self.length
        for lo in range(1, 1 << self.s, step):
            v = np.arange(lo, min(lo + step, 1 << self.s), dtype=np.uint64)
            weights = (np.bitwise_count(v[:, None] & self.columns) & 1).sum(axis=1)
            best = min(best, int(weights.min()))
        return best

    @property
    def gamma(self) -> Fraction:
        return max(Fraction(0), Fraction(1, 2) - Fraction(self.dmin, self.length))

    def encode(self, x: BitString) -> BitString:
        if x.n != self.s:
            raise ParameterError("message length mismatch")
        return BitString.from_bit_array(np.bitwise_count(self.columns & np.uint64(x.value)) & 1)

    def bit_of(self, x: BitString, j):
        """Bit j of x's codeword, the parity of column j & x; j may be an
        array of positions."""
        return np.bitwise_count(self.columns[np.asarray(j) - 1] & np.uint64(x.value)) & 1

    def describe(self) -> Dict[str, object]:
        return {"kind": "random-linear", "s": self.s, "length": self.length}


class EqualityScheme(Scheme):
    """One-probe equality test: store a codeword of x, compare one position.

    The balanced variant answers 1 only with probability 2/3 even on
    agreement, equalizing the two error sides: both are at most
    1/3 + 2*(delta + gamma)/3 at noise rate delta.  The raw variant
    answers the agreement indicator; its error on x != y can reach
    1/2 + gamma + delta.
    """

    kind = "equality"

    def __init__(self, x: BitString, code=None, balanced: bool = True):
        self.x = x
        self.code = code if code is not None else HadamardCode(x.n)
        if self.code.s != x.n:
            raise ParameterError("code message length does not match x")
        if type(balanced) is not bool:
            raise ParameterError("need balanced true or false, got %r" % (balanced,))
        self.balanced = balanced
        self.codeword = Codeword(self.code.encode(x))
        self.name = "equality-balanced" if balanced else "equality-raw"

    def header(self) -> Dict[str, object]:
        head = {"balanced": self.balanced, "code": self.code.describe()}
        if isinstance(self.code, RandomLinearCode):
            head["rows"] = [row.to01() for row in self.code.rows]
        return head

    @classmethod
    def from_header(cls, head: Dict) -> "EqualityScheme":
        desc = head["code"]
        if desc["kind"] == "hadamard":
            code = HadamardCode(desc["s"])
        elif desc["kind"] == "random-linear":
            code = RandomLinearCode(desc["s"], desc["length"], rows=[BitString.from01(r) for r in head["rows"]])
        else:
            raise ParameterError("unknown code kind %r" % (desc["kind"],))
        return cls(BitString.from01(head["x"]), code=code, balanced=head["balanced"])

    @property
    def gamma(self) -> Fraction:
        return self.code.gamma

    def probe_budget(self, query) -> int:
        return 1

    def coin_radices(self, query) -> Tuple[int, ...]:
        return (3 * self.code.length if self.balanced else self.code.length,)

    def plan(self, query: BitString, coins: np.ndarray):
        """Compare position j with y's codeword there; the balanced
        variant answers 1 only when a third coin c < 3 is below 2."""
        self.check_query(query)
        j, c = np.divmod(coins[:, 0], 3) if self.balanced else (coins[:, 0], 0)
        expect = self.code.bit_of(query, j + 1)

        def combine(bits: np.ndarray) -> np.ndarray:
            return ((bits[:, 0] == expect) & (c < 2)).astype(np.int64)

        return j[:, None] + 1, combine

    def truth(self, query: BitString) -> int:
        self.check_query(query)
        return int(query == self.x)

    def random_query(self, rng) -> BitString:
        # keep the positive query represented
        if rng.random() < 0.5:
            return self.x
        return BitString.random(self.x.n, rng)

    def params(self) -> Dict[str, object]:
        return {
            "x": self.x.to01(),
            "balanced": self.balanced,
            "code": self.code.describe(),
            "gamma": float(self.gamma),
        }
