"""Bit strings over GF(2) and the lexicographic space of bounded-weight vectors.

Every structure in this package fixes the same indexing convention once,
here: a length-n bit string is indexed 1..n and index 1 is the leftmost,
most significant position.  Lexicographic order on equal-length strings
therefore coincides with numeric order on their integer values, and the
ASCII serialization writes index 1 first.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterable, Iterator, List, Tuple

import numpy as np

_BYTE_ONES: List[Tuple[int, ...]] = [
    tuple(k for k in range(8) if b & (0x80 >> k)) for b in range(256)
]


class BitString:
    """Immutable fixed-length bit sequence, indexed 1..n, index 1 leftmost.

    Backed by packed bytes (big-endian within each byte) so single-bit
    reads stay O(1) even for multi-megabit codewords.  The trailing pad
    bits of the last byte are always zero, which makes equality a plain
    byte comparison.
    """

    __slots__ = ("n", "_data", "_value", "_weight")

    def __init__(self, n: int, data: bytes):
        if n < 0:
            raise ValueError("negative length")
        if len(data) != (n + 7) // 8:
            raise ValueError("data length does not match bit count")
        if n % 8 and data and data[-1] & ((1 << (8 - n % 8)) - 1):
            raise ValueError("nonzero padding bits")
        self.n = n
        self._data = data
        self._value: int | None = None
        self._weight: int | None = None

    # -- constructors -------------------------------------------------

    @classmethod
    def from_int(cls, n: int, value: int) -> "BitString":
        if value < 0 or value >> n:
            raise ValueError("value out of range for %d bits" % n)
        nbytes = (n + 7) // 8
        return cls(n, (value << (8 * nbytes - n)).to_bytes(nbytes, "big"))

    @classmethod
    def from01(cls, text: str) -> "BitString":
        """Parse an ASCII 0/1 string; character 1 becomes index 1."""
        if text and set(text) - {"0", "1"}:
            raise ValueError("expected only 0/1 characters")
        return cls.from_int(len(text), int(text, 2) if text else 0)

    @classmethod
    def zeros(cls, n: int) -> "BitString":
        return cls(n, bytes((n + 7) // 8))

    @classmethod
    def unit(cls, n: int, i: int) -> "BitString":
        """The indicator e_i, a single one at index i."""
        if not 1 <= i <= n:
            raise ValueError("index out of range")
        return cls.from_int(n, 1 << (n - i))

    @classmethod
    def from_indices(cls, n: int, indices: Iterable[int]) -> "BitString":
        v = 0
        for i in indices:
            if not 1 <= i <= n:
                raise ValueError("index out of range")
            v |= 1 << (n - i)
        return cls.from_int(n, v)

    @classmethod
    def random(cls, n: int, rng) -> "BitString":
        return cls.from_int(n, rng.getrandbits(n) if n else 0)

    @classmethod
    def from_bit_array(cls, arr: np.ndarray) -> "BitString":
        """Pack a 0/1 uint8 array, element 0 becoming index 1."""
        return cls(len(arr), np.packbits(arr).tobytes())

    # -- reads --------------------------------------------------------

    def bit(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise ValueError("index out of range")
        return (self._data[(i - 1) >> 3] >> (7 - ((i - 1) & 7))) & 1

    @property
    def value(self) -> int:
        if self._value is None:
            pad = 8 * len(self._data) - self.n
            self._value = int.from_bytes(self._data, "big") >> pad
        return self._value

    @property
    def weight(self) -> int:
        if self._weight is None:
            self._weight = int.from_bytes(self._data, "big").bit_count()
        return self._weight

    def support(self) -> Tuple[int, ...]:
        """Indices of the ones, ascending."""
        out: List[int] = []
        for bi, b in enumerate(self._data):
            if b:
                base = 8 * bi + 1
                out.extend(base + k for k in _BYTE_ONES[b])
        return tuple(out)

    def to_bit_array(self) -> np.ndarray:
        return np.unpackbits(np.frombuffer(self._data, dtype=np.uint8))[: self.n]

    def to01(self) -> str:
        return format(self.value, "0%db" % self.n) if self.n else ""

    # -- algebra ------------------------------------------------------

    def __xor__(self, other):
        if not isinstance(other, BitString):
            return NotImplemented
        if other.n != self.n:
            raise ValueError("length mismatch")
        a = int.from_bytes(self._data, "big")
        b = int.from_bytes(other._data, "big")
        return BitString(self.n, (a ^ b).to_bytes(len(self._data), "big"))

    # -- protocol -----------------------------------------------------

    def __len__(self) -> int:
        return self.n

    def __iter__(self) -> Iterator[int]:
        return (self.bit(i) for i in range(1, self.n + 1))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, BitString)
            and self.n == other.n
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.n, self._data))

    def __repr__(self) -> str:
        if self.n <= 64:
            return "BitString(%r)" % self.to01()
        return "BitString(n=%d, weight=%d)" % (self.n, self.weight)


def dot_mod2(a: BitString, b: BitString) -> int:
    """Inner product of two equal-length bit strings over GF(2)."""
    if a.n != b.n:
        raise ValueError("length mismatch")
    return (a.value & b.value).bit_count() & 1


def split_query(y: BitString, p: int) -> List[BitString]:
    """Split y into p disjoint pieces whose XOR is y.

    The one-positions are dealt out greedily in index order, the first
    piece taking ceil(weight/p) of them, so every piece has weight at
    most ceil(weight(y)/p).  Pieces may be zero.
    """
    if p < 1:
        raise ValueError("need at least one piece")
    ones = y.support()
    chunk = math.ceil(len(ones) / p) if ones else 0
    out = []
    for k in range(p):
        out.append(BitString.from_indices(y.n, ones[k * chunk : (k + 1) * chunk]))
    return out


@lru_cache(maxsize=None)
def ball_size(n: int, r: int) -> int:
    """Number of length-n bit strings of weight at most r."""
    if n < 0:
        raise ValueError("negative length")
    r = min(r, n)
    if r < 0:
        return 0
    return sum(math.comb(n, i) for i in range(r + 1))


class BoundedWeightSpace:
    """All length-n strings of weight <= r, in lexicographic order.

    rank/unrank are mutually inverse bijections with 0..size-1; they walk
    the positions once, counting how many admissible strings precede the
    current prefix, so both run in O(n) comb evaluations.
    """

    def __init__(self, n: int, r: int):
        if n < 0 or not 0 <= r <= n:
            raise ValueError("need 0 <= r <= n")
        self.n = n
        self.r = r

    def size(self) -> int:
        return ball_size(self.n, self.r)

    def rank(self, v: BitString) -> int:
        if v.n != self.n:
            raise ValueError("length mismatch")
        if v.weight > self.r:
            raise ValueError("weight exceeds bound")
        rk = 0
        ones = 0
        for i in v.support():
            # strings matching the prefix but with 0 here come first
            rk += ball_size(self.n - i, self.r - ones)
            ones += 1
        return rk

    def unrank(self, k: int) -> BitString:
        if not 0 <= k < self.size():
            raise ValueError("rank out of range")
        v = 0
        ones = 0
        for i in range(1, self.n + 1):
            c = ball_size(self.n - i, self.r - ones)
            if k >= c:
                k -= c
                v |= 1 << (self.n - i)
                ones += 1
        assert k == 0
        return BitString.from_int(self.n, v)

    def unrank_rows(self, ks) -> np.ndarray:
        """`unrank` of a batch of ranks at once, as int64[len(ks), r]: row
        m holds the positions of the ones of unrank(ks[m]), ascending,
        then zeros up to width r.

        The next one after the j-th sits at the first position i whose
        count ball_size(n - i, r - j) is at most what is left of the rank,
        so each weight level is one searchsorted over that (int64) table.
        Consecutive ranks give the strings in `__iter__` order, which is
        how tables and exhaustive verification enumerate a space.
        Refuses spaces of more than 2^63 strings, whose tables overflow."""
        if self.size() > 1 << 63:
            raise ValueError("space too large for int64 ranks")
        ks = np.array(ks, dtype=np.int64).reshape(-1)
        if ks.size and (ks.min() < 0 or ks.max() >= self.size()):
            raise ValueError("rank out of range")
        out = np.zeros((len(ks), self.r), dtype=np.int64)
        for j in range(self.r):
            # counts for positions n, n-1, ..., 1: ascending
            counts = np.array([ball_size(m, self.r - j) for m in range(self.n)], dtype=np.int64)
            m = np.searchsorted(counts, ks, side="right") - 1
            left = ks > 0  # a rank of 0 left means no further ones
            out[left, j] = self.n - m[left]
            ks[left] -= counts[m[left]]
        return out

    def __iter__(self) -> Iterator[BitString]:
        return (self.unrank(k) for k in range(self.size()))

    def __repr__(self) -> str:
        return "BoundedWeightSpace(n=%d, r=%d)" % (self.n, self.r)
