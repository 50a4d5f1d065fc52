"""Probe-counted, corruptible access to encoded words.

Each scheme describes its decoder once, as a probe plan (positions read
per coin tuple, and how their bits combine).  A single decode reads them
through a ProbeOracle that applies the flips and enforces the probe
budget; measurement reads batches of coins from the served word.
"""

from __future__ import annotations

import math
from bisect import bisect_left, insort
from fractions import Fraction
from functools import cached_property
from numbers import Real
from types import MappingProxyType
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from .bits import BitString
from .errors import EnumerationLimitError, ParameterError, ProbeBudgetError
from .seeding import sample_positions

EXACT_STATE_LIMIT = 2**20

MC_BLOCK = 4096  # coin rows per batch read: memory stays flat in the coin space


class Codeword:
    """An encoded word of some structure; positions are indexed 1..n."""

    __slots__ = ("bits",)

    def __init__(self, bits: BitString):
        self.bits = bits

    @property
    def n(self) -> int:
        return self.bits.n

    def __eq__(self, other) -> bool:
        return isinstance(other, Codeword) and self.bits == other.bits

    def __hash__(self) -> int:
        return hash(("codeword", self.bits))

    def __repr__(self) -> str:
        return "Codeword(n=%d, weight=%d)" % (self.bits.n, self.bits.weight)


class CorruptionPattern:
    """A set of positions the adversary flips, fixed before decoding.

    `array` holds the positions once, ascending and without repeats, as a
    read-only int64 array; `flips`, the same positions as a frozenset, is
    built on first use.  Positions are integers >= 1, given as any
    iterable of Python ints or as an integer numpy array.
    """

    __slots__ = ("array", "_flips")

    def __init__(self, flips: Iterable[int] = ()):
        self.array = _position_array(flips)
        self._flips: Optional[frozenset] = None

    @classmethod
    def empty(cls) -> "CorruptionPattern":
        return cls()

    @classmethod
    def random(cls, n: int, count: int, rng) -> "CorruptionPattern":
        """count positions of 1..n, those rng.sample(range(1, n + 1), count)
        draws, drawn in numpy by seeding.sample_positions."""
        if not 0 <= count <= n:
            raise ParameterError("flip count out of range")
        return cls(sample_positions(rng, n, count))

    @staticmethod
    def budget(delta: float, n: int) -> int:
        """Largest number of flips allowed at noise rate delta, a real
        number (not a bool) in [0, 1]."""
        if isinstance(delta, bool) or not isinstance(delta, Real) or not 0 <= delta <= 1:
            raise ParameterError("noise rate %r is not a number in [0, 1]" % (delta,))
        return math.floor(delta * n)

    @property
    def flips(self) -> frozenset:
        if self._flips is None:
            self._flips = frozenset(self.array.tolist())
        return self._flips

    @property
    def weight(self) -> int:
        return len(self.array)

    @property
    def positions(self) -> Tuple[int, ...]:
        return tuple(self.array.tolist())

    @property
    def _max(self) -> int:
        return int(self.array[-1]) if len(self.array) else 0

    def fits(self, n: int, delta: Optional[float] = None) -> bool:
        """Whether all flips land in [1, n], within floor(delta*n) if given."""
        if self._max > n:
            return False
        return delta is None or self.weight <= self.budget(delta, n)

    def __contains__(self, j: int) -> bool:
        return j in self.flips

    def __eq__(self, other) -> bool:
        return isinstance(other, CorruptionPattern) and np.array_equal(self.array, other.array)

    def __hash__(self) -> int:
        return hash(("pattern", self.array.tobytes()))

    def __repr__(self) -> str:
        return "CorruptionPattern(weight=%d)" % self.weight


def _position_array(flips) -> np.ndarray:
    """Flip positions as a sorted, duplicate-free, read-only int64 array;
    refuses anything but integers >= 1 (bools count as 0 and 1, as for
    Python ints)."""
    try:
        arr = flips if isinstance(flips, np.ndarray) else np.array(list(flips))
    except (TypeError, ValueError):  # not iterable, or ragged
        raise ParameterError("positions are integers >= 1") from None
    if arr.size == 0:
        arr = np.empty(0, dtype=np.int64)
    elif arr.ndim != 1 or arr.dtype.kind not in "biu" or (arr.dtype.kind == "u" and arr.max() >> 63):
        raise ParameterError("positions are integers >= 1")
    arr = arr.astype(np.int64)  # a copy, never the caller's array
    if not (arr[1:] > arr[:-1]).all():  # sorted once, only if not ascending already
        arr.sort()
        arr = arr[np.concatenate(([True], arr[1:] != arr[:-1]))]
    if len(arr) and arr[0] < 1:
        raise ParameterError("positions are integers >= 1")
    arr.flags.writeable = False
    return arr


def flip_mask(pattern: CorruptionPattern, n: int) -> np.ndarray:
    """The pattern over n positions as packed bits, position 1 the most
    significant bit of byte 0 (a BitString's layout)."""
    if not pattern.fits(n):
        raise ParameterError("flip position beyond codeword length")
    j = pattern.array - 1
    bit = np.right_shift(np.uint8(0x80), (j & 7).astype(np.uint8))
    # the positions ascend, so each byte's bits are one run to OR together
    byte = np.right_shift(j, 3, out=j)
    starts = np.ones(len(byte), dtype=bool)
    np.not_equal(byte[1:], byte[:-1], out=starts[1:])
    starts = np.flatnonzero(starts)
    mask = np.zeros((n + 7) // 8, dtype=np.uint8)
    mask[byte[starts]] = np.bitwise_or.reduceat(bit, starts)
    return mask


def packed_bits(packed: np.ndarray, j: np.ndarray, keep=1) -> np.ndarray:
    """Bits at the 0-based positions j of a packed bit array, zeroed
    where the 0/1 array `keep` (broadcast against j) is 0."""
    return (packed[j >> 3] >> (7 - (j & 7))) & keep


def corrupt(codeword: Codeword, pattern: CorruptionPattern) -> BitString:
    """The word the oracle actually serves: codeword with flips applied.

    Applying the same pattern twice returns the original bits.
    """
    word = np.frombuffer(codeword.bits._data, dtype=np.uint8) ^ flip_mask(pattern, codeword.n)
    return BitString(codeword.n, word.tobytes())


class ProbeOracle:
    """Serves corrupted bit reads and enforces the probe budget.

    Construction is O(1); the corrupted word is never materialized, so a
    single decode stays cheap even for megabit codewords.
    """

    __slots__ = ("codeword", "pattern", "budget", "used", "_bits", "_flips")

    def __init__(self, codeword: Codeword, pattern: CorruptionPattern, budget: int):
        if budget < 0:
            raise ParameterError("negative probe budget")
        if pattern._max > codeword.n:
            raise ParameterError("flip position beyond codeword length")
        self.codeword = codeword
        self.pattern = pattern
        self.budget = budget
        self.used = 0
        self._bits = codeword.bits
        self._flips = pattern.flips

    def probe(self, j: int) -> int:
        if self.used >= self.budget:
            raise ProbeBudgetError(
                "probe budget of %d exhausted (position %d denied)" % (self.budget, j)
            )
        if not 1 <= j <= self._bits.n:
            raise ParameterError("probe position %d outside [1, %d]" % (j, self._bits.n))
        self.used += 1
        return self._bits.bit(j) ^ (j in self._flips)


class Scheme:
    """A structure instance bound to encoded data, decodable through oracles.

    Coins are tuples of independent uniform digits, digit k below
    coin_radices(query)[k], drawn one randrange at a time, so only
    enumeration needs a small space.  plan(query, coins) validates the
    query and maps int64 coin rows to the 1-based positions read,
    int64[rows, k] with k <= probe_budget and 0 for an unused trailing
    slot, and a function from the bits read there to int64 answers;
    answer(query, value) converts one to the type truth(query) has.

    `codeword` is the stored word, set by each constructor.  A storable
    scheme also describes itself: `kind` tags its file header,
    header()/from_header() carry the fields beyond kind and x (by default
    the constructor arguments after x, named in `header_fields`), queries
    are validated by check_query, read from text by parse_query and drawn
    by random_query, and `attacks` names the structure-specific
    adversaries it implements as methods (budget, target) -> positions.
    """

    name = "scheme"
    kind: Optional[str] = None
    header_fields: Tuple[str, ...] = ()
    attacks: Tuple[str, ...] = ()
    codeword: Codeword

    def probe_budget(self, query) -> int:
        raise NotImplementedError

    def coin_radices(self, query) -> Tuple[int, ...]:
        raise NotImplementedError

    def plan(self, query, coins: np.ndarray) -> Tuple[np.ndarray, Callable]:
        raise NotImplementedError

    def answer(self, query, value):
        return int(value)

    def coin_count(self, query) -> int:
        return math.prod(self.coin_radices(query))

    def coin_from_index(self, query, idx: int) -> Tuple[int, ...]:
        """The coin tuple with index idx, first digit least significant."""
        digits = []
        for radix in self.coin_radices(query):
            idx, digit = divmod(idx, radix)
            digits.append(digit)
        return tuple(digits)

    def sample_coins(self, query, rng) -> Tuple[int, ...]:
        return tuple(rng.randrange(radix) for radix in self.coin_radices(query))

    def decode_with_coins(self, oracle: ProbeOracle, query, coins):
        """Run the plan for one coin tuple, reading through the oracle."""
        positions, combine = self.plan(query, np.array([coins], dtype=np.int64))
        bits = [oracle.probe(int(j)) if j else 0 for j in positions[0]]
        return self.answer(query, combine(np.array([bits], dtype=np.int64))[0])

    def truth(self, query):
        raise NotImplementedError

    def wrong_counts(self, queries, pattern, limit: int) -> List[Optional[Tuple[int, int]]]:
        """Per query, its coins and how many decode wrongly under `pattern`,
        or None where that means enumerating more than `limit` coins.
        exact_error and estimate_error ask it for every query; a scheme that
        counts without enumerating overrides it, exact at any size."""
        out: List[Optional[Tuple[int, int]]] = []
        word = None
        for query in queries:
            count = self.coin_count(query)
            if count > limit:
                out.append(None)
                continue
            if word is None:
                word = corrupt(self.codeword, pattern)
            out.append((count, count_wrong(self, query, coin_chunks(self.coin_radices(query), count), word)))
        return out

    def swap_counts(self, queries, positions, limit: int) -> "SwapCounts":
        """wrong_counts of `queries` kept up to date while a hill climb
        swaps one flip at a time, starting from the flips at `positions`;
        a scheme that can score a swap by what it touches overrides it."""
        return SwapCounts(self, queries, positions, limit)

    def queries(self):
        """Every query this scheme answers, in a fixed order."""
        raise ParameterError(
            "%s does not enumerate its queries; name them or sample them" % self.name
        )

    def decode(self, oracle: ProbeOracle, query, rng):
        return self.decode_with_coins(oracle, query, self.sample_coins(query, rng))

    def oracle(
        self, pattern: Optional[CorruptionPattern] = None, query=None
    ) -> ProbeOracle:
        """Fresh oracle with this scheme's budget for the given query."""
        return ProbeOracle(
            self.codeword,
            CorruptionPattern.empty() if pattern is None else pattern,
            self.probe_budget(query),
        )

    def params(self) -> Dict[str, object]:
        return {}

    @cached_property
    def frozen_params(self) -> Mapping[str, object]:
        """params(), computed once and shared read-only: a built scheme
        does not change, so every report on it can hold the same view."""
        return MappingProxyType(self.params())

    def header(self) -> Dict[str, object]:
        if self.kind is None:
            raise ParameterError("no storage format for %r" % type(self).__name__)
        return {k: getattr(self, k) for k in self.header_fields}

    @classmethod
    def from_header(cls, head: Dict) -> "Scheme":
        return cls(BitString.from01(head["x"]), *(head[k] for k in cls.header_fields))

    def check_query(self, query) -> None:
        """Refuse a query this scheme does not answer; by default queries
        are bit strings as long as the data x."""
        if query.n != self.x.n:
            raise ParameterError("query length mismatch")

    def checked(self, queries) -> list:
        """The queries as a list, each refused unless this scheme answers it."""
        queries = list(queries)
        for query in queries:
            self.check_query(query)
        return queries

    def parse_query(self, text: str):
        """A query written as 0/1 text, refused unless this scheme answers it."""
        query = BitString.from01(text)
        self.check_query(query)
        return query

    def query_label(self, query) -> str:
        if isinstance(query, BitString):
            return query.to01()
        return str(query)


class SwapCounts:
    """Per-query wrong counts under a flip set that changes one swap at a
    time, as Scheme.swap_counts starts it.

    `positions` holds the current flips ascending, beside the set
    `flipped`, and `counts` their wrong_counts(queries, pattern, limit)
    entries, (coins, wrong) or None where that declines.  swap(drop,
    add) returns the counts with flip `drop` cleared and the unflipped
    position `add` set, and accept() makes that swap current; a swap not
    accepted changes nothing.  pattern() is the pattern of the last swap
    proposed, or of the current flips before any.  This default recounts
    every swap through wrong_counts.
    """

    def __init__(self, scheme: "Scheme", queries, positions: Iterable[int], limit: int):
        self.scheme, self.queries, self.limit = scheme, list(queries), limit
        self.positions = sorted(positions)
        self.flipped = set(self.positions)
        self._swap: Optional[Tuple[int, int]] = None
        self._pattern: Optional[CorruptionPattern] = None
        self.counts = self._next = self._count()

    def _count(self) -> List[Optional[Tuple[int, int]]]:
        return self.scheme.wrong_counts(self.queries, self.pattern(), self.limit)

    def pattern(self) -> CorruptionPattern:
        if self._pattern is None:
            if self._swap is None:
                self._pattern = CorruptionPattern(self.positions)
            else:
                drop, add = self._swap
                self._pattern = CorruptionPattern((self.flipped - {drop}) | {add})
        return self._pattern

    def swap(self, drop: int, add: int) -> List[Optional[Tuple[int, int]]]:
        self._swap, self._pattern = (drop, add), None
        self._next = self._score(drop, add)
        return self._next

    def _score(self, drop: int, add: int) -> List[Optional[Tuple[int, int]]]:
        return self._count()

    def accept(self) -> None:
        drop, add = self._swap
        del self.positions[bisect_left(self.positions, drop)]
        insort(self.positions, add)
        self.flipped.remove(drop)
        self.flipped.add(add)
        self.counts, self._swap = self._next, None


def _check_enumerable(count: int, limit: int) -> None:
    if count > limit:
        raise EnumerationLimitError(
            "coin space has %d states, beyond the exact limit %d" % (count, limit)
        )


def coin_chunks(radices: Tuple[int, ...], count: int) -> Iterator[np.ndarray]:
    """Every coin tuple in index order (as coin_from_index numbers them),
    as int64 rows, at most MC_BLOCK rows per chunk."""
    for start in range(0, count, MC_BLOCK):
        idx = np.arange(start, min(start + MC_BLOCK, count), dtype=np.int64)
        rows = np.empty((len(idx), len(radices)), dtype=np.int64)
        for k, radix in enumerate(radices):
            idx, rows[:, k] = np.divmod(idx, radix)
        yield rows


def read_plan(scheme: Scheme, query, coins: np.ndarray, word: BitString):
    """Positions and answers of the scheme's plan on each coin row, with
    bits read from the served word.  Like ProbeOracle, refuses a plan
    wider than the probe budget and any position outside [1, n]."""
    positions, combine = scheme.plan(query, coins)
    width, budget = positions.shape[1], scheme.probe_budget(query)
    if width > budget:
        raise ProbeBudgetError("plan reads %d positions, budget %d" % (width, budget))
    if ((positions < 0) | (positions > word.n)).any():
        raise ParameterError("probe position outside [1, %d]" % word.n)
    bits = packed_bits(np.frombuffer(word._data, dtype=np.uint8), positions - 1, positions > 0)
    return positions, combine(bits)


def probe_mass(scheme: Scheme, query, limit: int = EXACT_STATE_LIMIT) -> np.ndarray:
    """Probe mass per position, as int64: entry j - 1 counts the (coin
    tuple, probe slot) pairs whose plan reads position j, on the clean
    word.  Raises EnumerationLimitError when the coin space exceeds
    `limit`, and refuses a bad plan as read_plan does."""
    count = scheme.coin_count(query)
    _check_enumerable(count, limit)
    word = scheme.codeword.bits
    mass = np.zeros(word.n + 1, dtype=np.int64)
    for coins in coin_chunks(scheme.coin_radices(query), count):
        mass += np.bincount(read_plan(scheme, query, coins, word)[0].ravel(), minlength=word.n + 1)
    return mass[1:]  # bin 0 counts the unused slots


def count_wrong(scheme: Scheme, query, chunks: Iterable[np.ndarray], word: BitString) -> int:
    """How many coin rows, over all chunks, decode wrongly from the served word."""
    truth = scheme.truth(query)
    expected = truth.value if isinstance(truth, BitString) else truth
    return sum(
        int(np.count_nonzero(read_plan(scheme, query, coins, word)[1] != expected))
        for coins in chunks
    )


def exact_error(
    scheme: Scheme,
    query,
    pattern: CorruptionPattern,
    limit: int = EXACT_STATE_LIMIT,
) -> Fraction:
    """Exact decoding error probability under `pattern`, over all coins,
    from the scheme's wrong_counts; EnumerationLimitError where that
    declines, past `limit` coins."""
    (counted,) = scheme.wrong_counts([query], pattern, limit)
    if counted is None:
        _check_enumerable(scheme.coin_count(query), limit)
    return Fraction(counted[1], counted[0])
