"""Probe-counted, corruptible access to encoded words.

Decoders never touch a codeword directly: they go through a ProbeOracle
that serves single bit reads, applies the adversary's flips, and enforces
the declared probe budget as a hard failure.  Exact error analysis
enumerates a decoder's coin space through the same interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from .bits import BitString
from .errors import EnumerationLimitError, ParameterError, ProbeBudgetError

EXACT_STATE_LIMIT = 2**20


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
    """A set of positions the adversary flips, fixed before decoding."""

    __slots__ = ("flips", "_max")

    def __init__(self, flips: Iterable[int] = ()):
        fs = frozenset(flips)
        for j in fs:
            if not isinstance(j, int) or j < 1:
                raise ParameterError("positions are integers >= 1")
        self.flips = fs
        self._max = max(fs) if fs else 0

    @classmethod
    def empty(cls) -> "CorruptionPattern":
        return cls()

    @classmethod
    def random(cls, n: int, count: int, rng) -> "CorruptionPattern":
        if not 0 <= count <= n:
            raise ParameterError("flip count out of range")
        return cls(rng.sample(range(1, n + 1), count))

    @staticmethod
    def budget(delta: float, n: int) -> int:
        """Largest number of flips allowed at noise rate delta."""
        if delta < 0:
            raise ParameterError("negative noise rate")
        return math.floor(delta * n)

    @property
    def weight(self) -> int:
        return len(self.flips)

    @property
    def positions(self) -> Tuple[int, ...]:
        return tuple(sorted(self.flips))

    def fits(self, n: int, delta: Optional[float] = None) -> bool:
        """Whether all flips land in [1, n], within floor(delta*n) if given."""
        if self._max > n:
            return False
        return delta is None or self.weight <= self.budget(delta, n)

    def __contains__(self, j: int) -> bool:
        return j in self.flips

    def __eq__(self, other) -> bool:
        return isinstance(other, CorruptionPattern) and self.flips == other.flips

    def __hash__(self) -> int:
        return hash(("pattern", self.flips))

    def __repr__(self) -> str:
        return "CorruptionPattern(weight=%d)" % self.weight


def corrupt(codeword: Codeword, pattern: CorruptionPattern) -> BitString:
    """The word the oracle actually serves: codeword with flips applied.

    Applying the same pattern twice returns the original bits.
    """
    if not pattern.fits(codeword.n):
        raise ValueError("flip position beyond codeword length")
    return codeword.bits.flip(pattern.flips)


class ProbeOracle:
    """Serves corrupted bit reads and enforces the probe budget.

    Construction is O(1); the corrupted word is never materialized, so a
    fresh oracle per decoding trial is cheap even for megabit codewords.
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

    @property
    def remaining(self) -> int:
        return self.budget - self.used

    def reset(self) -> None:
        """Restart probe accounting: the budget applies per decode call.
        Measurement loops reuse one oracle this way instead of paying
        construction per trial; the served bits are unchanged."""
        self.used = 0


class RecordingOracle(ProbeOracle):
    """ProbeOracle that also records the sequence of positions read."""

    __slots__ = ("trace",)

    def __init__(self, codeword, pattern, budget):
        super().__init__(codeword, pattern, budget)
        self.trace: List[int] = []

    def probe(self, j: int) -> int:
        out = super().probe(j)
        self.trace.append(j)
        return out


class Scheme:
    """A structure instance bound to encoded data, decodable through oracles.

    Subclasses fix a finite coin space per query (indices 0..coin_count-1
    mapping to coin objects), decode as a deterministic function of
    (oracle, query, coins), and expose the ground truth for measurement.
    Coin spaces may be astronomically large; sampling draws an index with
    randrange, which handles big integers, so only enumeration needs the
    space to be small.

    A storable scheme also describes itself: `kind` tags its file header,
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

    @property
    def codeword(self) -> Codeword:
        raise NotImplementedError

    def probe_budget(self, query) -> int:
        raise NotImplementedError

    def coin_count(self, query) -> int:
        raise NotImplementedError

    def coin_from_index(self, query, idx: int):
        raise NotImplementedError

    def sample_coins(self, query, rng):
        return self.coin_from_index(query, rng.randrange(self.coin_count(query)))

    def decode_with_coins(self, oracle: ProbeOracle, query, coins):
        raise NotImplementedError

    def truth(self, query):
        raise NotImplementedError

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

    def parse_query(self, text: str):
        """A query written as 0/1 text, refused unless this scheme answers it."""
        query = BitString.from01(text)
        self.check_query(query)
        return query

    def query_label(self, query) -> str:
        if isinstance(query, BitString):
            return query.to01()
        return str(query)


@dataclass(frozen=True)
class ProbeSlot:
    """Distribution of the k-th probe: usage probability and, conditional
    on the slot being used, a pmf over positions that sums to one."""

    usage: Fraction
    pmf: Dict[int, Fraction]


def _check_enumerable(count: int, limit: int) -> None:
    if count > limit:
        raise EnumerationLimitError(
            "coin space has %d states, beyond the exact limit %d" % (count, limit)
        )


def probe_distribution(
    scheme: Scheme, query, limit: int = EXACT_STATE_LIMIT
) -> List[ProbeSlot]:
    """Exact per-slot probe distributions, by enumerating the coin space.

    Positions are those read on the uncorrupted word.  Raises
    EnumerationLimitError when the coin space exceeds `limit`.
    """
    count = scheme.coin_count(query)
    _check_enumerable(count, limit)
    budget = scheme.probe_budget(query)
    empty = CorruptionPattern.empty()
    slot_counts: List[Dict[int, int]] = []
    for idx in range(count):
        oracle = RecordingOracle(scheme.codeword, empty, budget)
        scheme.decode_with_coins(oracle, query, scheme.coin_from_index(query, idx))
        for k, pos in enumerate(oracle.trace):
            if k == len(slot_counts):
                slot_counts.append({})
            slot_counts[k][pos] = slot_counts[k].get(pos, 0) + 1
    slots = []
    for counts in slot_counts:
        used = sum(counts.values())
        pmf = {pos: Fraction(c, used) for pos, c in sorted(counts.items())}
        slots.append(ProbeSlot(usage=Fraction(used, count), pmf=pmf))
    return slots


def exact_error(
    scheme: Scheme,
    query,
    pattern: CorruptionPattern,
    limit: int = EXACT_STATE_LIMIT,
) -> Fraction:
    """Exact decoding error probability under `pattern`, over all coins."""
    count = scheme.coin_count(query)
    _check_enumerable(count, limit)
    truth = scheme.truth(query)
    budget = scheme.probe_budget(query)
    wrong = 0
    for idx in range(count):
        oracle = ProbeOracle(scheme.codeword, pattern, budget)
        out = scheme.decode_with_coins(
            oracle, query, scheme.coin_from_index(query, idx)
        )
        if out != truth:
            wrong += 1
    return Fraction(wrong, count)
