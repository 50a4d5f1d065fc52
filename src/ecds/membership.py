"""Membership structures built on randomized probe sets.

The one-probe structure assigns every universe element i a random set
P_i of d positions in a length-n' bit vector; encoding a set stores the
union of the P_i over its members, and decoding probes one uniformly
random j in P_i.  A build is only accepted after verifying, for every
admissible data set (weight <= s; a uniform sample of them when there are
more than `VERIFY_LIMIT`) and every index in the verification domain,
that the probed bit agrees with membership with probability at least
1 - eps over the probe choice.  Members always agree exactly (the
union contains their whole set); the verified direction is that
non-members collide with at most an eps fraction of their set.

Verification counts collisions without building any union: an overlap
table holds, for every probe set P_c a data set can name and every
domain index i, one bit per position of P_i, set when P_c holds it.  A
data set's hits on i are the set bits of the OR of its members' words,
so a position held by several members counts once, and a member hits
its own d positions.  The table is built per block of domain rows, from
one sorted index of which probe sets hold which position.

The block-composed variant makes the vector error-tolerant: positions
are shuffled by a random permutation, cut into b blocks of a bits, and
each block is Hadamard-encoded.  A block is good for index i when it
holds exactly one element of P_i; an index is good when at least a
quarter of the blocks are good for it.  The block decoder picks a random
block, runs the 2-probe decode when it is good, and otherwise answers a
fair coin, so adversaries must corrupt many blocks to matter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, is_dataclass
from types import MappingProxyType
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from .bits import BitString, BoundedWeightSpace, ball_size
from .errors import (
    ConstructionError,
    InfeasibleSizeError,
    ParameterError,
    VerificationError,
    desk_scale,
    integer,
)
from .hadamard import HadamardCode, PairReads, PairReadScheme, xor_all
from .oracle import Codeword, Scheme
from .seeding import derive_seed

# bytes that one chunk of supports in `OneProbeMembership.verify` may take
# in `_agreement` (`_support_bytes` per support)
_CHUNK_BYTES = 1 << 20

# data sets `OneProbeMembership.verify` checks all of, at most; past it, a
# uniform sample of this many
VERIFY_LIMIT = 100_000

# permutations `BlockCodedMembership.build` tries for enough good indices
PERM_TRIALS = 256


def probe_params(n: int, s: int, eps: float, n_prime: Optional[int] = None, d: Optional[int] = None) -> Tuple[int, int]:
    """Vector length n' (the stored length) and probe-set size d over [n]
    for data of weight <= s, each by default the value giving the 1-eps
    agreement guarantee with room to spare (n >= 2): n' = ceil((100/eps^2)
    s log2 n), d = ceil(log2(n)/eps).  The membership kinds' parameter
    check, on n, s, eps, n', d and the desk scale of the vector and the
    n*d probe-set table."""
    integer(n, "n >= 1", 1)
    integer(s, "s >= 1", 1)
    if not 0 < eps < 1:
        raise ParameterError("need 0 < eps < 1, got %r" % (eps,))
    try:  # a default past any float is past desk scale too
        n_prime = math.ceil((100 / eps**2) * s * math.log2(n)) if n_prime is None else n_prime
        d = math.ceil(math.log2(n) / eps) if d is None else d
    except (OverflowError, ZeroDivisionError):
        raise InfeasibleSizeError("the default n' or d for n=%d, s=%d, eps=%r is beyond desk scale" % (n, s, eps)) from None
    integer(n_prime, "n' >= 1", 1)
    integer(d, "1 <= d <= n'", 1, n_prime)
    desk_scale("membership vector or probe-set table", max(n_prime, n * d))
    return n_prime, d


def _report_dict(report) -> Dict[str, object]:
    """A build report's fields, flat: a nested report's entries are
    prefixed with its field name (verification_..., base_...), and a
    mapping's (the structure's params) are spread as they are."""
    out: Dict[str, object] = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if is_dataclass(value):
            out.update({f.name + "_" + k: v for k, v in value.to_dict().items()})
        elif isinstance(value, Mapping):
            out.update(value)
        else:
            out[f.name] = value
    return out


@dataclass(frozen=True)
class VerificationReport:
    """Realized agreement over a verification pass."""

    exhaustive: bool
    checked_supports: int
    total_supports: int
    min_agreement: float
    violations: int

    @property
    def coverage(self) -> float:
        return self.checked_supports / self.total_supports

    def to_dict(self) -> Dict[str, object]:
        return {**_report_dict(self), "coverage": self.coverage}


@dataclass(frozen=True)
class MembershipBuildReport:
    """What a build decided, beside its structure's params()."""

    params: Mapping[str, object]
    seed: int
    attempts: int
    overridden: bool
    domain_size: int
    verification: VerificationReport

    to_dict = _report_dict


class OneProbeMembership:
    """Verified probe-set structure over universe [n], data weight <= s."""

    GRAPH_RETRIES = 64

    def __init__(
        self,
        n: int,
        s: int,
        eps: float,
        probe_sets: Sequence[Sequence[int]],
        n_prime: int,
        report: Optional[MembershipBuildReport] = None,
    ):
        n_prime, self.d = probe_params(n, s, eps, n_prime, len(probe_sets[0]) if len(probe_sets) else 0)
        if len(probe_sets) != n:
            raise ParameterError("need one probe set per universe element")
        self.n = n
        self.s = s
        self.eps = eps
        self.n_prime = n_prime
        try:
            arr = np.asarray(probe_sets).reshape(n, self.d)
            if arr.size and arr.dtype.kind not in "biu":  # floats, strings, objects
                raise TypeError
        except TypeError:
            raise ParameterError("probe-set positions must be integers") from None
        except ValueError:  # ragged rows
            raise ParameterError("probe sets must be equal-size and duplicate-free") from None
        # checked on the given values, before narrowing could wrap them
        if arr.size and (arr.min() < 1 or arr.max() > n_prime):
            raise ParameterError("probe-set positions out of range")
        arr = arr.astype(np.min_scalar_type(n_prime))
        arr.sort(axis=1)
        if (arr[:, 1:] == arr[:, :-1]).any():
            raise ParameterError("probe sets must be equal-size and duplicate-free")
        arr -= 1
        # 0-based, each row ascending, in the narrowest dtype that holds n'
        # (so header_sets' +1 cannot wrap); readers widen what they gather
        self._sets0 = arr
        self.report = report

    # non-members' threshold as an exact integer count; float eps only enters here
    @property
    def _nonmember_max(self) -> int:
        return math.floor(self.eps * self.d + 1e-9)

    def probe_set(self, i: int) -> Tuple[int, ...]:
        """P_i as 1-based positions, ascending."""
        if not 1 <= i <= self.n:
            raise ParameterError("index out of range")
        return tuple(int(v) + 1 for v in self._sets0[i - 1])

    def header_sets(self) -> np.ndarray:
        """Every P_i as 1-based positions, one row per index, in the
        narrowest dtype that holds n' (the header writes them packed)."""
        return self._sets0 + 1

    # -- construction --------------------------------------------------

    @classmethod
    def build(
        cls,
        n: int,
        s: int,
        eps: float = 0.1,
        seed: int = 0,
        n_prime: Optional[int] = None,
        d: Optional[int] = None,
        domain: Optional[Sequence[int]] = None,
        retries: int = GRAPH_RETRIES,
    ) -> "OneProbeMembership":
        """Sample probe sets and verify; resample on failure, up to
        `retries` attempts, then give up with ConstructionError."""
        overridden = n_prime is not None or d is not None
        n_prime, d = probe_params(n, s, eps, n_prime, d)
        dom = tuple(domain) if domain is not None else tuple(range(1, n + 1))
        last: Optional[VerificationReport] = None
        for attempt in range(retries):
            rng = np.random.default_rng(derive_seed("probe-sets", seed, attempt))
            sets = np.empty((n, d), dtype=np.min_scalar_type(n_prime))
            for i in range(n):
                sets[i] = rng.choice(n_prime, size=d, replace=False)
            sets += 1
            st = cls(n, s, eps, sets, n_prime)
            ver = st.verify(domain=dom, rng=np.random.default_rng(derive_seed("verify", seed, attempt)))
            last = ver
            if ver.violations == 0:
                st.report = MembershipBuildReport(
                    params=MappingProxyType(st.params()), seed=seed, attempts=attempt + 1,
                    overridden=overridden, domain_size=len(dom), verification=ver,
                )
                return st
        raise ConstructionError(
            "no verifying probe-set family in %d attempts" % retries, report=last
        )

    # -- verification and encoding -------------------------------------

    def _block_rows(self, cols: int) -> int:
        """Domain rows per block of an overlap table with `cols` columns,
        so that the table and the pairs that fill it take about
        `_CHUNK_BYTES`: a position of a domain row is held by about
        1 + cols·d/n' of the columns' probe sets."""
        words = -(-self.d // 64)
        held = 1 + -(-cols * self.d // self.n_prime)
        return max(1, _CHUNK_BYTES // (8 * (words * (cols + 1) + self.d * (3 + 5 * held))))

    def _overlaps(self, cols: np.ndarray, dom_idx: np.ndarray):
        """The overlaps of the probe sets of `cols` with those of the
        domain, both 0-based universe indices, per block of
        `_block_rows` domain rows: yields the block's slice of dom_idx and
        its table uint64[len(cols) + 1, ceil(d/64), block rows], where bit
        t % 64 of [c, t // 64, i] is set when P_cols[c] holds the t-th
        position of the block's i-th probe set.  The last row stays zero,
        for the -1 that pads a data set shorter than s.

        Every (column, position) pair comes from one sorted index of
        position·(len(cols) + 1) + column keys, built once per call: each
        position of a block's rows looks up the range of keys that hold
        it."""
        width = len(cols) + 1
        keys = self._sets0[cols].astype(np.int64)
        keys *= width
        keys += np.arange(len(cols))[:, None]
        keys = keys.ravel()
        keys.sort()
        words = -(-self.d // 64)
        rows = self._block_rows(len(cols))
        for lo in range(0, len(dom_idx), rows):
            block = slice(lo, lo + rows)
            size = len(dom_idx[block])
            at = self._sets0[dom_idx[block]].astype(np.int64).ravel() * width
            first = np.searchsorted(keys, at)
            at += width
            counts = np.searchsorted(keys, at) - first
            # per pair: its key and its cell, i·d + t, of the block's rows
            key = keys[np.arange(counts.sum()) + np.repeat(first - np.cumsum(counts) + counts, counts)]
            i, t = np.divmod(np.repeat(np.arange(len(counts)), counts), self.d)
            table = np.zeros(width * size * words, dtype=np.uint64)
            np.bitwise_or.at(
                table,
                ((key % width) * words + (t >> 6)) * size + i,
                np.left_shift(np.uint64(1), (t & 63).astype(np.uint64)),
            )
            yield block, table.reshape(width, words, size)

    def _agreement(
        self, supports: np.ndarray, cols: np.ndarray, dom_idx: np.ndarray, table: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Check a batch of data sets on the domain indices dom_idx
        (0-based), whose overlaps with `cols` `table` holds: each set is a
        row of int64[B, w] slots into cols, a set shorter than w padded
        with -1.

        Returns, per data set and domain index, its agreement (the
        fraction of its probe set inside the union for a member, always 1,
        and outside it for a non-member) and whether a non-member collides
        beyond the eps threshold.  A set's hits on an index are the bits
        of the OR of its members' table words: each position counts once,
        however many members hold it."""
        words = np.zeros((len(supports), *table.shape[1:]), dtype=np.uint64)
        member = np.zeros((len(supports), len(dom_idx)), dtype=bool)
        for slot, index in zip(supports.T, np.append(cols, -1)[supports].T):
            words |= table[slot]
            member |= index[:, None] == dom_idx
        hits = np.bitwise_count(words).sum(axis=1, dtype=np.int32)
        agreements = np.where(member, hits / self.d, 1 - hits / self.d)
        bad = ~member & (hits > self._nonmember_max)
        return agreements, bad

    def _domain(self, domain: Optional[Sequence[int]]):
        """The domain (default: the universe) and its 0-based indices."""
        dom = tuple(domain) if domain is not None else tuple(range(1, self.n + 1))
        dom_idx = np.asarray(dom, dtype=np.int64) - 1
        if dom_idx.size and (dom_idx.min() < 0 or dom_idx.max() >= self.n):
            raise ParameterError("domain indices must lie in 1..n")
        return dom, dom_idx

    def _support_bytes(self, rows: int) -> int:
        """About the bytes one data set takes in `_agreement` on a block
        of `rows` domain rows: its OR and one gathered row of words, their
        bit counts and, per domain index, its count, agreement and flags,
        beside its s slots."""
        return rows * (17 * -(-self.d // 64) + self.s + 32) + 8 * self.s

    def verify(
        self,
        domain: Optional[Sequence[int]] = None,
        limit: int = VERIFY_LIMIT,
        rng=None,
    ) -> VerificationReport:
        """Check the agreement guarantee for every weight <= s data set
        over `domain` (default: the whole universe), exhaustively when
        there are at most `limit` supports, else on a uniform sample,
        which needs s <= len(domain) (ParameterError otherwise).
        Each block of domain rows from `_overlaps` checks the supports in
        chunks of about `_CHUNK_BYTES` bytes."""
        dom, dom_idx = self._domain(domain)
        rows = max(1, min(len(dom), self._block_rows(len(dom))))
        chunk = max(1, _CHUNK_BYTES // self._support_bytes(rows))
        total = ball_size(len(dom), self.s)
        exhaustive = total <= limit
        supports = self._supports(len(dom), total, exhaustive, limit, rng)
        min_agree = 1.0
        violations = 0
        for block, table in self._overlaps(dom_idx, dom_idx):
            for start in range(0, len(supports), chunk):
                batch = supports[start : start + chunk]
                agreements, bad = self._agreement(batch, dom_idx, dom_idx[block], table)
                min_agree = min(min_agree, float(agreements.min(initial=1.0)))
                violations += int(bad.sum())
        return VerificationReport(
            exhaustive=exhaustive,
            checked_supports=len(supports),
            total_supports=total,
            min_agreement=min_agree,
            violations=violations,
        )

    def _supports(self, size, total, exhaustive, limit, rng) -> np.ndarray:
        """The data sets to check over a domain of `size` indices, as
        int64[N, min(s, size)] rows of 0-based domain slots, ascending, a
        set shorter than the row padded with -1: the sets of ranks
        0..total-1, all of them, or of `limit` uniform ranks drawn by one
        `rng.integers` call (the same ranks as one call per draw)."""
        if not exhaustive:
            if self.s > size:  # all `total` subsets of the domain are admissible
                raise ParameterError(
                    "cannot sample data sets of weight <= %d from %d domain indices: "
                    "need limit >= %d to check all of them" % (self.s, size, total)
                )
            if rng is None:
                rng = np.random.default_rng(0)
        space = BoundedWeightSpace(size, min(self.s, size))
        ranks = np.arange(total) if exhaustive else rng.integers(total, size=limit)
        return space.unrank_rows(ranks) - 1

    def encode(
        self, x: BitString, verify_domain: Optional[Sequence[int]] = None
    ) -> Tuple[BitString, np.ndarray]:
        """Union encoding of the set x, plus the per-index agreement
        profile over the verification domain (default: the universe),
        from `_agreement` on x alone, against an overlap table of x's
        members.  Raises VerificationError for the first domain index that
        violates the agreement guarantee."""
        if x.n != self.n:
            raise ParameterError("data length does not match universe")
        if x.weight > self.s:
            raise ParameterError("data weight exceeds s")
        dom, dom_idx = self._domain(verify_domain)
        members = np.asarray(x.support(), dtype=np.int64) - 1
        slots = np.arange(len(members))[None, :]
        agreements = np.empty(len(dom))
        bad = np.empty(len(dom), dtype=bool)
        for block, table in self._overlaps(members, dom_idx):
            (agreements[block],), (bad[block],) = self._agreement(slots, members, dom_idx[block], table)
        if bad.any():
            raise VerificationError("index %d collides beyond eps" % dom[int(bad.argmax())])
        mask = np.zeros(self.n_prime, dtype=np.uint8)
        mask[self._sets0[members]] = 1
        return BitString.from_bit_array(mask), agreements

    def instance(self, x: BitString) -> "MembershipInstance":
        y, agreements = self.encode(x)
        return MembershipInstance(self, x, y, agreements)

    def params(self) -> Dict[str, object]:
        return {
            "n": self.n,
            "s": self.s,
            "eps": self.eps,
            "n_prime": self.n_prime,
            "d": self.d,
        }


class IndexQueries(Scheme):
    """Queries are indices into the encoded set x, written in decimal."""

    def parse_query(self, text: str) -> int:
        """An index written in ASCII decimal digits and nothing else."""
        if not (text.isascii() and text.isdigit()):
            raise ParameterError("need an index in decimal digits, got %r" % (text,))
        query = int(text)
        self.check_query(query)
        return query

    def truth(self, query: int) -> int:
        self.check_query(query)
        return self.x.bit(query)


class MembershipInstance(IndexQueries):
    """Encoded set with the 1-probe decoder; queries are indices 1..n."""

    name = "membership-1probe"
    kind = "membership-1p"
    attacks = ("probe_set_killer",)

    def __init__(self, structure, x, y, agreements):
        self.structure = structure
        self.x = x
        self.agreements = agreements
        self.codeword = Codeword(y)

    def header(self) -> Dict[str, object]:
        st = self.structure
        return {
            "n": st.n,
            "s": st.s,
            "eps": st.eps,
            "n_prime": st.n_prime,
            "probe_sets": st.header_sets(),
        }

    @classmethod
    def from_header(cls, head: Dict) -> "MembershipInstance":
        st = OneProbeMembership(
            head["n"], head["s"], head["eps"], head["probe_sets"], head["n_prime"]
        )
        return st.instance(BitString.from01(head["x"]))

    def probe_budget(self, query) -> int:
        return 1

    def coin_radices(self, query) -> Tuple[int, ...]:
        return (self.structure.d,)

    def plan(self, query: int, coins: np.ndarray):
        """Probe one uniformly random position of P_i."""
        self.check_query(query)
        return (self.structure._sets0[query - 1].astype(np.int64) + 1)[coins[:, :1]], xor_all

    def check_query(self, query: int) -> None:
        if not 1 <= query <= self.structure.n:
            raise ParameterError("index out of range")

    def queries(self):
        return iter(range(1, self.structure.n + 1))

    def random_query(self, rng) -> int:
        return rng.randrange(1, self.structure.n + 1)

    def probe_set_killer(self, budget: int, target=None) -> Tuple[int, ...]:
        """Flip the first positions of the target's probe set (index 1 by
        default): each flip raises its decoding error by 1/d."""
        return self.structure.probe_set(1 if target is None else target)[: max(budget, 0)]

    def params(self) -> Dict[str, object]:
        out = self.structure.params()
        out["x_weight"] = self.x.weight
        return out


# -- block-composed variant -------------------------------------------


def block_layout(n_prime: int, a: int) -> Tuple[int, int]:
    """The b blocks of a bits that n' positions are cut into, and their
    Hadamard-coded length b*2^a: the composed kind's parameter check
    beside its base's `probe_params`, on a and the blocks' desk scale."""
    integer(a, "a >= 1", 1)
    b, rest = divmod(n_prime, a)
    if rest:
        raise ParameterError("need a dividing the vector length %d into whole blocks" % n_prime)
    return b, desk_scale("membership-composed length", b, a)


@dataclass(frozen=True)
class ComposedBuildReport:
    """What a build decided, beside its structure's params() and the
    base's vector length n'."""

    params: Mapping[str, object]
    seed: int
    perm_trials: int
    good_threshold: int
    base: MembershipBuildReport

    to_dict = _report_dict


class BlockCodedMembership:
    """Probe-set membership whose vector is shuffled, cut into b blocks
    of a bits, and Hadamard-encoded block by block.

    Public queries are indices 1..public_n.  `build` draws one probe set
    per public index; a base with more rows (files written when the base
    was drawn over 20·public_n elements) is accepted, and only its first
    public_n rows are read.  Good blocks and good indices are determined
    by the permutation alone, before any data is encoded.
    """

    def __init__(
        self,
        public_n: int,
        base: OneProbeMembership,
        perm: Sequence[int],
        a: int,
        report: Optional[ComposedBuildReport] = None,
    ):
        self.b, self.length = block_layout(base.n_prime, a)
        integer(public_n, "1 <= public_n <= universe", 1, base.n)
        perm = np.asarray(perm)
        if perm.dtype.kind not in "biu" or not np.array_equal(np.sort(perm), np.arange(base.n_prime)):
            raise ParameterError("perm must be a permutation of 0..n_prime-1")
        self.public_n = public_n
        self.base = base
        self.a = a
        self.perm = perm.astype(np.int64)
        self.code = HadamardCode(a)
        self.report = report
        # the shuffled positions of each public P_i, and per element whether
        # no other element of P_i shares its block
        self._placed = self.perm[base._sets0[:public_n]]
        cells = self._placed // a + self.b * np.arange(public_n)[:, None]
        self._alone = np.bincount(cells.ravel(), minlength=public_n * self.b)[cells] == 1
        # a block is good for i when it holds exactly one element of P_i
        self.good_indices = tuple((np.flatnonzero(4 * self._alone.sum(axis=1) >= self.b) + 1).tolist())

    def placement(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per element of P_i, in probe-set order: the block it lands in
        after the shuffle and its local bit there (both 0-based)."""
        if not 1 <= i <= self.public_n:
            raise ParameterError("index out of range")
        return np.divmod(self._placed[i - 1], self.a)

    def good_blocks(self, i: int) -> Dict[int, int]:
        """Blocks holding exactly one element of P_i: block -> local bit."""
        held, bit = self.placement(i)
        alone = self._alone[i - 1]
        return {k + 1: e + 1 for k, e in sorted(zip(held[alone].tolist(), bit[alone].tolist()))}

    @classmethod
    def build(
        cls,
        public_n: int,
        s: int,
        eps: float = 0.25,
        a: int = 14,
        b: int = 288,
        seed: int = 0,
    ) -> "BlockCodedMembership":
        block_layout(integer(a, "a >= 1", 1) * integer(b, "b >= 1", 1), a)
        base = OneProbeMembership.build(public_n, s, eps, seed=seed, n_prime=a * b, d=b)
        threshold = math.ceil(public_n / 20)
        for trial in range(PERM_TRIALS):
            rng = np.random.default_rng(derive_seed("blocks", seed, trial))
            perm = rng.permutation(a * b)
            st = cls(public_n, base, perm, a)
            if len(st.good_indices) >= threshold:
                st.report = ComposedBuildReport(
                    params=MappingProxyType({**st.params(), "n_prime": base.n_prime}), seed=seed,
                    perm_trials=trial + 1, good_threshold=threshold, base=base.report,
                )
                return st
        raise ConstructionError(
            "no permutation reached %d good indices in %d trials"
            % (threshold, PERM_TRIALS)
        )

    def embed(self, x: BitString) -> BitString:
        """Public data as a subset of the first public_n elements of the
        base's universe (the whole of it for a base `build` draws)."""
        if x.n != self.public_n:
            raise ParameterError("data length does not match public domain")
        return BitString.from_int(self.base.n, x.value << (self.base.n - x.n))

    def encode(self, x: BitString) -> Tuple[Codeword, np.ndarray]:
        y, agreements = self.base.encode(
            self.embed(x), verify_domain=range(1, self.public_n + 1)
        )
        arr = y.to_bit_array()
        shuffled = np.zeros_like(arr)
        shuffled[self.perm] = arr
        # block values, the block's first bit most significant
        values = shuffled.reshape(self.b, self.a).astype(np.int64) @ (1 << np.arange(self.a - 1, -1, -1))
        return Codeword(self.code.encode_blocks(values)), agreements

    def instance(self, x: BitString, decoder: str = "block") -> "ComposedInstance":
        codeword, agreements = self.encode(x)
        return ComposedInstance(self, x, codeword, agreements, decoder)

    def params(self) -> Dict[str, object]:
        return {
            "public_n": self.public_n,
            "universe": self.base.n,
            "s": self.base.s,
            "eps": self.base.eps,
            "a": self.a,
            "b": self.b,
            "d": self.base.d,
            "length": self.length,
            "good_count": len(self.good_indices),
        }


class ComposedInstance(PairReadScheme, IndexQueries):
    """Encoded composed structure; queries are public indices.

    decoder="block": pick a uniform block; when it holds exactly one
    element of P_i, 2-probe decode that bit, else answer the pick's
    fallback coin bit.  decoder="direct": pick a uniform element of P_i
    and 2-probe decode it inside its block.  reads() describes both.
    """

    kind = "membership-composed"

    def __init__(self, structure, x, codeword, agreements, decoder="block"):
        if decoder not in ("block", "direct"):
            raise ParameterError("decoder must be 'block' or 'direct'")
        self.structure = structure
        self.x = x
        self.agreements = agreements
        self.decoder = decoder
        self.codeword = codeword
        self.name = "membership-composed-" + decoder

    def header(self) -> Dict[str, object]:
        st = self.structure
        return {
            "decoder": self.decoder,
            "public_n": st.public_n,
            "universe": st.base.n,
            "s": st.base.s,
            "eps": st.base.eps,
            "a": st.a,
            "b": st.b,
            "n_prime": st.base.n_prime,
            "probe_sets": st.base.header_sets(),
            "perm": st.perm,
        }

    @classmethod
    def from_header(cls, head: Dict) -> "ComposedInstance":
        base = OneProbeMembership(
            head["universe"], head["s"], head["eps"], head["probe_sets"], head["n_prime"]
        )
        st = BlockCodedMembership(head["public_n"], base, head["perm"], head["a"])
        return st.instance(BitString.from01(head["x"]), decoder=head["decoder"])

    def check_query(self, query: int) -> None:
        if not 1 <= query <= self.structure.public_n:
            raise ParameterError("query outside public domain")

    def reads(self, queries) -> PairReads:
        """What index i's pick chooses among: each block (block decoder)
        or each element of P_i (direct), read at the unit vector of i's
        local bit in its block.  The block decoder's unit is 0 in a block
        not good for i, where the fallback bit answers."""
        st, length = self.structure, self.structure.code.length
        i = np.array(self.checked(queries), dtype=np.int64) - 1
        blocks, bit = np.divmod(st._placed[i], st.a)
        units = 1 << (st.a - 1 - bit)
        truth, widths = self.x.to_bit_array()[i], np.ones_like(i)
        if self.decoder == "direct":
            return PairReads(blocks * length, units, truth, widths, length)
        local = np.zeros((len(i), st.b), dtype=np.int64)
        local[np.arange(len(i))[:, None], blocks] = np.where(st._alone[i], units, 0)
        base = np.arange(0, st.b * length, length)[None].repeat(len(i), axis=0)
        return PairReads(base, local, truth, widths, length, fallback=True)

    def queries(self):
        return iter(self.structure.good_indices)

    def random_query(self, rng) -> int:
        st = self.structure
        if st.good_indices:
            return rng.choice(st.good_indices)
        return rng.randrange(1, st.public_n + 1)

    def params(self) -> Dict[str, object]:
        out = self.structure.params()
        out["decoder"] = self.decoder
        out["x_weight"] = self.x.weight
        return out
