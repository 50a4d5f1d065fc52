"""Membership structures built on randomized probe sets.

The one-probe structure assigns every universe element i a random set
P_i of d positions in a length-n' bit vector; encoding a set stores the
union of the P_i over its members, and decoding probes one uniformly
random j in P_i.  A build is only accepted after verifying, for every
admissible data set (weight <= s) and every index in the verification
domain, that the probed bit agrees with membership with probability at
least 1 - eps over the probe choice.  Members always agree exactly (the
union contains their whole set); the verified direction is that
non-members collide with at most an eps fraction of their set.

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
from itertools import combinations, islice
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .bits import BitString, BoundedWeightSpace, ball_size
from .errors import (
    ConstructionError,
    InfeasibleSizeError,
    ParameterError,
    VerificationError,
)
from .hadamard import MAX_EXPONENT, HadamardCode, pair_read_counter, pair_reads, xor_all
from .oracle import Codeword, Scheme
from .seeding import derive_seed

# bytes that one chunk of supports in `OneProbeMembership.verify` may take
# in `_agreement` (`_support_bytes` per support)
_CHUNK_BYTES = 1 << 20


def default_probe_params(n: int, s: int, eps: float) -> Tuple[int, int]:
    """Vector length and probe-set size giving the 1-eps agreement
    guarantee with room to spare: n' = ceil((100/eps^2) s log2 n),
    d = ceil(log2(n)/eps)."""
    if n < 2 or s < 1:
        raise ParameterError("need n >= 2 and s >= 1")
    if not 0 < eps < 1:
        raise ParameterError("need 0 < eps < 1")
    n_prime = math.ceil((100 / eps**2) * s * math.log2(n))
    d = math.ceil(math.log2(n) / eps)
    return n_prime, d


def _report_dict(report) -> Dict[str, object]:
    """A build report's fields, flat: a nested report's entries are
    prefixed with its field name (verification_..., base_...)."""
    out: Dict[str, object] = {}
    for f in fields(report):
        value = getattr(report, f.name)
        if is_dataclass(value):
            out.update({f.name + "_" + k: v for k, v in value.to_dict().items()})
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
    n: int
    s: int
    eps: float
    n_prime: int
    d: int
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
        if len(probe_sets) != n:
            raise ParameterError("need one probe set per universe element")
        self.n = n
        self.s = s
        self.eps = eps
        self.n_prime = n_prime
        self.d = len(probe_sets[0]) if len(probe_sets) else 0
        try:
            arr = np.asarray(probe_sets).reshape(n, self.d)
            if arr.size and arr.dtype.kind not in "biu":  # floats, strings, objects
                raise TypeError
            arr = np.sort(arr.astype(np.int64), axis=1)
            if (np.diff(arr, axis=1) == 0).any():
                raise ValueError
        except TypeError:
            raise ParameterError("probe-set positions must be integers") from None
        except ValueError:  # ragged rows, or a position repeated within a row
            raise ParameterError("probe sets must be equal-size and duplicate-free") from None
        if arr.size and (arr.min() < 1 or arr.max() > n_prime):
            raise ParameterError("probe-set positions out of range")
        self._sets0 = arr - 1  # 0-based, each row ascending
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
        verify_limit: int = 100_000,
    ) -> "OneProbeMembership":
        """Sample probe sets and verify; resample on failure, up to
        `retries` attempts, then give up with ConstructionError."""
        overridden = n_prime is not None or d is not None
        dn_prime, dd = default_probe_params(n, s, eps)
        n_prime = n_prime if n_prime is not None else dn_prime
        d = d if d is not None else dd
        if d > n_prime:
            raise ParameterError("probe sets cannot exceed the vector length")
        dom = tuple(domain) if domain is not None else tuple(range(1, n + 1))
        last: Optional[VerificationReport] = None
        for attempt in range(retries):
            rng = np.random.default_rng(derive_seed("probe-sets", seed, attempt))
            sets0 = np.empty((n, d), dtype=np.int64)
            for i in range(n):
                sets0[i] = rng.choice(n_prime, size=d, replace=False)
            st = cls(n, s, eps, sets0 + 1, n_prime)
            ver = st.verify(
                domain=dom,
                limit=verify_limit,
                rng=np.random.default_rng(derive_seed("verify", seed, attempt)),
            )
            last = ver
            if ver.violations == 0:
                st.report = MembershipBuildReport(
                    n=n,
                    s=s,
                    eps=eps,
                    n_prime=n_prime,
                    d=d,
                    seed=seed,
                    attempts=attempt + 1,
                    overridden=overridden,
                    domain_size=len(dom),
                    verification=ver,
                )
                return st
        raise ConstructionError(
            "no verifying probe-set family in %d attempts" % retries, report=last
        )

    # -- verification and encoding -------------------------------------

    def _agreement(
        self, supports: np.ndarray, dom_idx: np.ndarray, rows: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Encode a batch of data sets, int64[B, s] as `_padded` writes
        them, and check each on the domain: dom_idx holds its 0-based
        indices, rows their probe sets.

        Returns the union masks uint8[B, n'] and, per data set and domain
        index, its agreement (the fraction of its probe set inside the
        union for a member, always 1, and outside it for a non-member) and
        whether a non-member collides beyond the eps threshold.  The hit
        counts gather each mask at the domain's rows, as one call per
        batch: the work per data set is n' + |domain|·d, as it is for one."""
        held = supports >= 0
        masks = np.zeros((len(supports), self.n_prime), dtype=np.uint8)
        masks[np.nonzero(held)[0][:, None], self._sets0[supports[held]]] = 1
        # a count is at most d <= n', and every mask holds n' bytes, so an
        # int32 count could overflow only past masks of 2 GiB
        hits = np.take(masks, rows, axis=1).sum(axis=2, dtype=np.int32)
        member = (supports[:, :, None] == dom_idx).any(axis=1)
        agreements = np.where(member, hits / self.d, 1 - hits / self.d)
        bad = ~member & (hits > self._nonmember_max)
        return masks, agreements, bad

    def _domain(self, domain: Optional[Sequence[int]]):
        """The domain (default: the universe), its 0-based indices and
        their probe-set rows, gathered once per verify or encode call."""
        dom = tuple(domain) if domain is not None else tuple(range(1, self.n + 1))
        dom_idx = np.asarray(dom, dtype=np.int64) - 1
        return dom, dom_idx, self._sets0[dom_idx]

    def _support_bytes(self, dom_size: int) -> int:
        """About the bytes one data set takes in `_agreement`: its union
        mask, its gathered domain rows, its member positions (int64) and,
        per domain index, its count, agreement and flags."""
        return self.n_prime + dom_size * (self.d + 32) + 8 * self.s * self.d

    def verify(
        self,
        domain: Optional[Sequence[int]] = None,
        limit: int = 100_000,
        rng=None,
    ) -> VerificationReport:
        """Check the agreement guarantee for every weight <= s data set
        over `domain` (default: the whole universe), exhaustively when
        there are at most `limit` supports, else on a uniform sample.
        Supports go through `_agreement` in chunks of about
        `_CHUNK_BYTES` bytes."""
        dom, dom_idx, rows = self._domain(domain)
        chunk = max(1, _CHUNK_BYTES // self._support_bytes(len(dom)))
        total = ball_size(len(dom), self.s)
        exhaustive = total <= limit
        min_agree = 1.0
        violations = 0
        checked = 0
        supports = self._supports(dom, total, exhaustive, limit, rng)
        while batch := list(islice(supports, chunk)):
            _, agreements, bad = self._agreement(self._padded(batch), dom_idx, rows)
            min_agree = min(min_agree, agreements.min(initial=1.0))
            violations += int(bad.sum())
            checked += len(batch)
        return VerificationReport(
            exhaustive=exhaustive,
            checked_supports=checked,
            total_supports=total,
            min_agreement=min_agree,
            violations=violations,
        )

    def _padded(self, supports: Sequence[Tuple[int, ...]]) -> np.ndarray:
        """1-based supports of weight <= s as int64[B, s] rows of 0-based
        universe indices, a support shorter than s padded with -1."""
        rows = [support + (0,) * (self.s - len(support)) for support in supports]
        return np.array(rows, dtype=np.int64).reshape(len(rows), self.s) - 1

    def _supports(self, dom, total, exhaustive, limit, rng):
        if exhaustive:
            for w in range(self.s + 1):
                yield from combinations(dom, w)
        else:
            if rng is None:
                rng = np.random.default_rng(0)
            space = BoundedWeightSpace(len(dom), self.s)
            for _ in range(limit):
                k = int(rng.integers(space.size()))
                yield tuple(dom[i - 1] for i in space.unrank(k).support())

    def encode(
        self, x: BitString, verify_domain: Optional[Sequence[int]] = None
    ) -> Tuple[BitString, np.ndarray]:
        """Union encoding of the set x, plus the per-index agreement
        profile over the verification domain (default: the universe),
        from `_agreement` on a batch of one.  Raises VerificationError for
        the first domain index that violates the agreement guarantee."""
        if x.n != self.n:
            raise ParameterError("data length does not match universe")
        if x.weight > self.s:
            raise ParameterError("data weight exceeds s")
        dom, dom_idx, rows = self._domain(verify_domain)
        (mask,), (agreements,), (bad,) = self._agreement(self._padded([x.support()]), dom_idx, rows)
        if bad.any():
            raise VerificationError("index %d collides beyond eps" % dom[int(bad.argmax())])
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
        self._codeword = Codeword(y)

    def header(self) -> Dict[str, object]:
        st = self.structure
        return {
            "n": st.n,
            "s": st.s,
            "eps": st.eps,
            "n_prime": st.n_prime,
            "probe_sets": (st._sets0 + 1).tolist(),
        }

    @classmethod
    def from_header(cls, head: Dict) -> "MembershipInstance":
        st = OneProbeMembership(
            head["n"], head["s"], head["eps"], head["probe_sets"], head["n_prime"]
        )
        return st.instance(BitString.from01(head["x"]))

    @property
    def codeword(self) -> Codeword:
        return self._codeword

    def probe_budget(self, query) -> int:
        return 1

    def coin_radices(self, query) -> Tuple[int, ...]:
        return (self.structure.d,)

    def plan(self, query: int, coins: np.ndarray):
        """Probe one uniformly random position of P_i."""
        self.check_query(query)
        probe_set = np.array(self.structure.probe_set(query), dtype=np.int64)
        return probe_set[coins[:, :1]], xor_all

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
        return self.structure.probe_set(1 if target is None else target)[:budget]

    def params(self) -> Dict[str, object]:
        out = self.structure.params()
        out["x_weight"] = self.x.weight
        return out


# -- block-composed variant -------------------------------------------


@dataclass(frozen=True)
class ComposedBuildReport:
    public_n: int
    universe: int
    s: int
    eps: float
    a: int
    b: int
    d: int
    n_prime: int
    length: int
    seed: int
    perm_trials: int
    good_count: int
    good_threshold: int
    base: MembershipBuildReport

    to_dict = _report_dict


class BlockCodedMembership:
    """Probe-set membership whose vector is shuffled, cut into b blocks
    of a bits, and Hadamard-encoded block by block.

    Public queries are indices 1..public_n, embedded as the first
    public_n elements of a larger universe (the slack keeps probe sets
    spread out).  Good blocks and good indices are determined by the
    permutation alone, before any data is encoded.
    """

    def __init__(
        self,
        public_n: int,
        base: OneProbeMembership,
        perm: Sequence[int],
        a: int,
        report: Optional[ComposedBuildReport] = None,
    ):
        n_prime = base.n_prime
        if n_prime % a:
            raise ParameterError("vector length must be a whole number of blocks")
        perm = np.asarray(perm)
        if perm.dtype.kind not in "biu" or not np.array_equal(np.sort(perm), np.arange(n_prime)):
            raise ParameterError("perm must be a permutation of 0..n_prime-1")
        if public_n > base.n:
            raise ParameterError("public domain exceeds the universe")
        self.public_n = public_n
        self.base = base
        self.a = a
        self.b = n_prime // a
        self.perm = perm.astype(np.int64)
        self.code = HadamardCode(a)
        self.length = self.b * self.code.length
        self.report = report
        self._block_info = [self._index_blocks(i) for i in range(1, public_n + 1)]
        self.good_indices = tuple(
            i
            for i in range(1, public_n + 1)
            if 4 * np.count_nonzero(self._block_info[i - 1][1]) >= self.b
        )

    def _index_blocks(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Per-block element counts of P_i after the shuffle, and per block
        the local (1-based) position of its element if it holds exactly
        one, else 0."""
        k, e = np.divmod(self.perm[self.base._sets0[i - 1]], self.a)
        counts = np.bincount(k, minlength=self.b)
        local = np.zeros(self.b, dtype=np.int64)
        once = counts[k] == 1
        local[k[once]] = e[once] + 1
        return counts, local

    def block_counts(self, i: int) -> np.ndarray:
        if not 1 <= i <= self.public_n:
            raise ParameterError("index out of range")
        return self._block_info[i - 1][0].copy()

    def good_blocks(self, i: int) -> Dict[int, int]:
        """Blocks holding exactly one element of P_i: block -> local bit."""
        if not 1 <= i <= self.public_n:
            raise ParameterError("index out of range")
        return {k + 1: int(e) for k, e in enumerate(self._block_info[i - 1][1]) if e}

    @classmethod
    def build(
        cls,
        public_n: int,
        s: int,
        eps: float = 0.25,
        a: int = 14,
        b: int = 288,
        universe_factor: int = 20,
        seed: int = 0,
        perm_trials: int = 256,
        retries: int = OneProbeMembership.GRAPH_RETRIES,
        verify_limit: int = 100_000,
    ) -> "BlockCodedMembership":
        if a < 1 or b < 1:
            raise ParameterError("need a >= 1 and b >= 1")
        if a > MAX_EXPONENT:
            raise InfeasibleSizeError("block length 2^%d is beyond desk scale" % a)
        universe = universe_factor * public_n
        base = OneProbeMembership.build(
            universe,
            s,
            eps,
            seed=seed,
            n_prime=a * b,
            d=b,
            domain=range(1, public_n + 1),
            retries=retries,
            verify_limit=verify_limit,
        )
        threshold = math.ceil(public_n / 20)
        for trial in range(perm_trials):
            rng = np.random.default_rng(derive_seed("blocks", seed, trial))
            perm = rng.permutation(a * b)
            st = cls(public_n, base, perm, a)
            if len(st.good_indices) >= threshold:
                st.report = ComposedBuildReport(
                    public_n=public_n,
                    universe=universe,
                    s=s,
                    eps=eps,
                    a=a,
                    b=b,
                    d=base.d,
                    n_prime=base.n_prime,
                    length=st.length,
                    seed=seed,
                    perm_trials=trial + 1,
                    good_count=len(st.good_indices),
                    good_threshold=threshold,
                    base=base.report,
                )
                return st
        raise ConstructionError(
            "no permutation reached %d good indices in %d trials"
            % (threshold, perm_trials)
        )

    def embed(self, x: BitString) -> BitString:
        """Public data as a subset of the first public_n universe elements."""
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
        pieces = []
        shift = np.arange(self.a - 1, -1, -1, dtype=np.uint64)
        for k in range(self.b):
            block = shuffled[k * self.a : (k + 1) * self.a].astype(np.uint64)
            pieces.append(BitString.from_bit_array(self.code.encode_value(int((block << shift).sum()))))
        return Codeword(BitString.concat(pieces)), agreements

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


class ComposedInstance(IndexQueries):
    """Encoded composed structure; queries are public indices.

    decoder="block": pick a uniform block; when it holds exactly one
    element of P_i, 2-probe decode that bit, else answer a coin from the
    coin string.  decoder="direct": pick a uniform element of P_i and
    2-probe decode it inside its block; no coin fallback.
    """

    kind = "membership-composed"
    attacks = ("block_killer",)

    def __init__(self, structure, x, codeword, agreements, decoder="block"):
        if decoder not in ("block", "direct"):
            raise ParameterError("decoder must be 'block' or 'direct'")
        self.structure = structure
        self.x = x
        self.agreements = agreements
        self.decoder = decoder
        self._codeword = codeword
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
            "probe_sets": (st.base._sets0 + 1).tolist(),
            "perm": st.perm.tolist(),
        }

    @classmethod
    def from_header(cls, head: Dict) -> "ComposedInstance":
        base = OneProbeMembership(
            head["universe"], head["s"], head["eps"], head["probe_sets"], head["n_prime"]
        )
        st = BlockCodedMembership(head["public_n"], base, head["perm"], head["a"])
        return st.instance(BitString.from01(head["x"]), decoder=head["decoder"])

    @property
    def codeword(self) -> Codeword:
        return self._codeword

    def check_query(self, query: int) -> None:
        if not 1 <= query <= self.structure.public_n:
            raise ParameterError("query outside public domain")

    def probe_budget(self, query) -> int:
        return 2

    def coin_radices(self, query) -> Tuple[int, ...]:
        st = self.structure
        if self.decoder == "block":
            return (st.b * 2 * st.code.length,)
        return (st.base.d * st.code.length,)

    def _reads(self, query: int) -> Tuple[np.ndarray, np.ndarray]:
        """What the coin's pick chooses among: each block (block decoder)
        or each element of P_i (direct), as the block and the unit vector
        of i's local bit in it; unit 0 marks a block not good for i,
        where nothing is read."""
        self.check_query(query)
        st = self.structure
        if self.decoder == "block":
            local = st._block_info[query - 1][1]
            return np.arange(st.b), np.where(local > 0, 1 << (st.a - local), 0)
        blocks, e0 = np.divmod(st.perm[st.base._sets0[query - 1]], st.a)
        return blocks, 1 << (st.a - 1 - e0)

    def plan(self, query: int, coins: np.ndarray):
        """The coin picks a block and a fallback bit fb (block decoder) or
        an element of P_i (direct), and an offset z.  Local bit e of the
        block is read at z and z xor unit(e); a block not good for i
        answers fb."""
        blocks, units = self._reads(query)
        length = self.structure.code.length
        if self.decoder == "block":
            pick, rest = np.divmod(coins[:, 0], 2 * length)
            fb, z = np.divmod(rest, length)
        else:
            pick, z = np.divmod(coins[:, 0], length)
            fb = 0
        unit = units[pick]
        read = unit > 0
        positions = np.where(read[:, None], pair_reads(blocks[pick] * length, z, unit), 0)

        def combine(bits: np.ndarray) -> np.ndarray:
            return np.where(read, bits[:, 0] ^ bits[:, 1], fb)

        return positions, combine

    def wrong_counts(self, queries, pattern, limit: int) -> List[int]:
        """Exact at every query from one pair-read count per pick, so
        `limit` never applies.  The block decoder takes each good block's
        count twice (once per fallback bit) and, for a block not good for
        i, the half of its 2L coins whose fallback bit is wrong."""
        length = self.structure.code.length
        count = pair_read_counter(self.codeword, pattern, length)
        out = []
        for query in queries:
            blocks, units = self._reads(query)
            read = units > 0
            wrong = int(count(blocks[read] * length, units[read], self.truth(query)).sum())
            if self.decoder == "block":
                wrong = 2 * wrong + length * int(np.count_nonzero(~read))
            out.append(wrong)
        return out

    def queries(self):
        return iter(self.structure.good_indices)

    def random_query(self, rng) -> int:
        st = self.structure
        if st.good_indices:
            return rng.choice(st.good_indices)
        return rng.randrange(1, st.public_n + 1)

    def block_killer(self, budget: int, target=None) -> np.ndarray:
        """Flip the inner-code positions that invert the target index's
        bits (the first good index by default), block by block, heaviest
        blocks first."""
        st = self.structure
        if target is None:
            target = st.good_indices[0] if st.good_indices else 1
        counts = st.block_counts(target)
        held, e = np.divmod(st.perm[st.base._sets0[target - 1]], st.a)
        local_masks = np.zeros(st.b, dtype=np.int64)
        np.bitwise_or.at(local_masks, held, 1 << (st.a - 1 - e))
        blocks = np.flatnonzero(counts)
        blocks = blocks[np.argsort(-counts[blocks], kind="stable")]
        # every nonzero local mask inverts exactly half of its block
        budget = max(budget, 0)
        blocks = blocks[: -(-budget // (st.code.length // 2))]
        flips = [
            k * st.code.length + 1 + np.flatnonzero(st.code.encode_value(int(local_masks[k])))
            for k in blocks
        ]
        return np.concatenate([np.empty(0, dtype=np.int64), *flips])[:budget]

    def params(self) -> Dict[str, object]:
        out = self.structure.params()
        out["decoder"] = self.decoder
        out["x_weight"] = self.x.weight
        return out
