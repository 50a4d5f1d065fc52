"""Probe-set membership structures, standalone and block-composed.

The composed decoder is pinned down by a fully hand-built example
(identity shuffle, disjoint spread-out probe sets) whose exact error
fractions are worked out by hand: member error (b - g) / 2b under the
block decoder, 0 under the direct decoder, and specific values once a
single codeword bit is flipped.
"""

import dataclasses
import hashlib
import json
import math
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from ecds import membership
from ecds.bits import BitString, BoundedWeightSpace, ball_size
from ecds.cli import main
from ecds.errors import ConstructionError, ParameterError, VerificationError
from ecds.membership import (
    BlockCodedMembership,
    ComposedInstance,
    MembershipInstance,
    OneProbeMembership,
    probe_params,
)
from ecds.oracle import CorruptionPattern, corrupt, exact_error, probe_mass
from ecds.seeding import derive_seed, stream
from ecds.storage import save_structure


def test_default_probe_params_frozen():
    assert probe_params(64, 1, 0.1) == (60000, 60)
    assert probe_params(64, 2, 0.25) == (19200, 24)
    with pytest.raises(ParameterError):
        probe_params(1, 1, 0.1)
    with pytest.raises(ParameterError):
        probe_params(8, 1, 1.0)


def hand_structure(eps=0.4):
    return OneProbeMembership(
        n=2,
        s=1,
        eps=eps,
        probe_sets=[(1, 2, 3, 4, 5), (4, 5, 6, 7, 8)],
        n_prime=8,
    )


def test_thresholds_are_integer_counts():
    st = hand_structure()
    assert st._nonmember_max == 2
    st = hand_structure(eps=0.2)
    assert st._nonmember_max == 1


def test_probe_set_accessor():
    st = hand_structure()
    assert st.probe_set(1) == (1, 2, 3, 4, 5)
    assert st.probe_set(2) == (4, 5, 6, 7, 8)
    with pytest.raises(ParameterError):
        st.probe_set(3)


def test_structure_validation():
    with pytest.raises(ParameterError):
        OneProbeMembership(2, 1, 0.1, [(1, 2)], 4)
    with pytest.raises(ParameterError):
        OneProbeMembership(2, 1, 0.1, [(1, 2), (3, 9)], 8)
    with pytest.raises(ParameterError):
        OneProbeMembership(2, 1, 0.1, [(1, 1), (2, 3)], 8)
    with pytest.raises(ParameterError):
        OneProbeMembership(2, 1, 0.1, [(1, 2), (3,)], 8)


@pytest.mark.parametrize(
    "sets, message",
    [
        ([(1, 2, 3), (4, 5)], "equal-size and duplicate-free"),
        ([(1, 2), (3, 4, 5)], "equal-size and duplicate-free"),
        ([(3, 1, 3), (4, 5, 6)], "equal-size and duplicate-free"),
        ([(1, 2, 3), (6, 4, 6)], "equal-size and duplicate-free"),
        (np.array([(2, 7, 2), (1, 4, 5)]), "equal-size and duplicate-free"),
        ([(1, 2, 9), (4, 5, 6)], "out of range"),
        ([(0, 2, 3), (4, 5, 6)], "out of range"),
        ([(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)], "integers"),
        ([("1", "2", "3"), ("4", "5", "6")], "integers"),
        ([(1, 2, 3), (4, 5, 6.5)], "integers"),
    ],
    ids=["ragged-short", "ragged-long", "dup-first", "dup-last", "dup-array",
         "past-end", "zero", "float", "string", "mixed"],
)
def test_probe_set_rows_are_checked(sets, message):
    """Rows are sorted once and each position compared with the next: a
    repeat anywhere in a row, ragged rows, positions outside [1, n'] and
    positions that are not integers (never cast) are refused.  The rows
    given are copied, not sorted in place: a read-only array, as loaded
    from a file, is accepted."""
    with pytest.raises(ParameterError, match=message):
        OneProbeMembership(2, 1, 0.1, sets, 8)
    st = OneProbeMembership(2, 1, 0.1, [(5, 1, 3), (8, 2, 7)], 8)
    assert (st.probe_set(1), st.probe_set(2)) == ((1, 3, 5), (2, 7, 8))
    rows = np.array([(5, 1, 3), (8, 2, 7)])
    rows.flags.writeable = False
    st = OneProbeMembership(2, 1, 0.1, rows, 8)
    assert (st.probe_set(1), st.probe_set(2)) == ((1, 3, 5), (2, 7, 8))


@pytest.mark.parametrize(
    "n_prime, dtype",
    [(255, np.uint8), (256, np.uint16), (65535, np.uint16), (65536, np.uint32)],
)
def test_probe_sets_are_held_at_the_width_of_their_values(n_prime, dtype):
    """Probe sets are held in the narrowest dtype that holds n', so the
    top position survives the +1 of header_sets; plan positions are
    int64, equal to those of the int64 rows."""
    rows = [(n_prime, 1, 2), (n_prime - 2, n_prime, n_prime - 1)]
    st = OneProbeMembership(2, 1, 0.5, rows, n_prime)
    assert st._sets0.dtype == dtype
    head = st.header_sets()
    assert head.dtype == dtype
    assert head.tolist() == [sorted(row) for row in rows]
    again = OneProbeMembership(2, 1, 0.5, head, n_prime)
    assert np.array_equal(again._sets0, st._sets0) and again._sets0.dtype == dtype
    inst = st.instance(BitString.from01("10"))
    assert inst.codeword.bits.bit(n_prime) == 1
    coins = np.arange(3)[:, None]
    for i, row in enumerate(rows, start=1):
        positions, _ = inst.plan(i, coins)
        assert positions.dtype == np.int64
        assert np.array_equal(positions, np.array(sorted(row), dtype=np.int64)[coins])
        assert st.probe_set(i) == tuple(sorted(row))


def test_hand_encoding_and_agreement():
    st = hand_structure()
    y, agreements = st.encode(BitString.from01("10"))
    assert y.to01() == "11111000"
    assert agreements[0] == 1.0
    assert agreements[1] == pytest.approx(1 - 2 / 5)
    y, _ = st.encode(BitString.from01("00"))
    assert y.to01() == "00000000"


def test_hand_verify_exhaustive():
    ver = hand_structure().verify()
    assert ver.exhaustive
    assert ver.total_supports == ball_size(2, 1) == 3
    assert ver.checked_supports == 3
    assert ver.coverage == 1.0
    assert ver.min_agreement == pytest.approx(0.6)
    assert type(ver.min_agreement) is float
    assert ver.violations == 0


def test_verify_domain_smaller_than_s():
    """With s above the domain size every subset of the domain is
    admissible: it is checked exhaustively within `limit`, and a sample
    is refused with ParameterError, not a bare ValueError."""
    st = OneProbeMembership(3, 2, 0.3, [(1, 2), (3, 4), (5, 6)], 6)
    ver = st.verify(domain=[2], limit=2)
    assert ver.exhaustive and ver.checked_supports == ver.total_supports == 2
    with pytest.raises(ParameterError, match="limit >= 2"):
        st.verify(domain=[2], limit=1)
    ver = st.verify(domain=[1, 2], limit=3)  # s equal to the domain size samples
    assert not ver.exhaustive and ver.checked_supports == 3


@pytest.mark.parametrize("size, s", [(1, 1), (6, 2), (8, 3), (5, 5), (3, 5)])
def test_exhaustive_supports_are_every_combination(size, s):
    """The exhaustive rows, from `unrank_rows`, hold every set of weight
    <= s over the domain slots once each, ascending: the sets the
    combinations loop listed, in another order."""
    st = OneProbeMembership(1, s, 0.5, [(1,)], 1)
    total = ball_size(size, s)
    rows = st._supports(size, total, True, total, None).tolist()
    got = sorted(tuple(v for v in row if v >= 0) for row in rows)
    expect = sorted(c for w in range(min(s, size) + 1) for c in combinations(range(size), w))
    assert len(rows) == total and got == expect


@pytest.mark.parametrize("domain", [[0], [4], [1, -3], [2, 4]])
def test_domain_indices_outside_universe_are_refused(domain):
    """Index 0 once verified P_n (index -1 wrapped) and n + 1 raised a
    bare IndexError: build, verify and encode refuse both."""
    st = OneProbeMembership(3, 2, 0.3, [(1, 2), (3, 4), (5, 6)], 6)
    with pytest.raises(ParameterError, match="domain"):
        st.verify(domain=domain)
    with pytest.raises(ParameterError, match="domain"):
        st.encode(BitString.from01("100"), verify_domain=domain)
    with pytest.raises(ParameterError, match="domain"):
        OneProbeMembership.build(3, 1, 0.5, n_prime=30, d=3, domain=domain)


def test_hand_verify_detects_violations():
    ver = hand_structure(eps=0.2).verify()
    assert ver.violations == 2
    with pytest.raises(VerificationError):
        hand_structure(eps=0.2).encode(BitString.from01("10"))


def test_hand_decode_error_is_overlap_fraction():
    st = hand_structure()
    inst = st.instance(BitString.from01("10"))
    assert exact_error(inst, 1, CorruptionPattern.empty()) == 0
    assert exact_error(inst, 2, CorruptionPattern.empty()) == Fraction(2, 5)


def test_probe_distribution_uniform_over_probe_set():
    st = hand_structure()
    inst = st.instance(BitString.from01("01"))
    # one slot, used by all 5 coins, each reading its own element of P_2
    assert probe_mass(inst, 2).tolist() == [0, 0, 0, 1, 1, 1, 1, 1]


def corrupt_bits(y, pattern):
    return y ^ BitString.from_indices(y.n, pattern.positions)


def test_noise_shifts_error_by_hit_count():
    st = hand_structure()
    inst = st.instance(BitString.from01("10"))
    rng = random.Random(5)
    for _ in range(30):
        pattern = CorruptionPattern.random(8, rng.randrange(0, 5), rng)
        served = corrupt_bits(inst.codeword.bits, pattern)
        for i, want in ((1, 1), (2, 0)):
            bad = sum(1 for j in st.probe_set(i) if served.bit(j) != want)
            assert exact_error(inst, i, pattern) == Fraction(bad, st.d)


def test_build_small_and_reproducible():
    st = OneProbeMembership.build(8, 1, eps=0.3, seed=42)
    rep = st.report
    assert (rep.params["n_prime"], rep.params["d"]) == probe_params(8, 1, 0.3)
    assert rep.attempts >= 1 and not rep.overridden
    assert rep.verification.exhaustive
    assert rep.verification.violations == 0
    again = OneProbeMembership.build(8, 1, eps=0.3, seed=42)
    assert np.array_equal(st._sets0, again._sets0)
    other = OneProbeMembership.build(8, 1, eps=0.3, seed=43)
    assert not np.array_equal(st._sets0, other._sets0)


def test_build_members_never_err_nonmembers_within_eps():
    st = OneProbeMembership.build(8, 2, eps=0.3, seed=7)
    x = BitString.from_indices(8, [2, 5])
    inst = st.instance(x)
    for i in inst.queries():
        err = exact_error(inst, i, CorruptionPattern.empty())
        if x.bit(i):
            assert err == 0
        else:
            assert err <= Fraction(st._nonmember_max, st.d)
            assert float(err) <= 0.3


def test_build_rejects_oversized_probe_sets():
    with pytest.raises(ParameterError):
        OneProbeMembership.build(8, 1, eps=0.3, n_prime=10, d=11)


def test_build_gives_up_when_infeasible():
    # 2 positions cannot keep 3 singleton sets pairwise disjoint enough
    with pytest.raises(ConstructionError) as info:
        OneProbeMembership.build(
            3, 1, eps=0.1, n_prime=2, d=2, retries=3
        )
    assert info.value.report is not None
    assert info.value.report.violations > 0


def test_report_dict_shape():
    st = OneProbeMembership.build(8, 1, eps=0.3, seed=42)
    d = st.report.to_dict()
    assert d["n"] == 8 and d["verification_exhaustive"] is True
    assert d["verification_coverage"] == 1.0


def report_digest(st):
    return hashlib.sha256(json.dumps(st.report.to_dict(), sort_keys=True).encode()).hexdigest()


def test_build_report_bytes_are_pinned():
    """The sorted-key JSON of a one-probe and a composed build report,
    its base's nested: the keys and values `ecds build` and the
    benchmark's composed-mc fingerprint print."""
    assert report_digest(OneProbeMembership.build(32, 2, seed=3)) == (
        "da6523a4eead42f349124f5cf36c7ad68e732c4edfc45a3bc4b68fc9f78d41cf"
    )
    assert report_digest(BlockCodedMembership.build(public_n=16, s=1, eps=0.4, a=5, b=40, seed=3)) == (
        "e45bfb251ead5dedfbfe7aaa9cfc76afaa97f6cea281f3443de2646d215b3da7"
    )


def test_build_report_repeats_no_structure_param():
    for st in (OneProbeMembership.build(8, 1, eps=0.3, seed=42), toy_built()):
        names = {f.name for f in dataclasses.fields(st.report)}
        assert not names & set(st.params())
        assert st.params().items() <= st.report.params.items()


# -- reference recount over Python sets ------------------------------


def recount(st, dom, support):
    """The encoded union and, per domain index, its agreement, whether it
    breaks its threshold and the message encode gives for it, from sets."""
    union = set().union(*(st.probe_set(i) for i in support))
    rows = []
    for i in dom:
        hits = len(union & set(st.probe_set(i)))
        if i in support:
            rows.append((hits / st.d, False, None))
        else:
            rows.append((1 - hits / st.d, hits > st._nonmember_max,
                         "index %d collides beyond eps" % i))
    return union, rows


def reference_verify(st, dom, limit, seed):
    total = ball_size(len(dom), st.s)
    if total <= limit:
        supports = [c for w in range(st.s + 1) for c in combinations(dom, w)]
    else:
        rng = np.random.default_rng(seed)
        space = BoundedWeightSpace(len(dom), st.s)
        supports = [
            tuple(dom[i - 1] for i in space.unrank(int(rng.integers(space.size()))).support())
            for _ in range(limit)
        ]
    min_agree, violations = 1.0, 0
    for support in supports:
        for agree, bad, _ in recount(st, dom, set(support))[1]:
            min_agree = min(min_agree, agree)
            violations += bad
    return total <= limit, len(supports), total, min_agree, violations


def overlap_agreement(st, supports, dom_idx):
    """`_agreement` of every support (rows of domain slots) over the
    whole domain, block by block of its overlap table."""
    parts = [st._agreement(supports, dom_idx, dom_idx[block], table)
             for block, table in st._overlaps(dom_idx, dom_idx)]
    return tuple(np.concatenate(side, axis=1) for side in zip(*parts))


@pytest.mark.parametrize("name", ["colliding", "built", "wide"])
def test_members_agree_exactly_on_every_support(name):
    """A member's whole probe set lies in the union, so it agrees at
    exactly 1.0 and never breaks a threshold, collisions or not."""
    st = REFERENCE_STRUCTURES[name]()
    dom, dom_idx = st._domain(None)
    supports = [c for w in range(1, st.s + 1) for c in combinations(dom, w)]
    slots = np.array([c + (0,) * (st.s - len(c)) for c in supports]) - 1
    agreements, bad = overlap_agreement(st, slots, dom_idx)
    for support, agree, flags in zip(supports, agreements, bad):
        members = np.asarray(support) - 1
        assert agree[members].tolist() == [1.0] * len(support)
        assert not flags[members].any()


def colliding_structure():
    """Random probe sets packed into a short vector: many non-members
    collide beyond eps, so verification finds violations."""
    rng = np.random.default_rng(17)
    sets = [tuple(rng.choice(30, size=6, replace=False) + 1) for _ in range(14)]
    return OneProbeMembership(14, 2, 0.34, sets, 30)


def wide_structure():
    """Probe sets of 300 positions: member counts pass 255, past what one
    byte holds."""
    rng = np.random.default_rng(19)
    sets = [tuple(rng.choice(3000, size=300, replace=False) + 1) for _ in range(12)]
    return OneProbeMembership(12, 2, 0.5, sets, 3000)


def spread_structure(d, n_prime, eps, seed=20):
    """12 random probe sets of d positions (d = 1: distinct ones), so
    that d around a multiple of 64 fills whole words, or one bit past
    them, with a threshold no data set breaks."""
    rng = np.random.default_rng(seed)
    if d == 1:
        sets = [(p + 1,) for p in rng.permutation(n_prime)[:12]]
    else:
        sets = [tuple(rng.choice(n_prime, size=d, replace=False) + 1) for _ in range(12)]
    return OneProbeMembership(12, 2, eps, sets, n_prime)


REFERENCE_STRUCTURES = {
    "colliding": colliding_structure,
    "wide": wide_structure,
    "d1": lambda: spread_structure(1, 24, 0.5),
    "d8": lambda: spread_structure(8, 120, 0.5),
    "d64": lambda: spread_structure(64, 1000, 0.4),
    "d65": lambda: spread_structure(65, 1000, 0.4),
    "built": lambda: OneProbeMembership.build(14, 2, eps=0.35, seed=8, domain=range(2, 9)),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_STRUCTURES))
@pytest.mark.parametrize("dom", [None, (2, 3, 5, 7, 8, 11)])
@pytest.mark.parametrize("limit", [100_000, 9])
def test_verify_matches_set_recount(name, dom, limit):
    st = REFERENCE_STRUCTURES[name]()
    full = tuple(range(1, st.n + 1)) if dom is None else dom
    ver = st.verify(domain=dom, limit=limit, rng=np.random.default_rng(5))
    exhaustive, checked, total, min_agree, violations = reference_verify(st, full, limit, 5)
    assert ver.exhaustive == exhaustive == (limit == 100_000)
    assert (ver.checked_supports, ver.total_supports) == (checked, total)
    assert ver.min_agreement == min_agree
    assert ver.violations == violations
    assert (violations > 0) == (name == "colliding")


@pytest.mark.parametrize("name", sorted(REFERENCE_STRUCTURES))
@pytest.mark.parametrize("dom", [None, (2, 3, 5, 7, 8, 11)])
def test_encode_matches_set_recount(name, dom):
    """Against the set recount for every data set; with a domain, some
    encoded sets hold positions that no domain row reads."""
    st = REFERENCE_STRUCTURES[name]()
    full = tuple(range(1, st.n + 1)) if dom is None else dom
    held = set().union(*(st.probe_set(i) for i in full))
    outcomes = set()
    for w in range(st.s + 1):
        for support in combinations(range(1, st.n + 1), w):
            x = BitString.from_indices(st.n, list(support))
            union, rows = recount(st, full, set(support))
            broken = [msg for _, bad, msg in rows if bad]
            if broken:
                with pytest.raises(VerificationError) as info:
                    st.encode(x, verify_domain=dom)
                assert str(info.value) == broken[0]
                outcomes.add("raised")
                continue
            y, agreements = st.encode(x, verify_domain=dom)
            assert y.n == st.n_prime and set(y.support()) == union
            assert agreements.dtype == np.float64
            assert agreements.tolist() == [agree for agree, _, _ in rows]
            outcomes.add("encoded" if union <= held else "encoded past the domain")
    expected = {"encoded"} | ({"raised"} if name == "colliding" else set())
    assert outcomes == expected | ({"encoded past the domain"} if dom else set())


@pytest.mark.parametrize("name", sorted(REFERENCE_STRUCTURES))
@pytest.mark.parametrize("limit", [100_000, 47])
def test_verify_chunks_match_set_recount(monkeypatch, name, limit):
    """Blocks of 5 domain rows and a byte budget for 9 supports a chunk:
    each block's exhaustive or sampled pass spans several full chunks
    and a shorter last one, and still counts as the set recount does."""
    st = REFERENCE_STRUCTURES[name]()
    monkeypatch.setattr(st, "_block_rows", lambda cols: 5)
    monkeypatch.setattr(membership, "_CHUNK_BYTES", 9 * st._support_bytes(5) + 1)
    sizes = {}
    agreement = st._agreement

    def spy(supports, cols, dom_idx, table):
        sizes.setdefault(tuple(dom_idx.tolist()), []).append(len(supports))
        return agreement(supports, cols, dom_idx, table)

    monkeypatch.setattr(st, "_agreement", spy)
    ver = st.verify(limit=limit, rng=np.random.default_rng(3))
    dom = tuple(range(1, st.n + 1))
    exhaustive, checked, total, min_agree, violations = reference_verify(st, dom, limit, 3)
    blocks = list(sizes)
    assert [i + 1 for block in blocks for i in block] == list(dom)
    assert [len(block) for block in blocks[:-1]] == [5] * (len(blocks) - 1)
    for block in blocks:
        chunks = sizes[block]
        assert len(chunks) > 2 and chunks[:-1] == [9] * (len(chunks) - 1) and 0 < chunks[-1] < 9
        assert sum(chunks) == checked
    assert ver.exhaustive == exhaustive == (limit == 100_000)
    assert (ver.checked_supports, ver.total_supports) == (checked, total)
    assert ver.min_agreement == min_agree
    assert ver.violations == violations


def test_composed_base_verify_memory():
    """Verifying the composed base structure (64 probe sets of 288 in
    4032 positions) allocates under 2 MiB at its peak."""
    base = BlockCodedMembership.build(64, 2, a=14, b=288).base
    assert (base.n, base.n_prime, base.d) == (64, 4032, 288)
    tracemalloc.start()
    try:
        ver = base.verify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ver.checked_supports == ver.total_supports == 2081
    assert ver.violations == 0
    assert peak < 2 << 20


def test_composed_build_memory():
    """Building the composed structure (64 probe sets of 288 in 4032
    positions) allocates under 2.5 MiB at its peak: the probe sets are
    drawn straight into uint16 and never held as int64."""
    tracemalloc.start()
    try:
        st = BlockCodedMembership.build(64, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.base._sets0.dtype == np.uint16 and st.base._sets0.shape == (64, 288)
    assert peak < 5 << 19


@pytest.mark.parametrize("n, s", [(1024, 1), (256, 2)])
def test_full_universe_verify_memory(n, s):
    """Verifying full-universe structures (d = 100 in 100 000 positions,
    and d = 80 in 160 000 over 32 897 data sets) allocates under 3 MiB at
    its peak: the overlap table is built one block of domain rows at a
    time (the whole table would take 32 MiB at n = 1024)."""
    st = OneProbeMembership.build(n, s)
    tracemalloc.start()
    try:
        ver = st.verify()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ver == st.report.verification and ver.exhaustive
    assert peak < 3 << 20


# -- composed ---------------------------------------------------------


def hand_composed():
    base = OneProbeMembership(
        n=4,
        s=1,
        eps=0.4,
        probe_sets=[(1, 3), (5, 7), (2, 4), (6, 8)],
        n_prime=8,
    )
    return BlockCodedMembership(
        public_n=2, base=base, perm=list(range(8)), a=2
    )


def test_hand_composed_block_geometry():
    st = hand_composed()
    assert st.b == 4 and st.length == 16
    assert list(np.bincount(st.placement(1)[0], minlength=st.b)) == [1, 1, 0, 0]
    assert st.good_blocks(1) == {1: 1, 2: 1}
    assert st.good_blocks(2) == {3: 1, 4: 1}
    assert st.good_indices == (1, 2)


def test_hand_composed_codeword():
    st = hand_composed()
    codeword, agreements = st.encode(BitString.from01("10"))
    assert codeword.bits.to01() == "0011001100000000"
    assert list(agreements) == [1.0, 1.0]


def parity_bits(s, v):
    """v's length-2^s Hadamard codeword by its per-position definition:
    position z (0-based) holds parity(z & v), as a 0/1 uint8 array."""
    vals = np.arange(1 << s, dtype=np.uint64)
    return (np.bitwise_count(vals & np.uint64(v)) & 1).astype(np.uint8)


@pytest.mark.parametrize("a", [1, 2, 3, 8, 14])
def test_composed_codeword_matches_block_encoding(a):
    """Every data set's codeword is the shuffled union encoding cut into
    a-bit blocks, each block's per-position Hadamard codeword in turn,
    byte for byte, also where a block's codeword is shorter than a byte."""
    b = 6
    order = np.random.default_rng(a).permutation(a * b) + 1
    d = a * b // 4
    base = OneProbeMembership(4, 4, 0.5, [order[k * d : (k + 1) * d] for k in range(4)], a * b)
    st = BlockCodedMembership(4, base, np.random.default_rng(a + 1).permutation(a * b), a)
    for v in range(16):
        x = BitString.from_int(4, v)
        codeword, _ = st.encode(x)
        y, _ = base.encode(st.embed(x), verify_domain=range(1, 5))
        shuffled = np.zeros(a * b, dtype=np.uint8)
        shuffled[st.perm] = y.to_bit_array()
        blocks = [int("".join(map(str, shuffled[k * a : (k + 1) * a])), 2) for k in range(b)]
        expect = np.concatenate([parity_bits(a, value) for value in blocks])
        assert codeword.bits._data == BitString.from_bit_array(expect)._data
        assert codeword.bits.n == b << a


def test_composed_encode_memory():
    """One composed encode (288 blocks of 2^14 bits) allocates at most
    1.2 MiB at its peak: the codeword's bytes and their one copy."""
    st = BlockCodedMembership.build(64, 2, a=14, b=288)
    x = BitString.from_indices(64, list(st.good_indices[:2]))
    tracemalloc.start()
    try:
        codeword, _ = st.encode(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert codeword.bits.n == 288 << 14
    assert peak <= 1.2 * 2**20


def test_hand_composed_exact_errors():
    st = hand_composed()
    x = BitString.from01("10")
    block = st.instance(x, decoder="block")
    direct = st.instance(x, decoder="direct")
    assert block.coin_count(1) == 32
    assert direct.coin_count(1) == 8
    empty = CorruptionPattern.empty()
    # fallback coin alone contributes (b - g) / 2b = 1/4
    assert exact_error(block, 1, empty) == Fraction(1, 4)
    assert exact_error(block, 2, empty) == Fraction(1, 4)
    assert exact_error(direct, 1, empty) == 0
    assert exact_error(direct, 2, empty) == 0
    # one flipped bit in block 1 hits half that block's offset pairs
    hit = CorruptionPattern([1])
    assert exact_error(block, 1, hit) == Fraction(3, 8)
    assert exact_error(direct, 1, hit) == Fraction(1, 4)
    assert exact_error(block, 2, hit) == Fraction(1, 4)
    assert exact_error(direct, 2, hit) == 0


def test_hand_composed_budget_and_queries():
    st = hand_composed()
    inst = st.instance(BitString.from01("01"))
    assert inst.probe_budget(1) == 2
    assert list(inst.queries()) == [1, 2]
    with pytest.raises(ParameterError):
        inst.truth(3)


def test_block_coin_enumeration_covers_space():
    st = hand_composed()
    inst = st.instance(BitString.from01("10"))
    seen = {inst.coin_from_index(1, i) for i in range(inst.coin_count(1))}
    assert len(seen) == 32
    # the digit splits as (block - 1, fallback bit, offset), block outermost
    ks = {digit // (2 * st.code.length) + 1 for (digit,) in seen}
    assert ks == {1, 2, 3, 4}


def test_composed_validation():
    base = hand_composed().base
    with pytest.raises(ParameterError):
        BlockCodedMembership(2, base, list(range(7)) + [7, 7], 2)
    with pytest.raises(ParameterError):
        BlockCodedMembership(2, base, list(range(8)), 3)
    with pytest.raises(ParameterError):
        BlockCodedMembership(5, base, list(range(8)), 2)
    for perm in ([float(k) for k in range(8)], [str(k) for k in range(8)], [list(range(8))]):
        with pytest.raises(ParameterError, match="permutation"):
            BlockCodedMembership(2, base, perm, 2)


def toy_built():
    return BlockCodedMembership.build(
        public_n=16, s=1, eps=0.4, a=5, b=40, seed=3
    )


def test_built_composed_report():
    st = toy_built()
    rep = st.report
    assert rep.params["universe"] == 16 and rep.params["n_prime"] == 200 and rep.params["d"] == 40
    assert rep.params["length"] == st.length == 40 * 32
    assert rep.params["good_count"] == len(st.good_indices)
    assert rep.params["good_count"] >= rep.good_threshold == 1
    d = rep.to_dict()
    assert d["base_n"] == 16 and d["base_verification_violations"] == 0


def test_built_composed_member_error_formula():
    # good blocks of a member always decode 1, so the block decoder's
    # error is exactly the fallback mass (b - g) / 2b
    st = toy_built()
    q = st.good_indices[0]
    x = BitString.unit(16, q)
    inst = st.instance(x, decoder="block")
    g = len(st.good_blocks(q))
    assert exact_error(inst, q, CorruptionPattern.empty()) == Fraction(
        st.b - g, 2 * st.b
    )
    assert exact_error(st.instance(x, decoder="direct"), q, CorruptionPattern.empty()) == 0


def test_built_composed_nonmember_error_recomputed():
    st = toy_built()
    member = st.good_indices[0]
    x = BitString.unit(16, member)
    codeword, _ = st.encode(x)
    y, _ = st.base.encode(st.embed(x), verify_domain=range(1, 17))
    arr = y.to_bit_array()
    shuffled = np.zeros_like(arr)
    shuffled[st.perm] = arr
    block = st.instance(x, decoder="block")
    direct = st.instance(x, decoder="direct")
    for q in st.good_indices[1:4]:
        good = st.good_blocks(q)
        g = len(good)
        bad_g = sum(
            1 for k, e in good.items() if shuffled[(k - 1) * st.a + e - 1]
        )
        expect = Fraction(2 * bad_g + (st.b - g), 2 * st.b)
        assert exact_error(block, q, CorruptionPattern.empty()) == expect
        hits = sum(1 for j in st.base.probe_set(q) if y.bit(j))
        assert exact_error(direct, q, CorruptionPattern.empty()) == Fraction(
            hits, st.base.d
        )


def test_composed_build_reproducible():
    a = toy_built()
    b = BlockCodedMembership.build(public_n=16, s=1, eps=0.4, a=5, b=40, seed=3)
    assert np.array_equal(a.perm, b.perm)
    assert np.array_equal(a.base._sets0, b.base._sets0)
    assert a.good_indices == b.good_indices


def wide_composed(public_n, s, eps, a, b, seed):
    """The composed structure over a base of 20·public_n elements,
    verified on the public indices only, with `build`'s permutation
    search: how `build` made it when the base had slack rows."""
    base = OneProbeMembership.build(
        20 * public_n, s, eps, seed=seed, n_prime=a * b, d=b, domain=range(1, public_n + 1)
    )
    for trial in range(256):
        perm = np.random.default_rng(derive_seed("blocks", seed, trial)).permutation(a * b)
        st = BlockCodedMembership(public_n, base, perm, a)
        if len(st.good_indices) >= math.ceil(public_n / 20):
            return st
    raise AssertionError("no permutation in 256 trials")


# (public_n, s, eps, a, b, seed); seed 60 of the first size, 14 and 13
# of the others need 2, 3 and 4 verify attempts; one public index is a
# base too small for probe_params' defaults, which both overrides skip
WIDE_CASES = [
    (1, 1, 0.4, 5, 40, 0),
    (16, 1, 0.4, 5, 40, 3),
    (16, 1, 0.4, 5, 40, 60),
    (8, 2, 0.45, 6, 60, 14),
    (20, 1, 0.35, 5, 48, 0),
    (12, 1, 0.4, 4, 40, 13),
]


@pytest.mark.parametrize("case", WIDE_CASES, ids=lambda c: "-".join(map(str, c)))
def test_build_matches_the_wide_base(case):
    """Rows past public_n are independent draws that nothing reads, so
    building the base over the public indices alone gives the same first
    rows, verify attempts, permutation, good indices, codewords,
    agreements and exact errors as the wide base."""
    public_n, s, eps, a, b, seed = case
    new = BlockCodedMembership.build(public_n, s, eps, a=a, b=b, seed=seed)
    old = wide_composed(*case)
    assert (new.base.n, old.base.n) == (public_n, 20 * public_n)
    assert np.array_equal(new.base._sets0, old.base._sets0[:public_n])
    assert new.report.base.attempts == old.base.report.attempts
    assert new.report.base.verification == old.base.report.verification
    assert np.array_equal(new.perm, old.perm)
    assert new.good_indices == old.good_indices
    good = new.good_indices
    x = BitString.from_indices(public_n, random.Random(seed).sample(good, min(s, len(good))))
    for decoder in ("block", "direct"):
        new_inst, old_inst = new.instance(x, decoder), old.instance(x, decoder)
        assert new_inst.codeword.bits == old_inst.codeword.bits
        assert np.array_equal(new_inst.agreements, old_inst.agreements)
        budget = CorruptionPattern.budget(0.05, new_inst.codeword.n)
        flips = new_inst.block_killer(budget)
        assert np.array_equal(flips, old_inst.block_killer(budget))
        for pattern in (CorruptionPattern.empty(), CorruptionPattern(flips)):
            for q in good:
                assert exact_error(new_inst, q, pattern) == exact_error(old_inst, q, pattern)


def test_wide_base_files_still_load(tmp_path, capsys):
    """A mem-composed file whose base has 20·public_n rows loads, and
    `decode` and `experiment` on it give the answers and wrong counts of
    the file `build` now writes at the same seed."""
    flags = ["--n", "16", "--s", "1", "--eps", "0.4", "--a", "5", "--b", "40"]
    for seed in (3, 60):
        old = wide_composed(16, 1, 0.4, 5, 40, seed)
        x = BitString.from_indices(16, [old.good_indices[-1]])
        old_path, new_path = str(tmp_path / "old.ecds"), str(tmp_path / "new.ecds")
        save_structure(old_path, old.instance(x))
        assert main(["build", "--scheme", "mem-composed", *flags, "--x", x.to01(),
                     "--seed", str(seed), "--out-file", new_path]) == 0
        head = json.loads(open(old_path, "rb").readline())
        assert head["universe"] == 320 and head["probe_sets"]["shape"] == [320, 40]
        capsys.readouterr()
        outputs = []
        for path in (old_path, new_path):
            answers = []
            for q in range(1, 17):
                assert main(["decode", "--structure", path, "--query", str(q), "--seed", "1"]) == 0
                answers.append(json.loads(capsys.readouterr().out)["answer"])
            results = []
            for adversary in ("block_killer", "random_flips"):
                assert main(["experiment", "--structure", path, "--adversary", adversary,
                             "--delta", "0.05", "--queries", "all", "--seed", "2"]) == 0
                body = json.loads(capsys.readouterr().out)
                results.append(body["results"])
            outputs.append((answers, results, body["params"]))
        (old_answers, old_results, old_params), (answers, results, params) = outputs
        assert old_answers == answers and old_results == results
        assert all(r["wrong"] is not None for rs in results for r in rs)
        assert (old_params.pop("universe"), params.pop("universe")) == (320, 16)
        assert old_params == params


def test_embed_places_data_in_public_prefix():
    st = hand_composed()
    emb = st.embed(BitString.from01("10"))
    assert emb.to01() == "1000"
    with pytest.raises(ParameterError):
        st.embed(BitString.from01("100"))


def crowded_composed():
    """Probe sets of 10 positions over 10 blocks: most blocks hold several
    elements of a set, so some indices are good and some are not."""
    rng = np.random.default_rng(23)
    sets = [tuple(rng.choice(40, size=10, replace=False) + 1) for _ in range(30)]
    base = OneProbeMembership(30, 2, 0.9, sets, 40)
    return BlockCodedMembership(15, base, rng.permutation(40), 4)


@pytest.mark.parametrize("make", [hand_composed, lambda: toy_built(), crowded_composed],
                         ids=["hand", "toy", "crowded"])
def test_composed_placement_matches_per_index_divmod(make):
    """Block counts, good blocks, good indices and both decoders' reads
    agree with one divmod and one bincount of each shuffled P_i."""
    st = make()
    x = BitString.zeros(st.public_n)
    block, direct = (ComposedInstance(st, x, None, None, d) for d in ("block", "direct"))
    good = []
    for i in range(1, st.public_n + 1):
        held, e = np.divmod(st.perm[st.base._sets0[i - 1]], st.a)
        counts = np.bincount(held, minlength=st.b)
        alone = {int(k) + 1: int(b) + 1 for k, b in zip(held, e) if counts[k] == 1}
        assert np.bincount(st.placement(i)[0], minlength=st.b).tolist() == counts.tolist()
        assert list(st.good_blocks(i).items()) == sorted(alone.items())
        good += [i] if 4 * len(alone) >= st.b else []
        units = 1 << (st.a - 1 - e)
        blocks, got = direct.reads([i]).base[0] // st.code.length, direct.reads([i]).unit[0]
        assert (blocks.tolist(), got.tolist()) == (held.tolist(), units.tolist())
        blocks, got = block.reads([i]).base[0] // st.code.length, block.reads([i]).unit[0]
        expect = [1 << (st.a - alone[k]) if k in alone else 0 for k in range(1, st.b + 1)]
        assert (blocks.tolist(), got.tolist()) == (list(range(st.b)), expect)
    assert st.good_indices == tuple(good)
    if make is crowded_composed:
        assert 0 < len(good) < st.public_n


def killed_blocks(inst, target, clean=True):
    """The blocks block_killer attacks, as block -> local mask of the
    target's probe-set elements there, most elements first: for the block
    decoder the good blocks (one element) whose clean codeword read at
    that element's unit gives x's bit; for the direct decoder every block
    holding an element whose clean read gives x's bit, counting only
    those.  clean=False gives the direct decoder's blocks as its killer
    chose them before it was derived from the reads: every block holding
    an element, counting them all."""
    st = inst.structure
    length, truth = st.code.length, inst.x.bit(target)
    masks, held = {}, {}
    for p0 in st.perm[st.base._sets0[target - 1]]:
        k, unit = int(p0) // st.a, 1 << (st.a - 1 - int(p0) % st.a)
        right = inst.codeword.bits.bit(k * length + unit + 1) == truth
        if inst.decoder == "block" or right or not clean:
            masks[k] = masks.get(k, 0) ^ unit
            held[k] = held.get(k, 0) + 1
    if inst.decoder == "block":
        masks = {
            k: v for k, v in masks.items()
            if held[k] == 1 and inst.codeword.bits.bit(k * length + v + 1) == truth
        }
    return {k: masks[k] for k in sorted(masks, key=lambda k: (-held[k], k))}


def parity_loop_block_killer(inst, budget, target=None, clean=True):
    """block_killer as first written: per attacked block, heaviest first,
    the local mask of the target's probe-set elements, then one parity
    test per offset."""
    st = inst.structure
    if target is None:
        target = st.good_indices[0] if st.good_indices else 1
    out = []
    for k, v in killed_blocks(inst, target, clean).items():
        if len(out) >= budget:
            break
        base = k * st.code.length
        for z in range(st.code.length):
            if (z & v).bit_count() & 1:
                out.append(base + z + 1)
                if len(out) >= budget:
                    break
    return out


@pytest.mark.parametrize(
    "make, shared_blocks",
    [
        (hand_composed, False),
        (toy_built, True),
        (lambda: BlockCodedMembership.build(12, 1, eps=0.4, a=7, b=24, seed=2), True),
    ],
    ids=["hand", "toy", "a7"],
)
def test_block_killer_matches_parity_loop(make, shared_blocks):
    st = make()
    x = BitString.from_indices(st.public_n, [st.good_indices[0]])
    # blocks holding several elements of a probe set go first
    assert shared_blocks == any(
        np.bincount(st.placement(i)[0], minlength=st.b).max() > 1 for i in range(1, st.public_n + 1)
    )
    half = st.code.length // 2
    budgets = (0, 1, half // 2 + 1, half, half + 1, st.code.length, st.b * st.code.length + 3)
    for inst in (st.instance(x, "block"), st.instance(x, "direct")):
        for target in (None, *range(1, st.public_n + 1)):
            held = len(killed_blocks(inst, target or st.good_indices[0]))
            for budget in budgets:
                got = inst.block_killer(budget, target).tolist()
                assert got == parity_loop_block_killer(inst, budget, target)
                assert len(got) == min(budget, half * held)
                if inst.decoder == "direct":
                    # skipping reads that are wrong already never helps the decoder
                    q = target or st.good_indices[0]
                    old = parity_loop_block_killer(inst, budget, target, clean=False)
                    assert exact_error(inst, q, CorruptionPattern(got)) >= exact_error(inst, q, CorruptionPattern(old))
    with pytest.raises(ParameterError):
        inst.block_killer(4, st.public_n + 1)
