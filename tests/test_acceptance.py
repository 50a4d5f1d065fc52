"""Acceptance suite: ten criteria, one test and one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to watch the lines appear;
without -s they still show in captured output.  Each test gathers failures
into a list so its verdict line always prints before the assert fires.

Several checks enumerate full coin spaces through vectorized address
arithmetic recomputed here from the stored codeword bytes, independent of
the schemes' own decode loops; the unit tests tie the two routes together.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from ecds.bits import BitString, ball_size
from ecds.bounds import (
    check_orthogonality,
    discrepancy_verify,
    ip_ds_lower_bound,
    one_probe_noise_threshold,
)
from ecds.hadamard import (
    EqualityScheme,
    HadamardIp,
    majority_wrong,
)
from ecds.harness import AdversaryStrategy, attack, estimate_error
from ecds.inner_product import PolySharedIp, SubstringHadamard, TableIp, table_ip_length
from ecds.membership import BlockCodedMembership, OneProbeMembership
from ecds.oracle import CorruptionPattern, exact_error
from ecds.seeding import derive_seed, stream


def _line(num, ok, text):
    print("[%s] criterion %02d: %s" % ("PASS" if ok else "FAIL", num, text), flush=True)


def _verdict(num, text, failures):
    _line(num, not failures, text)
    assert not failures, failures[:5]


@pytest.fixture(scope="module")
def desk_composed():
    return BlockCodedMembership.build(public_n=64, s=2, seed=0)


@pytest.fixture(scope="module")
def one_probe_64():
    return OneProbeMembership.build(64, 1, seed=0)


def test_criterion_01_two_probe_error_bound():
    """200 adversarial patterns per noise rate never push any query's
    exact 2-probe error above twice the flip fraction."""
    n = 256
    failures = []
    scheme = HadamardIp(BitString.from_int(8, 0b10110100))
    queries = list(scheme.queries())
    for delta in (0.01, 0.05, 0.1):
        weight = math.floor(delta * n)
        rng = stream("acc1", delta)
        patterns = [CorruptionPattern.random(n, weight, rng) for _ in range(195)]
        for k in range(5):
            strat = AdversaryStrategy(
                kind="greedy_local", budget=weight, seed=derive_seed("acc1g", delta, k)
            )
            patterns.append(attack(strat, scheme))
        for pattern in patterns:
            if pattern.weight > weight:
                failures.append("pattern overweight at delta %s" % delta)
                continue
            worst = max(wrong for _, wrong in scheme.wrong_counts(queries, pattern, 0))
            if worst > 2 * weight or worst / n > 2 * delta:
                failures.append(
                    "delta %s weight %d worst count %d" % (delta, weight, worst)
                )
    _verdict(1, "2-probe error <= 2*delta on 600 patterns, all 256 queries", failures)


def _poly_all_coins_wrong(sch) -> int:
    """Count wrong (query, coin) decodes by replaying every share tuple
    against the stored tables with independent address arithmetic."""
    bits = sch.codeword.bits.to_bit_array()
    bl = sch.block_length
    tables = [bits[j * bl : (j + 1) * bl] for j in range(sch.p)]
    w = 1 << (sch.r * sch.m)
    wrong = 0
    if sch.p == 2:
        w1 = np.arange(w, dtype=np.int64)
        for y in sch.queries():
            w2 = w1 ^ sch.point_value(y)
            out = tables[0][w2] ^ tables[1][w1]
            wrong += int((out != sch.truth(y)).sum())
        return wrong
    assert sch.p == 3
    w1 = np.arange(w, dtype=np.int64)[:, None]
    w2 = np.arange(w, dtype=np.int64)[None, :]
    for y in sch.queries():
        w3 = sch.point_value(y) ^ w1 ^ w2
        out = tables[0][w2 * w + w3] ^ tables[1][w1 * w + w3] ^ tables[2][w1 * w + w2]
        wrong += int((out != sch.truth(y)).sum())
    return wrong


def _substring_all_coins_wrong(sch) -> int:
    """Count wrong per-bit votes over every offset of every piece."""
    arr = sch.codeword.bits.to_bit_array()
    z = np.arange(sch.piece_len)
    wrong = 0
    for i in range(1, sch.x.n + 1):
        k, e = sch.bit_location(i)
        piece = arr[sch.piece_offset(k) : sch.piece_offset(k) + sch.piece_len]
        votes = piece[z] ^ piece[z ^ (1 << (sch.chunk - e))]
        wrong += int((votes != sch.x.bit(i)).sum())
    return wrong


def test_criterion_02_noiseless_correctness(one_probe_64):
    failures = []
    # table structure: every data item, query, and probe split
    for n in range(1, 7):
        for xv in range(1 << n):
            x = BitString.from_int(n, xv)
            for r in range(n + 1):
                for p in range(1, 4):
                    sch = TableIp(x, r, p)
                    for y in sch.queries():
                        if sch.decode_with_coins(sch.oracle(), y, (0,)) != sch.truth(y):
                            failures.append("table n%d x%d r%d p%d" % (n, xv, r, p))
    # shared polynomial: every data item, query, and share tuple
    for p in (2, 3):
        for n in range(1, 5):
            for r in range(1, min(n, 2) + 1):
                for xv in range(1 << n):
                    sch = PolySharedIp(BitString.from_int(n, xv), r, p)
                    bad = _poly_all_coins_wrong(sch)
                    if bad:
                        failures.append("poly p%d n%d r%d x%d: %d" % (p, n, r, xv, bad))
    # substring: every data item, requested bit, and offset
    for n in range(1, 9):
        for r in range(1, min(n, 4) + 1):
            for xv in range(1 << n):
                sch = SubstringHadamard(BitString.from_int(n, xv), r)
                bad = _substring_all_coins_wrong(sch)
                if bad:
                    failures.append("substring n%d r%d x%d: %d" % (n, r, xv, bad))
    # accepted probe-set builds: members exact, nonmembers within eps
    for s, st in ((1, one_probe_64), (2, OneProbeMembership.build(64, 2, seed=0))):
        slack = float(Fraction(st._nonmember_max, st.d)) + 1e-12
        for support in itertools.chain(
            *(itertools.combinations(range(1, 65), w) for w in range(s + 1))
        ):
            x = BitString.from_indices(64, support)
            y, agreements = st.encode(x)
            members = set(support)
            for k, i in enumerate(range(1, 65)):
                if i in members:
                    if agreements[k] != 1.0:
                        failures.append("member s%d %r i%d" % (s, support, i))
                elif 1 - agreements[k] > slack:
                    failures.append("nonmember s%d %r i%d" % (s, support, i))
    # tie the agreement route to the actual decoder on one instance
    st = one_probe_64
    inst = st.instance(BitString.from_indices(64, [5]))
    for i in (5, 6, 40):
        err = exact_error(inst, i, CorruptionPattern.empty())
        bound = Fraction(0) if i == 5 else Fraction(st._nonmember_max, st.d)
        if err > bound:
            failures.append("decoder tie i%d err %s" % (i, err))
    _verdict(2, "noiseless decoding exact/within eps on all four structures", failures)


def test_criterion_03_share_algebra():
    failures = []
    for p, n, r in ((3, 4, 1), (2, 3, 2)):
        for xv in range(1 << n):
            sch = PolySharedIp(BitString.from_int(n, xv), r, p)
            for i in range(1, n + 1):
                if sch.p_x(sch.chi(sch.subsets[i - 1])) != sch.x.bit(i):
                    failures.append("point p%d n%d x%d i%d" % (p, n, xv, i))
            rm = sch.r * sch.m
            for shares in itertools.product(range(1 << rm), repeat=p):
                total = 0
                acc = 0
                for j in range(1, p + 1):
                    total ^= sch.codeword.bits.bit(sch.block_position(j, shares))
                for w in shares:
                    acc ^= w
                if total != sch.p_x_copies(acc):
                    failures.append("tuple p%d n%d x%d %r" % (p, n, xv, shares))
                    break
    _verdict(3, "share-table sum equals the polynomial on every tuple", failures)


def test_criterion_04_per_block_error_bound():
    failures = []
    sch = PolySharedIp(BitString.from01("10"), 1, 2)
    n, bl = sch.codeword.n, sch.block_length
    for mask in range(1 << n):
        flips = [j + 1 for j in range(n) if (mask >> j) & 1]
        pattern = CorruptionPattern(flips)
        bound = sum(
            Fraction(sum(1 for f in flips if (f - 1) // bl == j), bl)
            for j in range(sch.p)
        )
        for y in sch.queries():
            err = exact_error(sch, y, pattern)
            if err > bound:
                failures.append(
                    "mask %d query %s: %s > %s" % (mask, y.to01(), err, bound)
                )
    _verdict(
        4, "exact error <= sum of per-block flip fractions (all 256 patterns)", failures
    )


def test_criterion_05_composition_accounting(desk_composed):
    failures = []
    st = desk_composed
    # independent recount of good indices from the permutation alone
    perm = [int(v) for v in st.perm]
    good = 0
    for i in range(1, 65):
        blocks = {}
        for j in st.base.probe_set(i):
            k = perm[j - 1] // st.a
            blocks[k] = blocks.get(k, 0) + 1
        exactly_one = sum(1 for c in blocks.values() if c == 1)
        if 4 * exactly_one >= st.b:
            good += 1
        if (4 * exactly_one >= st.b) != (i in st.good_indices):
            failures.append("good flag mismatch at %d" % i)
    if good < 64 / 20:
        failures.append("good count %d below n/20" % good)
    if good != len(st.good_indices):
        failures.append("recount %d != structure %d" % (good, len(st.good_indices)))
    # goodness frequency of one (index, block) cell over fresh shuffles
    rng = np.random.default_rng(derive_seed("acc5", 0))
    sets0 = st.base._sets0[0]
    trials = 10_000
    hits = 0
    for _ in range(trials):
        p = rng.permutation(st.base.n_prime)
        hits += int((p[sets0] // st.a == 0).sum() == 1)
    freq = hits / trials
    if freq < 0.30 - 0.02:
        failures.append("goodness frequency %.4f below 0.28" % freq)
    _verdict(
        5,
        "good indices %d/64 (threshold %d), goodness frequency %.3f"
        % (good, st.report.good_threshold, freq),
        failures,
    )


def test_criterion_06_composed_decoder_success(desk_composed):
    failures = []
    st = desk_composed
    inst = st.instance(BitString.from_indices(64, st.good_indices[:2]), decoder="block")
    budget = CorruptionPattern.budget(0.005, inst.codeword.n)
    worst_success = 1.0
    for kind in ("random_flips", "block_killer"):
        strategy = AdversaryStrategy(kind=kind, budget=budget, seed=17)
        report = estimate_error(
            inst,
            queries=list(st.good_indices),
            strategy=strategy,
            trials=100_000,
            seed=2026,
        )
        for r in report.results:
            if r.error > 0.49:
                failures.append("%s query %s error %.4f" % (kind, r.query, r.error))
            if r.ci_half_width > 0.005:
                failures.append("%s query %s ci %.4f" % (kind, r.query, r.ci_half_width))
        worst_success = min(worst_success, 1 - report.worst_error)
    _verdict(
        6,
        "every good index succeeds with prob >= 0.51 at delta=0.005 "
        "(worst measured %.3f)" % worst_success,
        failures,
    )


def test_criterion_07_impossibility_witnesses(one_probe_64):
    failures = []
    st = one_probe_64
    inst = st.instance(BitString.from_indices(64, [1]))
    strat = AdversaryStrategy(kind="probe_set_killer", budget=st.d, target=1)
    if attack(strat, inst).weight != st.d:
        failures.append("killer did not cover the probe set")
    report = estimate_error(
        inst, queries=[1], strategy=strat, trials=100_000, seed=7, exact_limit=1
    )
    if report.results[0].error < 0.45:
        failures.append("probe-set kill error %.4f < 0.45" % report.results[0].error)
    # a quarter-piece flip pins one bit at error exactly 1/2, at any
    # odd repetition count
    x = BitString.from01("10110100")
    target_delta = 1 / (4 * 2)
    for t in (1, 3):
        sch = SubstringHadamard(x, 2, t=t)
        pat = attack(
            AdversaryStrategy(
                kind="piece_killer",
                budget=CorruptionPattern.budget(target_delta, sch.codeword.n),
            ),
            sch,
            target=1,
        )
        err = exact_error(sch, BitString.unit(8, 1), pat)
        if err != Fraction(1, 2):
            failures.append("t=%d exact error %s" % (t, err))
    for t in range(5, 32, 2):
        if 2 * majority_wrong([1], 2, t) != 2**t:
            failures.append("majority closed form off at t=%d" % t)
    sch = SubstringHadamard(x, 2, t=31)
    mc = estimate_error(
        sch,
        queries=[BitString.unit(8, 1)],
        strategy=AdversaryStrategy(
            kind="piece_killer",
            budget=CorruptionPattern.budget(target_delta, sch.codeword.n),
            target=BitString.unit(8, 1),
        ),
        trials=20_000,
        seed=3,
    )
    if not 0.45 <= mc.results[0].error <= 0.55:
        failures.append("t=31 measured %.4f not near 1/2" % mc.results[0].error)
    clean = estimate_error(sch, queries=[BitString.unit(8, 1)], trials=20_000, seed=3)
    if clean.results[0].error > 0.01:
        failures.append("noiseless t=31 error %.4f" % clean.results[0].error)
    _verdict(7, "probe-set and quarter-piece attacks break their targets", failures)


def test_criterion_08_bound_formulas():
    failures = []
    rep = ip_ds_lower_bound(4, 2, Fraction(1, 4), 1)
    if rep.exact != Fraction(11, 16):
        failures.append("length bound %s != 11/16" % (rep.exact,))
    import mpmath

    mpmath.mp.dps = 50
    got = one_probe_noise_threshold(0.01, 0.25).value
    want = 1 / (mpmath.mpf("0.01") * (1 - (2 - mpmath.mpf("0.75") * mpmath.log(3, 2))))
    if abs(got - float(want)) / float(want) > 1e-6:
        failures.append("threshold %r vs %s" % (got, want))
    for n in range(1, 9):
        for r in range(n + 1):
            length = table_ip_length(n, r, 1)
            if length != ball_size(n, r):
                failures.append("table length n%d r%d" % (n, r))
            for eps in (Fraction(1, 100), Fraction(1, 4), Fraction(2, 5)):
                if not length > ip_ds_lower_bound(n, r, eps, 1).value:
                    failures.append("bound not exceeded n%d r%d eps %s" % (n, r, eps))
    _verdict(
        8,
        "11/16 exact, threshold matches 50-digit recompute, table beats bound",
        failures,
    )


def test_criterion_09_discrepancy():
    failures = []
    for n in range(1, 7):
        for r in range(n + 1):
            if not check_orthogonality(n, r):
                failures.append("orthogonality n%d r%d" % (n, r))
    for n in range(1, 4):
        for r in range(n + 1):
            rep = discrepancy_verify(n, r)
            if rep.mode != "exhaustive" or rep.violations:
                failures.append("exhaustive n%d r%d: %r" % (n, r, rep))
    for n in (4, 5, 6):
        for r in (2, n):
            rep = discrepancy_verify(n, r, samples=10_000, seed=1)
            if rep.mode != "sample" or rep.checked != 10_000 or rep.violations:
                failures.append("sampled n%d r%d: %r" % (n, r, rep))
    _verdict(9, "M'M = 2^n I and rectangle bound hold everywhere checked", failures)


def test_criterion_10_structural(desk_composed, one_probe_64):
    failures = []
    # budget battery: decode repeatedly with oracles capped at the
    # declared budget; any excess read raises and lands in failures
    composed = desk_composed.instance(
        BitString.from_indices(64, desk_composed.good_indices[:1]), decoder="block"
    )
    eq_x = BitString.from01("1011")
    battery = [
        (HadamardIp(BitString.from01("10110100")), None),
        (
            EqualityScheme(eq_x),
            [eq_x, BitString.from01("0000"), BitString.from01("1111")],
        ),
        (TableIp(BitString.from01("110100"), 3, 2), None),
        (PolySharedIp(BitString.from01("1011"), 1, 3), None),
        (SubstringHadamard(BitString.from01("10110100"), 4, t=3), None),
        (one_probe_64.instance(BitString.from_indices(64, [9])), None),
        (composed, None),
    ]
    rng = stream("acc10", 0)
    for scheme, queries in battery:
        if queries is None:
            queries = list(itertools.islice(scheme.queries(), 4))
        for query in queries:
            budget = scheme.probe_budget(query)
            for _ in range(50):
                oracle = scheme.oracle(query=query)
                try:
                    scheme.decode(oracle, query, rng)
                except Exception as exc:
                    failures.append("%s: %r" % (scheme.name, exc))
                    break
                if oracle.used > budget:
                    failures.append("%s read past budget" % scheme.name)

    # byte-identical reports under identical seeds
    def mc_report():
        return estimate_error(
            PolySharedIp(BitString.from01("1011"), 1, 3),
            strategy=AdversaryStrategy(kind="random_flips", budget=2, seed=4),
            trials=5_000,
            seed=12,
            exact_limit=1,
        ).to_json()

    if mc_report() != mc_report():
        failures.append("MC report bytes differ")

    def composed_report():
        return estimate_error(
            composed,
            queries=list(desk_composed.good_indices[:3]),
            strategy=AdversaryStrategy(kind="block_killer", budget=9000, seed=5),
            trials=2_000,
            seed=6,
        ).to_json()

    if composed_report() != composed_report():
        failures.append("composed report bytes differ")
    if discrepancy_verify(5, 2, samples=500, seed=2) != discrepancy_verify(
        5, 2, samples=500, seed=2
    ):
        failures.append("discrepancy report differs")
    _verdict(10, "probe budgets enforced, reports reproduce byte-identically", failures)
