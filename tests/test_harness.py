"""Adversary strategies, exact/MC measurement, and report canonicalization.

Hand-computable targets reuse the small structures from the other test
modules: attacks on them produce flip sets whose exact effect is known
in closed form (probe-set hits raise member error by hits/d, a killed
block inverts every offset pair, a quarter-piece flip gives error 1/2).
"""

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ecds.bits import BitString
from ecds.errors import ParameterError
from ecds.harness import (
    AdversaryStrategy,
    ExperimentReport,
    _sampled_wrong,
    attack,
    clopper_pearson,
    estimate_error,
    sweep,
)
from ecds.hadamard import EqualityScheme, HadamardIp, MajorityAmplified
from ecds.inner_product import SubstringHadamard
from ecds.membership import BlockCodedMembership, OneProbeMembership
from ecds.oracle import CorruptionPattern, coin_chunks, corrupt, count_wrong, exact_error
from ecds.seeding import stream


def test_harness_imports_no_scheme_module():
    """The harness reaches every scheme through the Scheme interface, so
    a class test on a concrete scheme cannot creep back in."""
    import ast

    import ecds.harness

    tree = ast.parse(Path(ecds.harness.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").rsplit(".", 1)[-1])
        elif isinstance(node, ast.Import):
            imported.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
    assert not imported & {"hadamard", "inner_product", "membership"}


def test_strategy_validation():
    with pytest.raises(ParameterError):
        AdversaryStrategy(kind="nope", budget=1)
    with pytest.raises(ParameterError):
        AdversaryStrategy(kind="none", budget=-1)
    s = AdversaryStrategy(kind="random_flips", budget=3, seed=9)
    assert s.describe() == {"kind": "random_flips", "budget": 3, "seed": 9}
    t = AdversaryStrategy(kind="greedy_local", budget=2, target=BitString.from01("10"))
    assert t.describe()["target"] == "10"


@pytest.mark.parametrize("budget", [1.5, True, "2", -1])
def test_budget_must_be_an_integer(budget):
    with pytest.raises(ParameterError, match="budget >= 0"):
        AdversaryStrategy(kind="random_flips", budget=budget)


@pytest.mark.parametrize("trials", [10.5, True, 0, "10"])
def test_trials_must_be_a_positive_integer(trials):
    with pytest.raises(ParameterError, match="trials >= 1"):
        estimate_error(HadamardIp(BitString.from01("1010")), trials=trials)


def test_attack_none_is_empty():
    sch = HadamardIp(BitString.from01("101"))
    pattern = attack(AdversaryStrategy(kind="none", budget=5), sch)
    assert pattern.weight == 0


def test_attack_random_flips():
    sch = HadamardIp(BitString.from01("1011"))
    strat = AdversaryStrategy(kind="random_flips", budget=4, seed=1)
    a = attack(strat, sch)
    assert a.weight == 4
    assert all(1 <= j <= 16 for j in a.positions)
    assert attack(strat, sch) == a
    b = attack(AdversaryStrategy(kind="random_flips", budget=4, seed=2), sch)
    assert b != a
    big = attack(AdversaryStrategy(kind="random_flips", budget=99, seed=1), sch)
    assert big.weight == 16


def membership_toy():
    st = OneProbeMembership(
        n=2,
        s=1,
        eps=0.4,
        probe_sets=[(1, 2, 3, 4, 5), (4, 5, 6, 7, 8)],
        n_prime=8,
    )
    return st.instance(BitString.from01("10"))


def test_probe_set_killer_raises_member_error_by_hits():
    inst = membership_toy()
    strat = AdversaryStrategy(kind="probe_set_killer", budget=3)
    pattern = attack(strat, inst, target=1)
    assert pattern.positions == (1, 2, 3)
    assert exact_error(inst, 1, pattern) == Fraction(3, 5)
    with pytest.raises(ParameterError):
        attack(strat, HadamardIp(BitString.from01("1")))


def composed_toy():
    base = OneProbeMembership(
        n=4,
        s=1,
        eps=0.4,
        probe_sets=[(1, 3), (5, 7), (2, 4), (6, 8)],
        n_prime=8,
    )
    st = BlockCodedMembership(public_n=2, base=base, perm=list(range(8)), a=2)
    return st


def test_block_killer_inverts_good_blocks():
    st = composed_toy()
    x = BitString.from01("10")
    block = st.instance(x, decoder="block")
    direct = st.instance(x, decoder="direct")
    full = attack(AdversaryStrategy(kind="block_killer", budget=4), block, target=1)
    assert full.positions == (3, 4, 7, 8)
    # every good block answers inverted; only the fallback coin survives
    assert exact_error(block, 1, full) == Fraction(3, 4)
    assert exact_error(direct, 1, full) == 1
    half = attack(AdversaryStrategy(kind="block_killer", budget=2), block, target=1)
    assert half.positions == (3, 4)
    assert exact_error(block, 1, half) == Fraction(1, 2)
    with pytest.raises(ParameterError):
        attack(AdversaryStrategy(kind="block_killer", budget=2), direct.structure.base.instance(st.embed(x)))


@pytest.mark.parametrize("budget", [-1, 0])
def test_killers_flip_nothing_without_budget(budget):
    """A negative budget flips nothing, like a zero one: probe_set_killer
    once sliced [:-1] and returned all but one position of the set."""
    mem = OneProbeMembership(2, 1, 0.4, [(1, 2, 3, 4, 5), (4, 5, 6, 7, 8)], 8)
    assert tuple(mem.instance(BitString.from01("10")).probe_set_killer(budget)) == ()
    assert composed_toy().instance(BitString.from01("10")).block_killer(budget).tolist() == []
    assert SubstringHadamard(BitString.from01("1011"), 2).piece_killer(budget) == []


def test_piece_killer_quarter_flip():
    sch = SubstringHadamard(BitString.from01("1011"), 2)
    strat = AdversaryStrategy(kind="piece_killer", budget=4)
    pattern = attack(strat, sch, target=1)
    assert pattern.positions == (4,)
    for i in (1, 2):
        assert exact_error(sch, BitString.unit(4, i), pattern) == Fraction(1, 2)
    with pytest.raises(ParameterError):
        attack(strat, HadamardIp(BitString.from01("1")))
    skinny = SubstringHadamard(BitString.from01("1011"), 4)
    with pytest.raises(ParameterError):
        attack(strat, skinny, target=1)


def test_piece_killer_respects_budget():
    sch = SubstringHadamard(BitString.from01("10110100"), 2)  # chunk 4
    pattern = attack(
        AdversaryStrategy(kind="piece_killer", budget=2), sch, target=1
    )
    assert pattern.weight == 2


def test_greedy_local_finds_worst_pair():
    sch = HadamardIp(BitString.from01("101"))
    strat = AdversaryStrategy(kind="greedy_local", budget=2, seed=4, eval_proposals=20)
    pattern = attack(strat, sch)
    assert pattern.weight == 2
    # any two distinct flips already force worst-query error 1/2
    assert max(wrong for _, wrong in sch.wrong_counts(list(sch.queries()), pattern, 0)) == 4


def test_greedy_local_generic_paths():
    inst = membership_toy()
    pattern = attack(
        AdversaryStrategy(kind="greedy_local", budget=2, seed=0, eval_proposals=10),
        inst,
    )
    assert pattern.weight == 2
    big = MajorityAmplified(HadamardIp(BitString.from01("1011")), 5)
    pattern = attack(
        AdversaryStrategy(
            kind="greedy_local",
            budget=2,
            seed=0,
            eval_proposals=2,
            eval_trials=64,
            eval_queries=2,
        ),
        big,
    )
    assert pattern.weight == 2


def bisect_binomial_lower(wrong, trials, alpha):
    """p with P(X >= wrong) = alpha, by bisection on the exact tail."""
    def tail(p):
        return sum(
            math.comb(trials, j) * p**j * (1 - p) ** (trials - j)
            for j in range(wrong, trials + 1)
        )

    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = (lo + hi) / 2
        if tail(mid) < alpha:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def test_clopper_pearson_against_tail_bisection():
    lo, hi = clopper_pearson(5, 100, conf=0.99)
    assert lo == pytest.approx(bisect_binomial_lower(5, 100, 0.005), abs=1e-9)
    assert lo < 0.05 < hi
    assert clopper_pearson(0, 50)[0] == 0.0
    assert clopper_pearson(50, 50)[1] == 1.0
    narrow = clopper_pearson(5, 100, conf=0.95)
    assert lo < narrow[0] and narrow[1] < hi
    with pytest.raises(ParameterError):
        clopper_pearson(5, 4)


def test_clopper_pearson_equals_beta_ppf():
    """The interval is beta.ppf's, bit for bit: every (wrong, trials) with
    trials <= 200 at two confidences, and a sample of longer runs."""
    from scipy.stats import beta

    cases = [(w, t, conf) for conf in (0.95, 0.99) for t in range(1, 201) for w in range(t + 1)]
    rng = random.Random(11)
    for conf in (0.9, 0.95, 0.99):
        for _ in range(300):
            t = rng.randrange(201, 10**6 + 1)
            w = rng.randrange(t + 1) if rng.random() < 0.5 else rng.randrange(1001)
            cases.append((w, t, conf))
    wrong, trials, conf = (np.array(column) for column in zip(*cases))
    alpha = 1 - conf
    lo = np.where(wrong == 0, 0.0, beta.ppf(alpha / 2, wrong, trials - wrong + 1))
    hi = np.where(wrong == trials, 1.0, beta.ppf(1 - alpha / 2, wrong + 1, trials - wrong))
    assert [clopper_pearson(*case) for case in cases] == list(zip(lo.tolist(), hi.tolist()))


def test_estimate_error_exact_mode():
    sch = HadamardIp(BitString.from01("101"))
    rep = estimate_error(sch, trials=10, seed=0)
    assert rep.scheme == "hadamard-ip"
    assert len(rep.results) == 8
    assert rep.worst_error == 0.0
    for r in rep.results:
        assert r.mode == "exact"
        assert r.trials == 8
        assert r.error == 0.0 and r.error_exact == "0"
        assert r.ci_low == r.ci_high == 0.0


def test_estimate_error_exact_under_attack():
    sch = HadamardIp(BitString.from01("1010"))
    strat = AdversaryStrategy(kind="random_flips", budget=2, seed=3)
    rep = estimate_error(sch, strategy=strat, trials=10, seed=0)
    pattern = attack(strat, sch)
    counts = [wrong for _, wrong in sch.wrong_counts(list(sch.queries()), pattern, 0)]
    assert rep.worst_error == max(counts) / 16
    assert rep.budget == 2 and rep.delta == 2 / 16
    for r in rep.results:
        assert r.pattern_weight == 2


def test_estimate_error_mc_mode():
    # equality does not count without enumerating: past exact_limit it samples
    sch = EqualityScheme(BitString.from01("10110"))
    strat = AdversaryStrategy(kind="random_flips", budget=3, seed=7)
    queries = [BitString.from01("10110"), BitString.from01("01100")]
    rep = estimate_error(
        sch, queries=queries, strategy=strat, trials=3000, seed=11, exact_limit=1
    )
    pattern = attack(strat, sch)
    for r, q in zip(rep.results, queries):
        assert r.mode == "mc" and r.trials == 3000
        truth = float(exact_error(sch, q, pattern))
        assert r.ci_low <= truth <= r.ci_high
    again = estimate_error(
        sch, queries=queries, strategy=strat, trials=3000, seed=11, exact_limit=1
    )
    assert rep.to_json() == again.to_json()
    other = estimate_error(
        sch, queries=queries, strategy=strat, trials=3000, seed=12, exact_limit=1
    )
    assert [r.wrong for r in other.results] != [r.wrong for r in rep.results]


def test_targeted_strategy_reaims_per_query():
    inst = membership_toy()
    strat = AdversaryStrategy(kind="probe_set_killer", budget=2)
    rep = estimate_error(inst, strategy=strat, trials=10, seed=0)
    # each query's own probe set is hit: member error 2/5 exactly,
    # nonmember gains nothing it did not already have
    by_query = {r.query: r for r in rep.results}
    assert by_query["1"].error_exact == "2/5"
    assert float(by_query["2"].error) <= 0.4 + 0.4


def test_report_canonical_bytes_exclude_wall_time():
    sch = HadamardIp(BitString.from01("11"))
    rep = estimate_error(sch, trials=10, seed=0)
    assert rep.wall_time >= 0.0
    plain = json.loads(rep.to_json())
    assert "wall_time" not in plain
    timed = json.loads(rep.to_json(include_wall_time=True))
    assert "wall_time" in timed


def test_report_csv_rows():
    sch = HadamardIp(BitString.from01("110"))
    rep = estimate_error(sch, trials=10, seed=0)
    rows = rep.csv_rows()
    assert len(rows) == 8
    assert rows[0]["scheme"] == "hadamard-ip"
    assert rows[0]["adversary"] == "none"
    assert "error" in rows[0] and "query" in rows[0]


def test_queries_unenumerated_scheme_is_refused():
    sch = EqualityScheme(BitString.from01("1011"))
    with pytest.raises(ParameterError, match="equality-balanced"):
        sch.queries()
    with pytest.raises(ParameterError):
        estimate_error(sch, trials=10)
    with pytest.raises(ParameterError):
        attack(AdversaryStrategy(kind="greedy_local", budget=1), sch)


def test_estimate_error_rejects_bad_trials():
    with pytest.raises(ParameterError):
        estimate_error(HadamardIp(BitString.from01("1")), trials=0)


def test_sweep_records_failures_and_continues():
    def runner(cell):
        if cell.get("boom"):
            raise ValueError("bad cell")
        return estimate_error(HadamardIp(BitString.from01("10")), trials=10)

    out = sweep([{"ok": 1}, {"boom": 1}, {"ok": 2}], runner)
    assert len(out) == 3
    assert "report" in out[0] and "report" in out[2]
    assert out[1]["error"].startswith("ValueError")


def _frozen_case(name):
    if name.startswith("composed-"):
        st = BlockCodedMembership.build(16, 1, eps=0.4, a=5, b=40, seed=0)
        decoder = name.split("-")[1]
        return st.instance(BitString.from_indices(16, [2]), decoder=decoder), [1, 2], 200
    if name == "had-ip":
        sch = HadamardIp(BitString.from01("101101"))
        return sch, [BitString.from01("011000"), BitString.from01("111111")], 6
    if name == "substring-t3":
        sch = SubstringHadamard(BitString.from01("10110100"), 4, t=3)
        return sch, [BitString.from01("11000000"), BitString.from01("00010001")], 4
    if name == "majority-t3":
        sch = MajorityAmplified(HadamardIp(BitString.from01("10110")), 3)
        return sch, [BitString.from01("01100"), BitString.from01("11111")], 4
    sch = EqualityScheme(BitString.from01("1011"))
    return sch, [BitString.from01("1011"), BitString.from01("0011")], 2


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("composed-block", [2201, 1942]),
        ("substring-t3", [3759, 3783]),
        ("majority-t3", [812, 223]),
        ("equality-balanced", [2122, 1707]),
        ("composed-direct", [1817, 1248]),
        ("had-ip", [643, 946]),
    ],
)
def test_monte_carlo_streams_are_frozen(name, wrong):
    """Monte Carlo wrong counts pinned across versions of the package,
    not only across runs of one process: a change to how coins are
    drawn or read shows up here.  The pair-read decoders are exact past
    exact_limit, so their streams are sampled directly, with the blocks
    estimate_error would draw."""
    scheme, queries, budget = _frozen_case(name)
    strategy = AdversaryStrategy(kind="random_flips", budget=budget, seed=1)
    pattern = attack(strategy, scheme)
    sampled = [
        _sampled_wrong(
            scheme, q, pattern, 5000, lambda block, q=q: stream("mc", 7, scheme.query_label(q), block)
        )
        for q in queries
    ]
    assert sampled == wrong
    rep = estimate_error(
        scheme,
        queries=queries,
        strategy=strategy,
        trials=5000,
        seed=7,
        exact_limit=1,
    )
    if name == "equality-balanced":
        assert [r.mode for r in rep.results] == ["mc"] * len(queries)
        assert [r.wrong for r in rep.results] == wrong
    else:
        word = corrupt(scheme.codeword, pattern)
        tally = [
            count_wrong(scheme, q, coin_chunks(scheme.coin_radices(q), scheme.coin_count(q)), word)
            for q in queries
        ]
        assert [r.mode for r in rep.results] == ["exact"] * len(queries)
        assert [r.wrong for r in rep.results] == tally


def test_readme_library_example(capsys):
    """The README's library block runs and gives the values its comments state."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = text.split("\n## Library use\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    assert "# err == Fraction(3, 32)" in block and "# 0.09375" in block
    scope = {}
    exec(block, scope)
    assert scope["err"] == Fraction(3, 32)
    assert scope["report"].worst_error == 0.09375
    assert capsys.readouterr().out == "0.09375\n"
