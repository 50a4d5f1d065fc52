"""Adversary strategies and error measurement.

An attack turns a strategy into a concrete CorruptionPattern for a given
scheme instance, never exceeding its flip budget.  random_flips draws
its pattern with CorruptionPattern.random: the positions its stream's
sample(range(1, n + 1), budget) picks, drawn in numpy from the stream's
own words (seeding.sample_positions), so a pattern of tens of thousands
of flips costs about a millisecond and not a Python loop.  The greedy
adversary swaps one flip at a time and scores each swap with the
scheme's Scheme.swap_counts, the queries' wrong_counts kept up to date:
recounted by default, and changed only at the reads a swap touches for
a Hadamard pair-read decoder.  estimate_error then measures per-query decoding
error under that pattern, counting every query's coins and wrong coins
in one wrong_counts call: exact wherever it counts (every pair-read
decoder does at any size, from one reads call over the batch, and the
default enumerates the probe plan up to exact_limit, 2^20 coins), and
sampled from the plan by Monte Carlo, with exact 99% Clopper-Pearson
intervals, where it declines.  exact_limit caps enumeration only.
Reports keep their per-query results as columns: counts in the narrowest
unsigned type that holds them, shared by every report with the same
counts, and the query labels as one interned string shared by every
report over the same queries.  They are deterministic functions of
(parameters, seed) and serialize to canonical JSON and CSV; wall time is
carried alongside but kept out of the canonical bytes.
"""

from __future__ import annotations

import json
import sys
import time
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from types import MappingProxyType
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .bits import BitString
from .errors import ParameterError, integer
from .oracle import (
    EXACT_STATE_LIMIT,
    MC_BLOCK,
    CorruptionPattern,
    Scheme,
    corrupt,
    count_wrong,
)
from .seeding import stream

ADVERSARY_KINDS = (
    "none",
    "random_flips",
    "block_killer",
    "piece_killer",
    "probe_set_killer",
    "greedy_local",
)


@dataclass(frozen=True)
class AdversaryStrategy:
    """A named attack with a hard flip budget.

    target selects the attacked query; left None, estimate_error re-aims
    killers at each measured query and climbs greedy_local once on the
    worst of them.  eval_* only matter for greedy_local's hill climb.
    """

    kind: str
    budget: int
    seed: int = 0
    target: object = None
    eval_proposals: int = 60
    eval_trials: int = 400
    eval_queries: int = 8

    def __post_init__(self):
        if self.kind not in ADVERSARY_KINDS:
            raise ParameterError("unknown adversary kind %r" % (self.kind,))
        integer(self.budget, "budget >= 0", 0)

    def describe(self) -> Dict[str, object]:
        out = {"kind": self.kind, "budget": self.budget, "seed": self.seed}
        if self.target is not None:
            out["target"] = (
                self.target.to01()
                if isinstance(self.target, BitString)
                else self.target
            )
        return out


def _emit(strategy: AdversaryStrategy, pattern: CorruptionPattern) -> CorruptionPattern:
    assert pattern.weight <= strategy.budget, "attack exceeded its budget"
    return pattern


def attack(
    strategy: AdversaryStrategy, scheme: Scheme, target=None
) -> CorruptionPattern:
    """Concrete flip pattern for this scheme, within the strategy budget.

    The target defaults to the strategy's; greedy_local without one aims
    at the scheme's first eval_queries queries.  Kinds that need structure
    the scheme lacks (piece_killer on membership, say) are rejected.
    """
    n = scheme.codeword.n
    kind = strategy.kind
    if target is None:
        target = strategy.target
    if kind == "none":
        return _emit(strategy, CorruptionPattern.empty())
    if kind == "random_flips":
        rng = stream("attack-random", strategy.seed)
        return _emit(strategy, CorruptionPattern.random(n, min(strategy.budget, n), rng))
    if kind == "greedy_local":
        if target is not None:
            return _greedy_local(strategy, scheme, [target])
        queries = list(islice(scheme.queries(), strategy.eval_queries))
        return _greedy_local(strategy, scheme, queries)
    if kind in scheme.attacks:
        return _emit(strategy, CorruptionPattern(getattr(scheme, kind)(strategy.budget, target)))
    raise ParameterError("%s does not apply to %s" % (kind, scheme.name))


def _greedy_objective(scheme, queries, trials, seed):
    """Worst-over-queries error from the queries' (coins, wrong) counts:
    exact where counted, else sampled over `trials` from the pattern that
    `pattern()` gives."""

    def f(counts, pattern) -> float:
        worst = 0.0
        for qi, (q, counted) in enumerate(zip(queries, counts)):
            if counted is None:
                rng = stream("greedy-eval", seed, qi)
                counted = (trials, _sampled_wrong(scheme, q, pattern(), trials, lambda _: rng))
            worst = max(worst, counted[1] / counted[0])
        return worst

    return f


def _greedy_local(strategy, scheme, queries) -> CorruptionPattern:
    """Hill-climb flip positions to maximize the worst measured decoder
    error over `queries`, under a fixed evaluation budget; a heuristic
    lower bound on adversarial power, not an optimum.  Each proposal
    swaps one flip for an unflipped position, scored by the scheme's
    swap_counts (exact up to 4096 coins a query, else sampled)."""
    n = scheme.codeword.n
    rng = stream("attack-greedy", strategy.seed)
    objective = _greedy_objective(scheme, queries, strategy.eval_trials, strategy.seed)
    budget = min(strategy.budget, n)
    flips = scheme.swap_counts(queries, rng.sample(range(1, n + 1), budget), 4096)
    best = objective(flips.counts, flips.pattern)
    for _ in range(strategy.eval_proposals):
        if not flips.positions or len(flips.positions) == n:
            break
        drop = rng.choice(flips.positions)
        add = rng.randrange(1, n + 1)
        if add in flips.flipped:
            continue
        val = objective(flips.swap(drop, add), flips.pattern)
        if val > best:
            best = val
            flips.accept()
    return _emit(strategy, CorruptionPattern(flips.positions))


# -- measurement ------------------------------------------------------


# confidence of every Monte Carlo interval a report gives
CONFIDENCE = 0.99


def clopper_pearson(wrong: int, trials: int, conf: float = CONFIDENCE) -> Tuple[float, float]:
    """Exact two-sided binomial confidence interval for wrong/trials."""
    if not 0 <= wrong <= trials or trials < 1:
        raise ParameterError("need 0 <= wrong <= trials")
    # imported only here: scipy.special is most of an ecds process's import
    # time and memory.  betaincinv(a, b, q) is beta.ppf(q, a, b)
    from scipy.special import betaincinv

    alpha = 1 - conf
    lo = 0.0 if wrong == 0 else float(betaincinv(wrong, trials - wrong + 1, alpha / 2))
    hi = 1.0 if wrong == trials else float(betaincinv(wrong + 1, trials - wrong, 1 - alpha / 2))
    return lo, hi


# slots, and error derived on demand: a caller that keeps many reports
# keeps no per-result __dict__ or strings
@dataclass(frozen=True, slots=True)
class QueryResult:
    query: str
    mode: str  # exact | mc
    trials: int
    wrong: int
    ci_low: float
    ci_high: float
    pattern_weight: int

    @property
    def error(self) -> float:
        return self.wrong / self.trials

    @property
    def error_exact(self) -> Optional[str]:
        return str(Fraction(self.wrong, self.trials)) if self.mode == "exact" else None

    @property
    def ci_half_width(self) -> float:
        return (self.ci_high - self.ci_low) / 2

    def to_dict(self) -> Dict[str, object]:
        return {
            "query": self.query,
            "mode": self.mode,
            "trials": self.trials,
            "wrong": self.wrong,
            "error": self.error,
            "error_exact": self.error_exact,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "ci_half_width": self.ci_half_width,
            "pattern_weight": self.pattern_weight,
        }


COUNT_COLUMNS = ("trials", "wrong", "weight")
_NO_INTERVALS: Mapping[int, Tuple[float, float]] = MappingProxyType({})
_SHARED_COUNTS = weakref.WeakValueDictionary()  # (dtype, bytes) -> counts, while a report holds them


# eq=False: the counts are an array, and reports compare by their bytes
@dataclass(frozen=True, eq=False, slots=True)
class ExperimentReport:
    """One measurement, its per-query results kept as columns: a caller
    that keeps many reports keeps no per-result objects.  `labels` and
    the QueryResult views of `results` are built on demand."""

    scheme: str
    params: Mapping[str, object]  # the scheme's, shared read-only
    length: int
    budget: int
    delta: float
    adversary: Dict[str, object]
    trials: int
    seed: int
    # the query labels, one a line, interned: reports over the same
    # queries share one string
    label_text: str
    # per query, in the COUNT_COLUMNS: coins (exact) or trials (mc), wrong
    # and pattern weight, each in the narrowest unsigned type that holds
    # it, or Python ints past 2^64
    counts: np.ndarray
    intervals: Mapping[int, Tuple[float, float]]  # row -> interval, mc rows only
    worst_error: float
    wall_time: float = 0.0

    @property
    def labels(self) -> Tuple[str, ...]:
        return tuple(self.label_text.split("\n")) if len(self.counts) else ()

    @property
    def results(self) -> Tuple[QueryResult, ...]:
        out = []
        rows = zip(self.labels, self.counts.tolist())
        for i, (label, (trials, wrong, weight)) in enumerate(rows):
            ci = self.intervals.get(i)
            # exact without an interval: the error is then its own interval
            lo, hi = (wrong / trials,) * 2 if ci is None else ci
            mode = "exact" if ci is None else "mc"
            out.append(QueryResult(label, mode, trials, wrong, lo, hi, weight))
        return tuple(out)

    def canonical_dict(self) -> Dict[str, object]:
        """Everything except wall time, ready for stable serialization."""
        return {
            "scheme": self.scheme,
            "params": dict(self.params),
            "length": self.length,
            "budget": self.budget,
            "delta": self.delta,
            "adversary": self.adversary,
            "trials": self.trials,
            "seed": self.seed,
            "confidence": CONFIDENCE,
            "results": [r.to_dict() for r in self.results],
            "worst_error": self.worst_error,
        }

    def to_json(self, include_wall_time: bool = False) -> str:
        out = self.canonical_dict()
        if include_wall_time:
            out["wall_time"] = self.wall_time
        return json.dumps(out, sort_keys=True, indent=2)

    def csv_rows(self) -> List[Dict[str, object]]:
        head = {
            "scheme": self.scheme,
            "length": self.length,
            "budget": self.budget,
            "delta": self.delta,
            "adversary": self.adversary.get("kind"),
            "seed": self.seed,
        }
        return [dict(head, **r.to_dict()) for r in self.results]


def _sampled_wrong(scheme, query, pattern, trials, block_rng) -> int:
    """Wrong answers over `trials` sampled coin tuples.  Block b of MC_BLOCK
    rows draws from block_rng(b), digit by digit as Scheme.sample_coins."""
    radices = scheme.coin_radices(query)

    def chunks():
        for block, start in enumerate(range(0, trials, MC_BLOCK)):
            size = min(MC_BLOCK, trials - start)
            draw = block_rng(block).randrange
            draws = [draw(radix) for _ in range(size) for radix in radices]
            yield np.array(draws, dtype=np.int64).reshape(size, len(radices))

    return count_wrong(scheme, query, chunks(), corrupt(scheme.codeword, pattern))


def _measure(scheme, queries, pattern, trials, seed, exact_limit) -> List[tuple]:
    """One row per query under one pattern, (label, coins or trials, wrong,
    pattern weight, interval): exact, with no interval, from one
    wrong_counts call over the queries, and sampled where that declines."""
    rows, weight = [], pattern.weight
    for query, counted in zip(queries, scheme.wrong_counts(queries, pattern, exact_limit)):
        label = scheme.query_label(query)
        if counted is not None:
            rows.append((label, *counted, weight, None))
            continue
        # each block of MC_BLOCK trials draws from its own stream, seeded
        # from (seed, query, block index), so trial t's coins depend only on t
        wrong = _sampled_wrong(
            scheme, query, pattern, trials, lambda block: stream("mc", seed, label, block)
        )
        rows.append((label, trials, wrong, weight, clopper_pearson(wrong, trials, CONFIDENCE)))
    return rows


def estimate_error(
    scheme: Scheme,
    queries: Optional[Sequence] = None,
    strategy: Optional[AdversaryStrategy] = None,
    trials: int = 100_000,
    seed: int = 0,
    exact_limit: int = EXACT_STATE_LIMIT,
) -> ExperimentReport:
    """Per-query and worst-query decoding error under one adversary.

    Killers with no target are re-aimed at each measured query; every
    other strategy gives one pattern for all of them.  A query is exact
    where the scheme's wrong_counts, asked with exact_limit, counts it;
    only where that declines does it fall back to `trials` Monte Carlo
    draws.  exact_limit caps enumeration, not exactness.
    """
    integer(trials, "trials >= 1", 1)
    t0 = time.monotonic()
    queries = list(scheme.queries() if queries is None else queries)
    if strategy is None:
        strategy = AdversaryStrategy(kind="none", budget=0)
    shared: Optional[CorruptionPattern] = None
    if strategy.kind in ("none", "random_flips") or strategy.target is not None:
        shared = attack(strategy, scheme, strategy.target)
    elif strategy.kind == "greedy_local":
        shared = _greedy_local(strategy, scheme, queries)
    if shared is not None:
        rows = _measure(scheme, queries, shared, trials, seed, exact_limit)
    else:
        rows = []
        for query in queries:
            pattern = attack(strategy, scheme, query)
            rows += _measure(scheme, [query], pattern, trials, seed, exact_limit)
    labels, coins, wrong, weights, intervals = zip(*rows) if rows else ((),) * 5
    n = scheme.codeword.n
    return ExperimentReport(
        scheme=scheme.name,
        params=scheme.frozen_params,
        length=n,
        budget=strategy.budget,
        delta=strategy.budget / n,
        adversary=strategy.describe(),
        trials=trials,
        seed=seed,
        label_text=sys.intern("\n".join(labels)),
        counts=_count_columns(coins, wrong, weights),
        # one shared empty mapping where every row is exact
        intervals={i: ci for i, ci in enumerate(intervals) if ci is not None} or _NO_INTERVALS,
        worst_error=max((w / c for c, w in zip(coins, wrong)), default=0.0),
        wall_time=time.monotonic() - t0,
    )


def _count_columns(*columns) -> np.ndarray:
    """Columns of non-negative integers (coins or trials, wrong, pattern
    weight) as one read-only structured array, each column in
    np.min_scalar_type of its largest entry: an unsigned type, or Python
    ints (an object column) past 2^64.  Equal unsigned counts share one
    array, a view of their bytes, as equal labels share one string."""
    types = (np.min_scalar_type(max(col, default=0)) for col in columns)
    out = np.empty(len(columns[0]), dtype=_columns_dtype(*types))
    for name, column in zip(COUNT_COLUMNS, columns):
        out[name] = column
    out.flags.writeable = False
    if out.dtype.hasobject:
        return out
    data = out.tobytes()
    return _SHARED_COUNTS.setdefault((out.dtype, data), np.frombuffer(data, dtype=out.dtype))


@lru_cache(maxsize=None)
def _columns_dtype(*types) -> np.dtype:
    """One structured dtype per combination of column types, shared by
    every report that uses it."""
    return np.dtype(list(zip(COUNT_COLUMNS, types)))


def sweep(cells: Sequence[Dict], runner: Callable[[Dict], ExperimentReport]) -> List[Dict]:
    """Run one report per cell, in order; a failing cell records its
    error and the sweep continues."""
    out: List[Dict] = []
    for cell in cells:
        entry: Dict[str, object] = {"config": cell}
        try:
            entry["report"] = runner(cell).canonical_dict()
        except Exception as exc:  # recorded, not raised
            entry["error"] = "%s: %s" % (type(exc).__name__, exc)
        out.append(entry)
    return out
