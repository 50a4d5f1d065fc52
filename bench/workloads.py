"""The benchmark's workloads.

A workload derives every input from its seed, builds its structures in
``setup`` and repeats a fixed measured phase in ``run`` (one "pass").
``fingerprint(state)`` and ``canonical(pass detail)`` are the bytes that
repeats of one seed must reproduce; ``check`` inspects what the program
returned.  The load model is a closed loop with one caller: each query,
trial or CLI call starts only after the previous one has finished, and
cli-session runs one child process at a time.

Calls into ecds go through module attributes (``ecds.estimate_error``,
``ecds.cli.main``) and class attributes, never through names bound
here, so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Tuple

import numpy as np

import ecds
import ecds.cli

# a child that takes longer than this is killed and the run fails
CALL_TIMEOUT_S = 150


@dataclass
class Pass:
    """What one pass of a measured phase produced."""

    call_ms: List[float]  # latency of each request of the pass, in order
    detail: object  # what canonical() and check() inspect


@dataclass
class Checks:
    """Correctness checks behind ``attempted``/``failed``.

    A refusal check asks that a malformed request be rejected.  Its
    failure counts in ``failed`` but leaves ``correct`` alone, which
    covers the answers given to well-formed requests.
    """

    attempted: int = 0
    failed_names: List[str] = field(default_factory=list)
    wrong_answers: int = 0

    def add(self, name: str, ok: bool, refusal: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed_names.append(name)
            if not refusal:
                self.wrong_answers += 1

    @property
    def failed(self) -> int:
        return len(self.failed_names)

    @property
    def correct(self) -> bool:
        return self.wrong_answers == 0


# Seed of the structures' own randomness (probe sets, permutations,
# random codes), the library's default.  It is the same in every run so
# that set-up does the same work whatever --seed is: some seeds need a
# second verify attempt, which doubles a membership build.  Data bits,
# queries, attacks and Monte Carlo draws come from --seed.
BUILD_SEED = 0


def _derived_seed(rng: random.Random) -> int:
    return rng.randrange(1 << 31)


def _reports_json(reports) -> str:
    """Canonical report bytes: ExperimentReport.to_json leaves out wall time."""
    return "\n".join(r.to_json() for r in reports)


# -- composed-mc ------------------------------------------------------


class ComposedMc:
    """Composed membership decoder under attack at delta = 0.005.

    Why: the scalar Monte Carlo decode loop (harness + oracle) is nearly
    all of a pass and the membership build and verify nearly all of
    set-up, so a batch decode kernel or a faster verify shows here.
    """

    name = "composed-mc"
    setup_repeats = 3
    setup_batch = 1
    # three, so that each request's upper decile has passes to pick from
    min_passes = 3
    kinds = ("random_flips", "block_killer")

    def __init__(self, seed, workdir, public_n=64, s=2, a=14, b=288,
                 trials=10_000, delta=0.005):
        rng = random.Random("%s:%d" % (self.name, seed))
        self.public_n, self.s, self.a, self.b = public_n, s, a, b
        self.trials, self.delta = trials, delta
        self.member_seed = _derived_seed(rng)
        self.attack_seed = _derived_seed(rng)
        self.mc_seed = _derived_seed(rng)

    def setup(self):
        st = ecds.BlockCodedMembership.build(
            self.public_n, self.s, a=self.a, b=self.b, seed=BUILD_SEED
        )
        # the instance holds s (the most a verified build allows) good indices
        good = list(st.good_indices)
        chosen = random.Random(self.member_seed).sample(good, min(self.s, len(good)))
        return st.instance(ecds.BitString.from_indices(self.public_n, chosen))

    def fingerprint(self, inst) -> str:
        return json.dumps(inst.structure.report.to_dict(), sort_keys=True)

    canonical = staticmethod(_reports_json)

    def budget(self, inst) -> int:
        return ecds.CorruptionPattern.budget(self.delta, inst.codeword.n)

    def run(self, inst) -> Pass:
        """One estimate_error over every good index under random_flips
        (one shared pattern), then one per good index under block_killer,
        which is re-aimed at each query anyway.  The per-query calls are
        the requests behind call_ms.p50."""
        good = list(inst.structure.good_indices)
        requests = [("random_flips", good)] + [("block_killer", [i]) for i in good]
        reports, call_ms = [], []
        for kind, queries in requests:
            strategy = ecds.AdversaryStrategy(
                kind=kind, budget=self.budget(inst), seed=self.attack_seed
            )
            t0 = time.perf_counter()
            reports.append(
                ecds.estimate_error(
                    inst, queries=queries, strategy=strategy,
                    trials=self.trials, seed=self.mc_seed,
                )
            )
            call_ms.append((time.perf_counter() - t0) * 1e3)
        return Pass(call_ms, reports)

    def check(self, inst, passes, checks: Checks) -> None:
        budget = self.budget(inst)
        good = [str(i) for i in inst.structure.good_indices]
        measured = {kind: [] for kind in self.kinds}
        for rep in passes[-1].detail:
            kind = rep.adversary["kind"]
            checks.add(
                "%s.budget" % kind,
                rep.budget == budget
                and all(r.pattern_weight <= budget for r in rep.results),
            )
            for r in rep.results:
                measured[kind].append(r.query)
                checks.add("%s.ci[%s]" % (kind, r.query), r.ci_high < 0.5)
        for kind, queries in measured.items():
            checks.add("%s.queries" % kind, queries == good)


# -- hadip-exact ------------------------------------------------------


class HadipExact:
    """Two-probe inner product: greedy attacks, then exact enumeration.

    Why: a pass splits between greedy_local's O(4^s) pairwise_error_counts
    calls and the scalar exact_error enumeration.  It bypasses Monte
    Carlo and membership entirely, so it is the no-change control for
    changes to those.
    """

    name = "hadip-exact"
    # One set-up takes about 10 us, far less than the spells (~0.1 s) in
    # which a shared machine runs fast or slow, so a lone sample reads one
    # spell.  Each set-up sample times a batch of 20 000 set-ups and
    # divides: the batch spans many spells.
    setup_repeats = 5
    setup_batch = 20_000
    min_passes = 3

    def __init__(self, seed, workdir, s=11, queries=256, deltas=(0.01, 0.05)):
        rng = random.Random("%s:%d" % (self.name, seed))
        self.s, self.deltas = s, deltas
        self.x = ecds.BitString.random(s, rng)
        self.target = ecds.BitString.from_int(s, rng.randrange(1, 1 << s))
        self.queries = [
            ecds.BitString.from_int(s, v)
            for v in rng.sample(range(1 << s), min(queries, 1 << s))
        ]
        self.attack_seed = _derived_seed(rng)
        self.mc_seed = _derived_seed(rng)

    def setup(self):
        return ecds.HadamardIp(self.x)

    def fingerprint(self, inst) -> str:
        return inst.codeword.bits.to01()

    canonical = staticmethod(_reports_json)

    def strategy(self, inst, delta):
        return ecds.AdversaryStrategy(
            kind="greedy_local",
            budget=ecds.CorruptionPattern.budget(delta, inst.codeword.n),
            seed=self.attack_seed,
            target=self.target,
        )

    def run(self, inst) -> Pass:
        reports, call_ms = [], []
        for delta in self.deltas:
            t0 = time.perf_counter()
            reports.append(
                ecds.estimate_error(
                    inst,
                    queries=self.queries,
                    strategy=self.strategy(inst, delta),
                    trials=10_000,
                    seed=self.mc_seed,
                )
            )
            call_ms.append((time.perf_counter() - t0) * 1e3)
        return Pass(call_ms, reports)

    def check(self, inst, passes, checks: Checks) -> None:
        # estimate_error keeps its pattern to itself; the attack is
        # deterministic, so recompute it and recount errors independently:
        # coin z fails on query y when exactly one of z, z^y is flipped,
        # which is what pairwise_error_counts(s, pattern)[y] counts
        coins = 1 << self.s
        z = np.arange(coins)
        for delta, rep in zip(self.deltas, passes[-1].detail):
            pattern = ecds.attack(self.strategy(inst, delta), inst, self.target)
            flipped = np.zeros(coins, dtype=bool)
            flipped[[p - 1 for p in pattern.flips]] = True
            checks.add(
                "greedy[%g].weight" % delta,
                pattern.weight <= rep.budget
                and all(r.pattern_weight == pattern.weight for r in rep.results),
            )
            checks.add(
                "greedy[%g].queries" % delta,
                [r.query for r in rep.results] == [q.to01() for q in self.queries],
            )
            for r in rep.results:
                c = int((flipped != flipped[z ^ int(r.query, 2)]).sum())
                checks.add(
                    "exact[%g,%s]" % (delta, r.query),
                    r.mode == "exact"
                    and r.error_exact == str(Fraction(c, coins))
                    and c <= 2 * pattern.weight,  # error <= 2 delta, exactly
                )


# -- cli-session ------------------------------------------------------


@dataclass
class CallResult:
    label: str
    argv: Tuple[str, ...]
    code: int
    out: str
    err: str
    ms: float


def _bits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def _mask(rng: random.Random, n: int, weight: int) -> str:
    ones = set(rng.sample(range(n), weight))
    return "".join("1" if i in ones else "0" for i in range(n))


def _ip(x: str, y: str) -> int:
    return bin(int(x, 2) & int(y, 2)).count("1") & 1


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except ValueError:
        return None


class CliSession:
    """The README's way of driving the package: one `ecds` process per call.

    Why: fixed per-call cost (interpreter start, imports, structure
    load) dominates here and the in-process workloads cannot see it.
    The harness also runs the other way round from composed-mc: many
    tiny exact coin spaces, so a kernel with a per-query set-up cost
    shows a loss here.
    """

    name = "cli-session"
    setup_repeats = 2
    setup_batch = 1
    min_passes = 1

    def __init__(self, seed, workdir, n=10, sub_n=12, poly_n=6, m1_n=32,
                 mc_n=64, mc_s=2, mc_a=14, mc_b=288, trials=2000, samples=2000):
        rng = random.Random("%s:%d" % (self.name, seed))
        self.dir = workdir
        self.in_process = False
        self.env = {
            k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "ECDS_SEED")
        }
        self.env["PYTHONPATH"] = os.path.dirname(os.path.dirname(ecds.__file__))
        qseed = str(_derived_seed(rng))
        f = self.path
        xs = {
            "had-ip": _bits(rng, n),
            "equality": _bits(rng, n),
            "ip-table": _bits(rng, n),
            "ip-poly": _bits(rng, poly_n),
            "substring": _bits(rng, sub_n),
            "mem-1p": _mask(rng, m1_n, 2),
            "mem-composed": _mask(rng, mc_n, mc_s),
        }
        builds = [
            ("had-ip", "hadip", ["--scheme", "had-ip", "--n", n, "--x", xs["had-ip"]]),
            ("equality", "eq", ["--scheme", "equality", "--n", n, "--x", xs["equality"]]),
            ("equality-linear", "eqlin", ["--scheme", "equality", "--n", n, "--x", xs["equality"],
                                          "--code", "linear", "--code-length", 8 * n]),
            ("ip-table", "iptable", ["--scheme", "ip-table", "--n", n, "--r", 3,
                                     "--x", xs["ip-table"]]),
            ("ip-poly", "ippoly", ["--scheme", "ip-poly", "--n", poly_n, "--r", 2, "--p", 2,
                                   "--x", xs["ip-poly"]]),
            ("substring", "substring", ["--scheme", "substring", "--n", sub_n, "--r", 3,
                                        "--t", 3, "--x", xs["substring"]]),
            ("mem-1p", "mem1p", ["--scheme", "mem-1p", "--n", m1_n, "--s", 2,
                                 "--x", xs["mem-1p"]]),
            ("mem-composed", "memcomp", ["--scheme", "mem-composed", "--n", mc_n, "--s", mc_s,
                                         "--a", mc_a, "--b", mc_b, "--x", xs["mem-composed"]]),
        ]
        self.builds = [
            ("build." + label,
             ("build",) + tuple(str(a) for a in args)
             + ("--seed", str(BUILD_SEED), "--out-file", f(stem + ".ecds")))
            for label, stem, args in builds
        ]
        q = {
            "had-ip": _bits(rng, n),
            "equality": _bits(rng, n),
            "ip-table": _mask(rng, n, rng.randint(1, 3)),
            "ip-poly": _mask(rng, poly_n, rng.randint(1, 2)),
            "substring": _mask(rng, sub_n, rng.randint(1, 3)),
        }
        m1_target = str(rng.randint(1, m1_n))
        mc_query = str(rng.randint(1, mc_n))
        self.truth = {
            "decode.had-ip": _ip(xs["had-ip"], q["had-ip"]),
            "decode.ip-table": _ip(xs["ip-table"], q["ip-table"]),
            "decode.ip-poly": _ip(xs["ip-poly"], q["ip-poly"]),
            "decode.substring": "".join(
                b for b, m in zip(xs["substring"], q["substring"]) if m == "1"
            ),
        }

        def decode(stem, query, pattern=None):
            argv = ("decode", "--structure", f(stem + ".ecds"), "--query", query)
            if pattern:
                argv += ("--pattern", f(pattern))
            return argv + ("--seed", qseed)

        def cell(stem, adversary, delta):
            return {"structure": f(stem + ".ecds"), "adversary": adversary,
                    "delta": delta, "trials": trials, "queries": "sample:4",
                    "seed": int(qseed)}

        self.grid = [
            cell("iptable", "random_flips", 0.02),
            cell("ippoly", "random_flips", 0.001),
            cell("substring", "piece_killer", 0.05),
            cell("mem1p", "probe_set_killer", 0.0002),
        ]
        self.calls = [
            ("attack.piece_killer", ("attack", "--structure", f("substring.ecds"), "--kind",
                                     "piece_killer", "--delta", "0.1", "--target", q["substring"],
                                     "--seed", qseed, "--out-file", f("p-substring.json"))),
            ("attack.probe_set_killer", ("attack", "--structure", f("mem1p.ecds"), "--kind",
                                         "probe_set_killer", "--budget", "20", "--target", m1_target,
                                         "--seed", qseed, "--out-file", f("p-mem1p.json"))),
            ("attack.random_flips", ("attack", "--structure", f("hadip.ecds"), "--kind",
                                     "random_flips", "--delta", "0.05", "--seed", qseed,
                                     "--out-file", f("p-hadip.json"))),
            ("decode.had-ip", decode("hadip", q["had-ip"])),
            ("decode.equality", decode("eq", q["equality"])),
            ("decode.equality-linear", decode("eqlin", q["equality"])),
            ("decode.ip-table", decode("iptable", q["ip-table"])),
            ("decode.ip-poly", decode("ippoly", q["ip-poly"])),
            ("decode.substring", decode("substring", q["substring"])),
            ("decode.mem-composed", decode("memcomp", mc_query)),
            ("decode.had-ip+pattern", decode("hadip", q["had-ip"], "p-hadip.json")),
            ("decode.substring+pattern", decode("substring", q["substring"], "p-substring.json")),
            ("decode.mem-1p+pattern", decode("mem1p", m1_target, "p-mem1p.json")),
            ("experiment", ("experiment", "--structure", f("hadip.ecds"), "--adversary",
                            "random_flips", "--delta", "0.05", "--trials", str(trials),
                            "--queries", "sample:8", "--seed", qseed)),
            ("sweep", ("sweep", "--grid", f("grid.json"))),
            ("bounds.ip", ("bounds", "ip", "--n", str(n), "--r", "3", "--eps", "0.25", "--p", "1")),
            ("bounds.discrepancy", ("bounds", "discrepancy", "--n", "4", "--r", "2",
                                    "--samples", str(samples), "--seed", qseed)),
            # malformed requests: each must be refused with an error object
            ("malformed.had-ip-query-length", decode("hadip", q["had-ip"][:-3])),
            ("malformed.equality-query-length", decode("eq", q["equality"] + "01")),
            ("malformed.truncated-file", decode("truncated", q["ip-table"])),
        ]

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def _call(self, label, argv) -> CallResult:
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                code = ecds.cli.main(list(argv))
            ms = (time.perf_counter() - t0) * 1e3
            return CallResult(label, argv, code, out.getvalue(), err.getvalue(), ms)
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ecds.cli", *argv],
            cwd=self.dir,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=CALL_TIMEOUT_S,
        )
        ms = (time.perf_counter() - t0) * 1e3
        return CallResult(label, argv, proc.returncode, proc.stdout, proc.stderr, ms)

    @staticmethod
    def canonical(results: List[CallResult]) -> str:
        return "".join(
            "%s exit=%d\n%s%s" % (r.label, r.code, r.out, r.err) for r in results
        )

    def setup(self):
        with open(self.path("grid.json"), "w") as fh:
            json.dump(self.grid, fh, sort_keys=True)
        results = [self._call(label, argv) for label, argv in self.builds]
        with open(self.path("iptable.ecds"), "rb") as src:
            whole = src.read()
        with open(self.path("truncated.ecds"), "wb") as dst:
            dst.write(whole[: len(whole) - 5])
        return results

    fingerprint = canonical

    def run(self, builds) -> Pass:
        results = [self._call(label, argv) for label, argv in self.calls]
        return Pass([r.ms for r in results], results)

    def check(self, builds, passes, checks: Checks) -> None:
        for r in builds + passes[-1].detail:
            if r.label.startswith("malformed."):
                last = r.err.strip().splitlines()[-1:] or [""]
                body = _json_or_none(last[0])
                checks.add(
                    r.label,
                    r.code != 0 and isinstance(body, dict) and "error" in body,
                    refusal=True,
                )
                continue
            body = _json_or_none(r.out)
            checks.add(r.label + ".ok", r.code == 0 and body is not None)
            if r.label == "sweep":
                checks.add(
                    "sweep.no-error-cell",
                    isinstance(body, list)
                    and len(body) == len(self.grid)
                    and all("error" not in c for c in body),
                )
            if r.label in self.truth:
                answer = body.get("answer") if isinstance(body, dict) else None
                checks.add(r.label + ".truth", answer == self.truth[r.label])
        if not self.in_process:
            self._replay_check(builds + passes[-1].detail, checks)

    def _replay_check(self, results: List[CallResult], checks: Checks) -> None:
        """Repeat every call in-process: the bytes must match the child's."""
        self.in_process = True
        try:
            for r in results:
                again = self._call(r.label, r.argv)
                checks.add(
                    "determinism.in-process[%s]" % r.label,
                    (again.code, again.out, again.err) == (r.code, r.out, r.err),
                )
        finally:
            self.in_process = False

    def import_ms(self, repeats: int = 3) -> Dict[str, float]:
        """Median cumulative import time of ecds.cli and of scipy.stats,
        from fresh ``python -X importtime`` processes."""
        samples: Dict[str, List[float]] = {"ecds.cli": [], "scipy.stats": []}
        for _ in range(repeats):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c", "import ecds.cli"],
                cwd=self.dir, env=self.env, capture_output=True, text=True,
                timeout=CALL_TIMEOUT_S, check=True,
            )
            seen = {}
            for line in proc.stderr.splitlines():
                parts = line.split("|")
                if len(parts) == 3 and parts[2].strip() in samples:
                    seen.setdefault(parts[2].strip(), int(parts[1]) / 1e3)
            for name in samples:
                samples[name].append(seen.get(name, 0.0))
        return {name: statistics.median(v) for name, v in samples.items()}


WORKLOADS = {w.name: w for w in (ComposedMc, HadipExact, CliSession)}

# Sizes small enough for the smoke test; every layer is still exercised.
TINY = {
    "composed-mc": dict(public_n=16, s=1, a=8, b=64, trials=300),
    "hadip-exact": dict(s=6, queries=16),
    "cli-session": dict(n=6, sub_n=6, poly_n=4, m1_n=8, mc_n=16, mc_s=1, mc_a=8, mc_b=64,
                        trials=200, samples=100),
}
