"""Command-line front end.

Subcommands: build, decode, attack, experiment, sweep, bounds.  Output
is JSON (or CSV for experiment/sweep with --format csv) on stdout or
--out; every run echoes its fully resolved configuration.  Errors leave
a machine-readable object on stderr with a distinct exit code per class:
2 usage, 3 bad parameters or queries and malformed structure or pattern
files, 4 infeasible size, 5 failed build or verification, 6 I/O.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from itertools import islice
from typing import Dict, List, Optional

from .bits import BitString
from . import bounds as bounds_mod
from .errors import (
    ConstructionError,
    InfeasibleSizeError,
    ParameterError,
    VerificationError,
    integer,
)
from .hadamard import EqualityScheme, HadamardCode, HadamardIp, RandomLinearCode
from .harness import ADVERSARY_KINDS, AdversaryStrategy, attack, estimate_error, sweep
from .inner_product import PolySharedIp, SubstringHadamard, TableIp, poly_ip_geometry, substring_length, table_ip_length
from .membership import BlockCodedMembership, OneProbeMembership
from .oracle import CorruptionPattern, ProbeOracle
from .seeding import stream
from .storage import (
    load_pattern,
    load_structure,
    report_csv_text,
    save_pattern,
    save_structure,
)

SCHEMES = (
    "had-ip",
    "equality",
    "ip-table",
    "ip-poly",
    "substring",
    "mem-1p",
    "mem-composed",
)

ENV_SEED = "ECDS_SEED"

# the most queries one request may select
MAX_QUERIES = 4096


def _default_seed() -> int:
    raw = os.environ.get(ENV_SEED)
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ParameterError("%s must be an integer, got %r" % (ENV_SEED, raw))


def make_scheme(cfg: Dict, seed: int):
    """Build a scheme instance from a flat config mapping.  The scheme's
    length function checks its flags before data() draws the data."""
    scheme_id = cfg.get("scheme")
    if scheme_id not in SCHEMES:
        raise ParameterError("unknown scheme %r (choose from %s)" % (scheme_id, ", ".join(SCHEMES)))
    if "n" not in cfg or cfg["n"] is None:
        raise ParameterError("--n is required to build a scheme")
    n = integer(cfg["n"], "an integer n", -math.inf)

    def data() -> BitString:
        """--x, or bits drawn from the seed (a set of at most s members for membership)."""
        if cfg.get("x"):
            x = BitString.from01(cfg["x"])
        elif scheme_id in ("mem-1p", "mem-composed"):
            x = BitString.from_indices(n, stream("data", seed).sample(range(1, n + 1), min(cfg.get("s", 1), n)))
        else:
            x = BitString.random(n, stream("data", seed))
        if x.n != n:
            raise ParameterError("data length does not match --n")
        return x

    if scheme_id == "had-ip":
        HadamardCode(n)
        return HadamardIp(data())
    if scheme_id == "equality":
        if cfg.get("code") == "linear":
            length = cfg.get("code_length")
            if not length:
                raise ParameterError("--code-length is required for the linear code")
            code = RandomLinearCode(n, length, rng=stream("code", seed))
        else:
            code = HadamardCode(n)
        return EqualityScheme(data(), code=code, balanced=not cfg.get("raw", False))
    if scheme_id == "ip-table":
        table_ip_length(n, _require(cfg, "r"), **_given(cfg, "p"))
        return TableIp(data(), cfg["r"], **_given(cfg, "p"))
    if scheme_id == "ip-poly":
        # PolySharedIp has no default p; two blocks is the smallest
        p = 2 if cfg.get("p") is None else cfg["p"]
        poly_ip_geometry(n, _require(cfg, "r"), p)
        return PolySharedIp(data(), cfg["r"], p)
    if scheme_id == "substring":
        substring_length(n, _require(cfg, "r"), **_given(cfg, "t"))
        return SubstringHadamard(data(), cfg["r"], **_given(cfg, "t"))
    if scheme_id == "mem-1p":
        return OneProbeMembership.build(n, _require(cfg, "s"), seed=seed, **_given(cfg, "eps")).instance(data())
    st = BlockCodedMembership.build(n, _require(cfg, "s"), seed=seed, **_given(cfg, "eps", "a", "b"))
    return st.instance(data(), **_given(cfg, "decoder"))


def _require(cfg: Dict, key: str):
    if cfg.get(key) is None:
        raise ParameterError("--%s is required for scheme %r" % (key, cfg.get("scheme")))
    return cfg[key]


def _given(cfg: Dict, *keys: str) -> Dict:
    """The flags among keys that were set; unset ones keep their defaults."""
    return {k: cfg[k] for k in keys if cfg.get(k) is not None}


def pick_queries(scheme, selector: str, seed: int) -> List:
    """Query selection: 'all', 'sample:K' or a comma-separated list, never
    empty and never more than MAX_QUERIES."""
    if not isinstance(selector, str):
        raise ParameterError("need a query selector string, got %r" % (selector,))
    if selector == "all":
        out = list(islice(scheme.queries(), MAX_QUERIES + 1))
    elif selector.startswith("sample:"):
        rng = stream("queries", seed)
        out = [scheme.random_query(rng) for _ in range(min(int(selector.split(":", 1)[1]), MAX_QUERIES + 1))]
    else:
        out = [scheme.parse_query(part) for part in selector.split(",") if part]
    if not out:
        raise ParameterError("query selector %r selects no queries" % selector)
    if len(out) > MAX_QUERIES:
        raise ParameterError("query selector %r selects too many queries, more than %d" % (selector, MAX_QUERIES))
    return out


def _emit(args, payload: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(payload)
            if not payload.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(payload)
        if not payload.endswith("\n"):
            sys.stdout.write("\n")


def _config_echo(args, extra: Optional[Dict] = None) -> Dict:
    skip = {"func", "out"}
    cfg = {
        k: v for k, v in vars(args).items() if k not in skip and v is not None
    }
    if extra:
        cfg.update(extra)
    return cfg


# -- subcommand implementations ---------------------------------------


def cmd_build(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    cfg = _config_echo(args, {"seed": seed})
    scheme = make_scheme(cfg, seed)
    save_structure(args.out_file, scheme)
    report = {
        "config": cfg,
        "scheme": scheme.name,
        "params": scheme.params(),
        "length": scheme.codeword.n,
        "file": args.out_file,
    }
    build_report = getattr(getattr(scheme, "structure", None), "report", None)
    if build_report is not None:
        report["build"] = build_report.to_dict()
    _emit(args, json.dumps(report, sort_keys=True, indent=2))
    return 0


def cmd_decode(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    scheme = load_structure(args.structure)
    query = scheme.parse_query(args.query)
    pattern = CorruptionPattern.empty()
    if args.pattern:
        pattern, n = load_pattern(args.pattern)
        if n != scheme.codeword.n:
            raise ParameterError("pattern length does not match the structure")
    oracle = ProbeOracle(scheme.codeword, pattern, scheme.probe_budget(query))
    answer = scheme.decode(oracle, query, stream("decode", seed))
    out = {
        "config": _config_echo(args, {"seed": seed}),
        "scheme": scheme.name,
        "query": scheme.query_label(query),
        "answer": answer.to01() if isinstance(answer, BitString) else answer,
        "probes_used": oracle.used,
        "budget": oracle.budget,
        "pattern_weight": pattern.weight,
    }
    _emit(args, json.dumps(out, sort_keys=True, indent=2))
    return 0


def cmd_attack(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    if (args.delta is None) == (args.budget is None):
        raise ParameterError("attack takes exactly one of --delta and --budget")
    scheme = load_structure(args.structure)
    budget = args.budget
    if args.delta is not None:
        budget = CorruptionPattern.budget(args.delta, scheme.codeword.n)
    target = scheme.parse_query(args.target) if args.target else None
    strategy = AdversaryStrategy(
        kind=args.kind, budget=budget, seed=seed, target=target
    )
    pattern = attack(strategy, scheme, target)
    save_pattern(args.out_file, pattern, scheme.codeword.n)
    out = {
        "config": _config_echo(args, {"seed": seed, "budget": budget}),
        "scheme": scheme.name,
        "adversary": strategy.describe(),
        "weight": pattern.weight,
        "length": scheme.codeword.n,
        "file": args.out_file,
    }
    _emit(args, json.dumps(out, sort_keys=True, indent=2))
    return 0


def _run_experiment(cfg: Dict) -> "ExperimentReport":
    if not isinstance(cfg, dict):
        raise ParameterError("a sweep cell must be a JSON object, got %r" % (cfg,))
    seed = integer(cfg.get("seed", 0), "an integer seed", -math.inf)
    structure = cfg.get("structure")
    if not isinstance(structure, (str, type(None))):
        raise ParameterError("need a structure file name, got %r" % (structure,))
    if structure:
        scheme = load_structure(structure)
    else:
        scheme = make_scheme(cfg, seed)
    budget = cfg.get("budget")
    if budget is None:
        budget = CorruptionPattern.budget(cfg.get("delta", 0.0), scheme.codeword.n)
    strategy = AdversaryStrategy(
        kind=cfg.get("adversary", "none"),
        budget=budget,
        seed=seed,
        target=None,
    )
    queries = pick_queries(scheme, cfg.get("queries", "sample:16"), seed)
    return estimate_error(
        scheme,
        queries=queries,
        strategy=strategy,
        trials=cfg.get("trials", 100_000),
        seed=seed,
    )


def cmd_experiment(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    cfg = _config_echo(args, {"seed": seed})
    report = _run_experiment(cfg)
    if args.format == "csv":
        _emit(args, report_csv_text(report))
    else:
        body = report.canonical_dict()
        body["config"] = cfg
        _emit(args, json.dumps(body, sort_keys=True, indent=2))
    return 0


def cmd_sweep(args) -> int:
    with open(args.grid) as fh:
        cells = json.load(fh)
    if not isinstance(cells, list):
        raise ParameterError("grid file must hold a JSON list of cells")
    results = sweep(cells, _run_experiment)
    _emit(args, json.dumps(results, sort_keys=True, indent=2))
    return 0


# the flags each bound formula reads and has no default for
BOUND_FLAGS = {
    "ip": ("n", "r"),
    "ip-comm": ("n", "r", "beta"),
    "one-probe": ("delta",),
    "membership": ("n", "s"),
    "discrepancy": ("n", "r"),
}


def cmd_bounds(args) -> int:
    f = args.formula
    for flag in BOUND_FLAGS.get(f, ()):
        if getattr(args, flag) is None:
            raise ParameterError("--%s is required for %s" % (flag, f))
    drawn = None
    if f == "ip":
        p = 1 if args.p is None else args.p
        body = bounds_mod.ip_ds_lower_bound(args.n, args.r, args.eps, p).to_dict()
        body["structure_length_table"] = bounds_mod.ball_size(args.n, math.ceil(args.r / p))
    elif f == "ip-comm":
        body = bounds_mod.ip_comm_lower_bound(args.n, args.r, args.beta).to_dict()
    elif f == "one-probe":
        body = bounds_mod.one_probe_noise_threshold(args.delta, args.eps).to_dict()
    elif f == "membership":
        body = bounds_mod.membership_trivial_lb(args.n, args.s).to_dict()
    elif f == "discrepancy":
        seed = args.seed if args.seed is not None else _default_seed()
        body = bounds_mod.discrepancy_verify(args.n, args.r, samples=args.samples, seed=seed).to_dict()
        drawn = {"seed": seed}
    else:
        raise ParameterError("unknown bounds formula %r" % (f,))
    body["config"] = _config_echo(args, drawn)
    _emit(args, json.dumps(body, sort_keys=True, indent=2))
    return 0


# -- argument wiring --------------------------------------------------


def _add_scheme_flags(sp) -> None:
    sp.add_argument("--scheme", choices=SCHEMES)
    sp.add_argument("--n", type=int)
    sp.add_argument("--s", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--t", type=int)
    sp.add_argument("--a", type=int)
    sp.add_argument("--b", type=int)
    sp.add_argument("--eps", type=float)
    sp.add_argument("--x", help="explicit data bits, e.g. 0101")
    sp.add_argument("--decoder", choices=("block", "direct"))
    sp.add_argument("--code", choices=("hadamard", "linear"))
    sp.add_argument("--code-length", dest="code_length", type=int)
    sp.add_argument("--raw", action="store_true", help="equality without balancing")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ecds",
        description="Error-correcting data structures: build, corrupt, decode, measure.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="construct a structure and save it")
    _add_scheme_flags(b)
    b.add_argument("--seed", type=int)
    b.add_argument("--out-file", required=True)
    b.add_argument("--out", help="write the report here instead of stdout")
    b.set_defaults(func=cmd_build)

    d = sub.add_parser("decode", help="answer one query from a stored structure")
    d.add_argument("--structure", required=True)
    d.add_argument("--query", required=True)
    d.add_argument("--pattern")
    d.add_argument("--seed", type=int)
    d.add_argument("--out")
    d.set_defaults(func=cmd_decode)

    a = sub.add_parser("attack", help="emit a corruption pattern for a structure")
    a.add_argument("--structure", required=True)
    a.add_argument("--kind", choices=ADVERSARY_KINDS, required=True)
    a.add_argument("--delta", type=float)
    a.add_argument("--budget", type=int)
    a.add_argument("--target")
    a.add_argument("--seed", type=int)
    a.add_argument("--out-file", required=True)
    a.add_argument("--out")
    a.set_defaults(func=cmd_attack)

    e = sub.add_parser("experiment", help="measure decoding error under an adversary")
    _add_scheme_flags(e)
    e.add_argument("--structure", help="use a stored structure instead of building")
    e.add_argument("--adversary", choices=ADVERSARY_KINDS, default="none")
    e.add_argument("--delta", type=float, default=0.0)
    e.add_argument("--budget", type=int)
    e.add_argument("--trials", type=int, default=100_000)
    e.add_argument("--queries", default="sample:16")
    e.add_argument("--seed", type=int)
    e.add_argument("--format", choices=("json", "csv"), default="json")
    e.add_argument("--out")
    e.set_defaults(func=cmd_experiment)

    w = sub.add_parser("sweep", help="run a grid of experiments")
    w.add_argument("--grid", required=True)
    w.add_argument("--out")
    w.set_defaults(func=cmd_sweep)

    bo = sub.add_parser("bounds", help="evaluate a bound formula")
    bo.add_argument("formula", choices=tuple(BOUND_FLAGS))
    bo.add_argument("--n", type=int)
    bo.add_argument("--s", type=int)
    bo.add_argument("--r", type=int)
    bo.add_argument("--p", type=int)
    bo.add_argument("--eps", type=float, default=0.0)
    bo.add_argument("--beta", type=float)
    bo.add_argument("--delta", type=float)
    bo.add_argument("--samples", type=int, default=10_000)
    bo.add_argument("--seed", type=int)
    bo.add_argument("--out")
    bo.set_defaults(func=cmd_bounds)

    return ap


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, ValueError) as exc:
        return _fail(exc, 3)
    except InfeasibleSizeError as exc:
        return _fail(exc, 4)
    except (ConstructionError, VerificationError) as exc:
        return _fail(exc, 5)
    except OSError as exc:
        return _fail(exc, 6)


def _fail(exc: Exception, code: int) -> int:
    sys.stderr.write(
        json.dumps(
            {"error": type(exc).__name__, "message": str(exc), "code": code}
        )
        + "\n"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
