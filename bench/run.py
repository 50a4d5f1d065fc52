"""Benchmark of the ecds package: one workload, one seed, one run.

    python3 bench/run.py --workload composed-mc --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the package is imported from its
``src``.  With ``--trace 0`` the run builds the workload's structures
several times (``setup_s`` is the median) and then repeats the measured
phase while another pass still fits in ``--seconds`` (at least
``min_passes`` times); it reports the end-to-end metrics.  With ``--trace 1`` it makes a
warm-up pass, then counting and traced passes in turn over the same
inputs, and reports the per-layer metrics of the last traced pass.  Either way it checks the program's
outputs, prints every metric with its unit, writes a record with the
machine, the command and the raw samples under ``.bench_runs/``, and
prints one JSON result object as its last line.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".bench_runs"

# (name, unit): the end-to-end metrics of an untraced run
E2E_METRICS = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("call_ms.p50", "ms"),
    ("peak_rss_mb", "MiB"),
)


def _peak_rss_mb(workload) -> float:
    # cli-session's work happens in its children; the largest one counts
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-session" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def request_latency(values) -> float:
    """A request's latency over a run's passes: its upper decile.

    On a shared host the same pass runs up to twice as fast while the
    host's other tenants are idle, in spells of seconds to minutes.  The
    slow end of a request's passes is the part that repeats from run to
    run; its median moves with how long the fast spells lasted.
    """
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _determinism(checks, label, canonicals) -> None:
    for i, text in enumerate(canonicals[1:], 1):
        checks.add("determinism.%s[%d]" % (label, i), text == canonicals[0])


def measure(workload, seconds, checks):
    """Untraced run: repeated set-up, then passes while time is left."""
    setup_s, setup_canon = [], []
    for _ in range(workload.setup_repeats):
        t0 = time.perf_counter()
        for _ in range(workload.setup_batch):
            state = workload.setup()
        setup_s.append((time.perf_counter() - t0) / workload.setup_batch)
        setup_canon.append(workload.fingerprint(state))
    passes, pass_s = [], []
    start = time.perf_counter()
    # whole passes only, and no pass that would end past --seconds
    while len(passes) < workload.min_passes or (
        time.perf_counter() - start + max(pass_s) <= seconds
    ):
        t0 = time.perf_counter()
        passes.append(workload.run(state))
        pass_s.append(time.perf_counter() - t0)
    peak = _peak_rss_mb(workload)
    _determinism(checks, "setup", setup_canon)
    _determinism(checks, "run", [workload.canonical(p.detail) for p in passes])
    workload.check(state, passes, checks)
    call_ms = [ms for p in passes for ms in p.call_ms]
    # every pass makes the same requests in the same order
    request_ms = [request_latency(col) for col in zip(*(p.call_ms for p in passes))]
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": sum(request_ms) / 1e3,
        "call_ms.p50": statistics.median(request_ms),
        "peak_rss_mb": peak,
    }
    samples = {"setup_s": setup_s, "pass_s": pass_s, "call_ms": call_ms}
    return metrics, samples, {}


def traced(workload, checks):
    """A warm-up pass, then counting and traced passes in turn over the
    same inputs; the overhead ratio compares the two kinds, which take
    turns so that slow spells of the machine fall on both."""
    if hasattr(workload, "in_process"):
        workload.in_process = True
    runs = []
    for spans in (False,) + (False, True) * 2:
        with tracing.Tracer(spans=spans) as tracer:
            state = workload.setup()
            done = workload.run(state)
        runs.append((tracer, sum(done.call_ms) / 1e3, done))
    plain_s = sum(t for tr, t, _ in runs[1:] if not tr.record_spans)
    traced_s = sum(t for tr, t, _ in runs[1:] if tr.record_spans)
    counter, tracer, done = runs[1][0], runs[-1][0], runs[-1][2]
    checks.add("trace.restored", not tracing.leftover_wrappers())
    counts = [r[0].deterministic_counts() for r in runs]
    for key in tracing.DETERMINISTIC_COUNTS:
        checks.add("trace.count[%s]" % key, len({c[key] for c in counts}) == 1)
    _determinism(checks, "trace", [workload.canonical(r[2].detail) for r in runs])
    workload.check(state, [done], checks)
    imports = workload.import_ms() if hasattr(workload, "import_ms") else {}
    metrics = tracer.layer_metrics(traced_s / plain_s, imports)
    extra = {
        "counting_runs_s": plain_s,
        "traced_runs_s": traced_s,
        "counts": dict(tracer.counts),
        "counting_pass_counts": dict(counter.counts),
        "missing_targets": tracer.missing,
        "spans": tracer.span_records(),
    }
    for target in tracer.missing:
        print("warning: %s no longer exists; its metrics read 0" % target, file=sys.stderr)
    return metrics, {}, extra


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def run_workload(name, seed, seconds, trace, params=None):
    """Run one workload; returns (result line object, full record)."""
    import workloads

    RECORDS.mkdir(exist_ok=True)
    workdir = RECORDS / ("work-%s-%d" % (name, os.getpid()))
    workdir.mkdir()
    try:
        workload = workloads.WORKLOADS[name](seed, str(workdir), **(params or {}))
        checks = workloads.Checks()
        if trace:
            metrics, samples, extra = traced(workload, checks)
            units = {n: u for n, u, _ in tracing.LAYER_METRICS}
        else:
            metrics, samples, extra = measure(workload, seconds, checks)
            units = dict(E2E_METRICS)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = {
        "correct": checks.correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "params": params or {},
        "checkout": str(ROOT),
        "command": [sys.executable] + sys.argv,
        "machine": machine(),
        "result": result,
        "failed_frac": checks.failed / checks.attempted,
        "failed_checks": checks.failed_names,
        "samples": samples,
        **extra,
    }
    return result, record


def use_checkout():
    """Put the checkout's ``src`` first on the import path and import
    ecds from it; returns what went wrong, or None."""
    if not (SRC / "ecds" / "__init__.py").is_file():
        return "no ecds package under %s; run from a checkout" % SRC
    sys.path.insert(0, str(SRC))
    import ecds

    if Path(ecds.__file__).resolve().parent != SRC / "ecds":
        return "imported ecds from %s, not from the checkout" % ecds.__file__
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("composed-mc", "hadip-exact", "cli-session"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    problem = use_checkout()
    if problem:
        print("error: " + problem, file=sys.stderr)
        return 2
    result, record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = RECORDS / ("%s-%s-seed%d-trace%d.json" % (stamp, args.workload, args.seed, args.trace))
    out.write_text(json.dumps(record, indent=1, sort_keys=True))

    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print("workload %s  seed %d  checkout %s" % (args.workload, args.seed, ROOT))
    for key, m in result["metrics"].items():
        print("  %-34s %14.6g %s" % (key, m["value"], m["unit"]))
    for key, values in record["samples"].items():
        print("  samples %-26s %d" % (key, len(values)))
    print(
        "checks: %d attempted, %d failed (failed_frac %.4g)"
        % (result["attempted"], result["failed"], record["failed_frac"])
    )
    for name in record["failed_checks"]:
        print("  failed: " + name)
    print("record: %s" % out.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
