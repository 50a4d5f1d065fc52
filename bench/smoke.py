"""Smoke test of the benchmark at tiny sizes.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json untraced and traced, with the
sizes in ``workloads.TINY``, and checks that:

- the result object has exactly the keys the contract names;
- every metric BENCHMARK.json names appears, with its unit, and no
  other; end-to-end values are positive;
- no answer is wrong (``correct``), and the only failed checks are the
  known defects below, so ``failed_frac`` is 0 on composed-mc and
  hadip-exact and at most the two wrong-length decodes on cli-session.
"""

from __future__ import annotations

import json
import math
import sys

import run

# Defects of the package when the benchmark was written: wrong-length
# queries to had-ip and equality are answered instead of refused.  A fix
# removes them from the failures; any other failed check is a regression.
KNOWN_DEFECTS = {
    "cli-session": {"malformed.had-ip-query-length", "malformed.equality-query-length"},
}


def main() -> int:
    problem = run.use_checkout()
    if problem:
        print("error: " + problem, file=sys.stderr)
        return 2
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for entry in spec["workloads"]:
        name = entry["name"]
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result, record = run.run_workload(
                name, seed=7, seconds=0.1, trace=trace, params=workloads.TINY[name]
            )
            where = "%s trace=%d" % (name, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append("%s: result keys %s" % (where, sorted(result)))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append("%s: metrics differ from BENCHMARK.json: %s"
                                % (where, sorted(set(got.items()) ^ set(want.items()))))
            for k, v in result["metrics"].items():
                value = v["value"]
                if not math.isfinite(value) or value < 0 or (not trace and value == 0):
                    problems.append("%s: %s = %r" % (where, k, value))
            if not result["correct"]:
                problems.append("%s: wrong answers" % where)
            failed = set(record["failed_checks"])
            unexpected = failed - KNOWN_DEFECTS.get(name, set())
            if unexpected:
                problems.append("%s: failed checks %s" % (where, sorted(unexpected)))
            print("%-24s %4d checks, %d failed, failed_frac %.4g %s"
                  % (where, result["attempted"], result["failed"],
                     record["failed_frac"], sorted(failed) or ""))
    for p in problems:
        print("PROBLEM: " + p)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
