"""Traced run: spans and counts at the public entry points of each module.

The wrappers live here, in the benchmark, not in the program.  Each
wrapped call records a span (name, start, end, parent) in memory; a
layer's self time is its span's duration minus that of its direct
children.  ``bits`` and ``seeding`` are not boundaries: their cost shows
in the self time of their callers.  ``ProbeOracle.probe`` is not wrapped,
because a per-probe wrapper would swamp the numbers it measures.

A function is patched in its defining module and in every ``ecds``
module that bound it with ``from ... import`` (``ecds.harness.exact_error``,
``ecds.cli.attack``, ...).  Methods and constructors are patched once, on
their class.  ``Tracer`` restores every original when its ``with`` block
ends.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional, Tuple

ATTACK_KINDS = ("greedy_local", "random_flips", "block_killer", "piece_killer", "probe_set_killer")
CLI_COMMANDS = ("build", "decode", "attack", "experiment", "sweep", "bounds")

# counts that depend only on the inputs; tracing must not change them
DETERMINISTIC_COUNTS = (
    "harness.mc_trials",
    "oracle.exact_states",
    "hadamard.pairwise_calls",
    "membership.verify_supports",
)

# (name, unit, better): the per-layer metrics of a traced run
LAYER_METRICS = (
    [
        ("membership.build_s", "s", "lower"),
        ("membership.verify_s", "s", "lower"),
        ("membership.verify_supports", "count", "lower"),
        ("membership.build_attempts", "count", "lower"),
        ("membership.perm_trials", "count", "lower"),
        ("membership.encode_s", "s", "lower"),
        ("hadamard.pairwise_calls", "count", "lower"),
        ("hadamard.pairwise_s", "s", "lower"),
        ("hadamard.encode_s", "s", "lower"),
        ("inner_product.encode_s", "s", "lower"),
        ("oracle.exact_calls", "count", "lower"),
        ("oracle.exact_states", "count", "lower"),
        ("oracle.exact_s", "s", "lower"),
        ("oracle.exact_states_per_s", "1/s", "higher"),
    ]
    + [("harness.attack_s." + k, "s", "lower") for k in ATTACK_KINDS]
    + [("harness.attack_calls." + k, "count", "lower") for k in ATTACK_KINDS]
    + [
        ("harness.mc_trials", "count", "lower"),
        ("harness.mc_self_s", "s", "lower"),
        ("harness.mc_trials_per_s", "1/s", "higher"),
        ("harness.exact_queries", "count", "higher"),
        ("harness.mc_queries", "count", "lower"),
        ("harness.ci_s", "s", "lower"),
        ("storage.save_s", "s", "lower"),
        ("storage.load_s", "s", "lower"),
        ("storage.load_calls", "count", "lower"),
        ("storage.bytes", "B", "lower"),
        ("cli.import_ms", "ms", "lower"),
        ("cli.import_scipy_ms", "ms", "lower"),
    ]
    + [("cli.call_ms." + c, "ms", "lower") for c in CLI_COMMANDS]
    + [
        ("bounds.discrepancy_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


# -- count hooks: (counts, args, result) after a call returns ---------


def _count_report(counts, args, report) -> None:
    for r in report.results:
        if r.mode == "mc":
            counts["harness.mc_trials"] += r.trials
            counts["harness.mc_queries"] += 1
        else:
            counts["harness.exact_queries"] += 1


def _count_states(counts, args, _) -> None:
    counts["oracle.exact_states"] += args[0].coin_count(args[1])


def _count_supports(counts, args, report) -> None:
    counts["membership.verify_supports"] += report.checked_supports


def _count_attempts(counts, args, structure) -> None:
    counts["membership.build_attempts"] += structure.report.attempts


def _count_perm_trials(counts, args, structure) -> None:
    counts["membership.perm_trials"] += structure.report.perm_trials


def _count_bytes(counts, args, _) -> None:
    counts["storage.bytes"] += os.path.getsize(args[0])


def _attack_name(args) -> str:
    return "harness.attack." + args[0].kind


def _cli_name(args) -> str:
    argv = args[0] if args else None
    return "cli." + (argv[0] if argv else "none")


# (module, attribute path, span name or name function, count hook)
TARGETS: Tuple[Tuple[str, str, object, Optional[Callable]], ...] = (
    ("ecds.harness", "estimate_error", "harness.estimate_error", _count_report),
    ("ecds.harness", "attack", _attack_name, None),
    ("ecds.harness", "clopper_pearson", "harness.ci", None),
    ("ecds.oracle", "exact_error", "oracle.exact", _count_states),
    ("ecds.hadamard", "pairwise_error_counts", "hadamard.pairwise", None),
    ("ecds.hadamard", "HadamardIp.__init__", "hadamard.encode", None),
    ("ecds.hadamard", "EqualityScheme.__init__", "hadamard.encode", None),
    ("ecds.hadamard", "RandomLinearCode.__init__", "hadamard.encode", None),
    ("ecds.inner_product", "TableIp.__init__", "inner_product.encode", None),
    ("ecds.inner_product", "PolySharedIp.__init__", "inner_product.encode", None),
    ("ecds.inner_product", "SubstringHadamard.__init__", "inner_product.encode", None),
    ("ecds.membership", "OneProbeMembership.build", "membership.build", _count_attempts),
    ("ecds.membership", "BlockCodedMembership.build", "membership.build", _count_perm_trials),
    ("ecds.membership", "OneProbeMembership.verify", "membership.verify", _count_supports),
    ("ecds.membership", "OneProbeMembership.instance", "membership.encode", None),
    ("ecds.membership", "BlockCodedMembership.instance", "membership.encode", None),
    ("ecds.storage", "save_structure", "storage.save", None),
    ("ecds.storage", "load_structure", "storage.load", _count_bytes),
    ("ecds.cli", "main", _cli_name, None),
    ("ecds.bounds", "discrepancy_verify", "bounds.discrepancy", None),
    ("ecds.bounds", "ip_ds_lower_bound", "bounds.ip", None),
)

_MARK = "_bench_traced"


def _ecds_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "ecds" or name.startswith("ecds."))
    ]


class Tracer:
    """Installs the wrappers for the duration of a ``with`` block.

    With ``spans=False`` the wrappers only count, so the work done can be
    compared with a traced pass over the same inputs.
    """

    def __init__(self, spans: bool):
        self.record_spans = spans
        self.spans: List[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._undo: List[Tuple[object, str, object]] = []
        self.missing: List[str] = []

    def _wrap(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            tracer.counts[label] += 1
            if tracer.record_spans:
                span = [label, time.perf_counter(), 0.0, tracer._stack[-1] if tracer._stack else -1]
                tracer._stack.append(len(tracer.spans))
                tracer.spans.append(span)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tracer._stack.pop()
                    span[2] = time.perf_counter()
            else:
                out = fn(*args, **kwargs)
            if hook is not None:
                hook(tracer.counts, args, out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        setattr(wrapper, _MARK, True)
        return wrapper

    def __enter__(self) -> "Tracer":
        try:
            for module_name, path, name, hook in TARGETS:
                owner_name, _, attr = path.rpartition(".")
                module = sys.modules.get(module_name)
                owner = getattr(module, owner_name, None) if owner_name else module
                if owner is None or attr not in vars(owner):
                    # the package moved or dropped this entry point: its
                    # metrics read 0 and the record lists it
                    self.missing.append("%s.%s" % (module_name, path))
                    continue
                raw = vars(owner)[attr]
                if owner_name:  # a method or constructor: patch its class
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(raw.__func__, name, hook))
                    else:
                        new = self._wrap(raw, name, hook)
                    self._undo.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    continue
                wrapper = self._wrap(raw, name, hook)
                for mod in _ecds_modules():
                    for binding, value in list(vars(mod).items()):
                        if value is raw:
                            self._undo.append((mod, binding, raw))
                            setattr(mod, binding, wrapper)
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------

    def deterministic_counts(self) -> Dict[str, int]:
        c = self.counts
        return {
            "harness.mc_trials": c["harness.mc_trials"],
            "oracle.exact_states": c["oracle.exact_states"],
            "hadamard.pairwise_calls": c["hadamard.pairwise"],
            "membership.verify_supports": c["membership.verify_supports"],
        }

    def layer_metrics(self, overhead_ratio: float, import_ms: Dict[str, float]) -> Dict[str, float]:
        spans = self.spans
        dur = [end - start for _, start, end, _ in spans]
        child = [0.0] * len(spans)
        for i, span in enumerate(spans):
            if span[3] >= 0:
                child[span[3]] += dur[i]

        def outermost(i: int) -> bool:
            name, p = spans[i][0], spans[i][3]
            while p >= 0:
                if spans[p][0] == name:
                    return False
                p = spans[p][3]
            return True

        def total(name: str) -> float:
            return sum(dur[i] for i, s in enumerate(spans) if s[0] == name and outermost(i))

        def per_s(count: float, seconds: float) -> float:
            return count / seconds if seconds > 0 else 0.0

        c = self.counts
        m = {
            "membership.build_s": total("membership.build"),
            "membership.verify_s": total("membership.verify"),
            "membership.verify_supports": c["membership.verify_supports"],
            "membership.build_attempts": c["membership.build_attempts"],
            "membership.perm_trials": c["membership.perm_trials"],
            "membership.encode_s": total("membership.encode"),
            "hadamard.pairwise_calls": c["hadamard.pairwise"],
            "hadamard.pairwise_s": total("hadamard.pairwise"),
            "hadamard.encode_s": total("hadamard.encode"),
            "inner_product.encode_s": total("inner_product.encode"),
            "oracle.exact_calls": c["oracle.exact"],
            "oracle.exact_states": c["oracle.exact_states"],
            "oracle.exact_s": total("oracle.exact"),
        }
        m["oracle.exact_states_per_s"] = per_s(m["oracle.exact_states"], m["oracle.exact_s"])
        for kind in ATTACK_KINDS:
            m["harness.attack_s." + kind] = total("harness.attack." + kind)
            m["harness.attack_calls." + kind] = c["harness.attack." + kind]
        mc_self = sum(
            dur[i] - child[i] for i, s in enumerate(spans) if s[0] == "harness.estimate_error"
        )
        m.update({
            "harness.mc_trials": c["harness.mc_trials"],
            "harness.mc_self_s": mc_self,
            "harness.mc_trials_per_s": per_s(c["harness.mc_trials"], mc_self),
            "harness.exact_queries": c["harness.exact_queries"],
            "harness.mc_queries": c["harness.mc_queries"],
            "harness.ci_s": total("harness.ci"),
            "storage.save_s": total("storage.save"),
            "storage.load_s": total("storage.load"),
            "storage.load_calls": c["storage.load"],
            "storage.bytes": c["storage.bytes"],
            "cli.import_ms": import_ms.get("ecds.cli", 0.0),
            "cli.import_scipy_ms": import_ms.get("scipy.stats", 0.0),
        })
        for cmd in CLI_COMMANDS:
            calls = [dur[i] * 1e3 for i, s in enumerate(spans) if s[0] == "cli." + cmd]
            m["cli.call_ms." + cmd] = statistics.median(calls) if calls else 0.0
        m["bounds.discrepancy_s"] = total("bounds.discrepancy")
        m["trace.overhead_ratio"] = overhead_ratio
        return m

    def span_records(self) -> List[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans
        ]


def leftover_wrappers() -> List[str]:
    """Names of ecds bindings that still hold a benchmark wrapper."""
    found = []
    for mod in _ecds_modules():
        for attr, value in list(vars(mod).items()):
            if getattr(value, _MARK, False):
                found.append("%s.%s" % (mod.__name__, attr))
            if isinstance(value, type):
                for meth, raw in list(vars(value).items()):
                    fn = raw.__func__ if isinstance(raw, classmethod) else raw
                    if getattr(fn, _MARK, False):
                        found.append("%s.%s.%s" % (mod.__name__, attr, meth))
    return found
