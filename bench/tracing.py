"""Spans around the calls into each ubhl layer, installed from outside.

A span is [id, parent id, name, start, end] on the process's monotonic
clock, kept in memory while the worker runs and returned with its
result. Wrappers replace a function in the namespace of the module that
calls it, because ubhl modules import each other's functions by name: a
`checker` -> `assertions.normform.assertions_equal` call goes through
`ubhl.checker.kernel.assertions_equal`, so that is where the wrapper
goes. A target that no longer exists is recorded, and every metric that
needs it is reported as missing instead of failing the run.

A directly recursive call (canon_term calling canon_term) records no
second span, so `assertions.canon` counts the normal-form requests the
other layers make, not the normal form's internal recursion.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

from inputs import VALIDATE_LABELS

# span name -> [(module, attribute path)]; the attribute path names a
# function in that module's namespace, or Class.method
SPAN_TARGETS = {
    "lang.parse": [("ubhl.lang", "parse_program"),
                   ("ubhl.cases.registry", "parse_program")],
    "lang.typecheck": [("ubhl.lang", "typecheck"),
                       ("ubhl.cases.registry", "typecheck")],
    "checker.check": [("ubhl.checker", "check"),
                      ("ubhl.embed.crosscheck", "check")],
    "checker.index": [("ubhl.checker.kernel", "index_equal"),
                      ("ubhl.checker.kernel", "index_leq")],
    "assertions.canon": [("ubhl.assertions.normform", "canon_assertion"),
                         ("ubhl.assertions.normform", "canon_term"),
                         ("ubhl.assertions.normform", "canon_struct"),
                         ("ubhl.assertions.normform", "assertions_equal"),
                         ("ubhl.checker.kernel", "assertions_equal"),
                         ("ubhl.checker.index", "canon_term"),
                         ("ubhl.assertions.prover", "canon_assertion"),
                         ("ubhl.assertions.prover", "canon_struct"),
                         ("ubhl.assertions.prover", "canon_term")],
    "assertions.prover": [("ubhl.assertions.prover", "Prover.prove_implication")],
    "assertions.smtlib": [("ubhl.assertions", "emit_smtlib")],
    "embed.crosscheck": [("ubhl.embed", "crosscheck")],
    "embed.collect_sites": [("ubhl.embed", "collect_sites"),
                            ("ubhl.embed.crosscheck", "collect_sites")],
    "embed.instrument": [("ubhl.embed.crosscheck", "embed")],
    "embed.wp": [("ubhl.embed.crosscheck", "wp")],
    "embed.ghost_trial": [("ubhl.embed", "run_ghost_trial")],
    "cases.build_case": [("ubhl.cases", "build_case"),
                         ("ubhl.cases.registry", "build_case")],
    "cases.validate": [("ubhl.cases", "validate_case")],
    "cases.bad_event": [("ubhl.cases.registry", "eval_in_memory")],
    "cases.adversary": [("ubhl.cases.adversaries", "FixedSequenceAdversary.respond"),
                        ("ubhl.cases.adversaries", "RandomQueryAdversary.respond"),
                        ("ubhl.cases.adversaries", "AdaptiveThresholdAdversary.respond"),
                        ("ubhl.cases.adversaries", "SyntheticGapAdversary.respond")],
    "semantics.trial": [("ubhl.cases.registry", "run_trial")],
    "semantics.clopper_pearson": [("ubhl.cases.registry", "clopper_pearson_upper")],
    "semantics.exact": [("ubhl.semantics", "denote_exact")],
    "semantics.exact_bad_mass": [("ubhl.semantics", "SubDist.prob_upper")],
    "dp.eval_query": [("ubhl.dp.queries", "eval_query"),
                      ("ubhl.dp.mw", "eval_query")],
    "dp.lap_masses": [("ubhl.semantics.exact", "lap_masses_exact")],
}

# counted calls without a span: one per RNG block drawn
COUNT_TARGETS = {
    "semantics.rng_draws": ("ubhl.semantics.rng", "TrialRng._block"),
}

# metric -> (unit, span names or counters it is computed from)
PER_LAYER = {
    "lang.parse_ms": ("ms", ["lang.parse"]),
    "lang.typecheck_ms": ("ms", ["lang.typecheck"]),
    "checker.check_rnm_s": ("s", ["checker.check"]),
    "checker.check_sv_s": ("s", ["checker.check"]),
    "checker.check_mwsv_s": ("s", ["checker.check"]),
    "checker.rules_self_s": ("s", ["checker.check"]),
    "checker.index_s": ("s", ["checker.index"]),
    "checker.reject_ms": ("ms", ["checker.check"]),
    "checker.obligations": ("count", ["checker.check"]),
    "checker.obligations_proved": ("count", ["checker.check"]),
    "assertions.canon_s": ("s", ["assertions.canon"]),
    "assertions.canon_calls": ("count", ["assertions.canon"]),
    "assertions.prover_s": ("s", ["assertions.prover"]),
    "assertions.prover_calls": ("count", ["assertions.prover"]),
    "assertions.prover_proved": ("count", ["assertions.prover"]),
    "assertions.smtlib_ms": ("ms", ["assertions.smtlib"]),
    "embed.collect_sites_ms": ("ms", ["embed.collect_sites"]),
    "embed.instrument_ms": ("ms", ["embed.instrument"]),
    "embed.wp_ms": ("ms", ["embed.wp"]),
    "embed.wp_prover_s": ("s", ["embed.crosscheck", "assertions.prover"]),
    "embed.wp_obligations": ("count", ["embed.crosscheck"]),
    "embed.wp_proved": ("count", ["embed.crosscheck"]),
    "embed.ghost_trial_ms": ("ms", ["embed.ghost_trial"]),
    "cases.build_case_ms": ("ms", ["cases.build_case"]),
    "cases.bad_event_ms": ("ms", ["cases.bad_event"]),
    "cases.adversary_ms": ("ms", ["cases.adversary"]),
    "cases.adversary_calls": ("count", ["cases.adversary"]),
    **{f"semantics.trial_ms.{label}": ("ms", ["semantics.trial"])
       for label in VALIDATE_LABELS},
    "semantics.rng_draws": ("count", ["semantics.rng_draws"]),
    "semantics.clopper_pearson_ms": ("ms", ["semantics.clopper_pearson"]),
    "semantics.exact_s": ("s", ["semantics.exact"]),
    "semantics.exact_support": ("count", ["semantics.exact"]),
    "semantics.exact_bad_mass_s": ("s", ["semantics.exact_bad_mass"]),
    "dp.eval_query_ms": ("ms", ["dp.eval_query"]),
    "dp.eval_query_calls": ("count", ["dp.eval_query"]),
    "dp.lap_masses_ms": ("ms", ["dp.lap_masses"]),
}


class Tracer:
    """Span recorder for one worker process. Records only while
    `active`, so the benchmark's own correctness checks, which call
    into ubhl too, leave no spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.active = False

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active or (tracer.stack
                                     and tracer.spans[tracer.stack[-1]][2] == name):
                return fn(*args, **kwargs)
            sid = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(sid)
            if out is True:
                tracer.counts[name + ".true"] += 1
            return out

        traced.__wrapped__ = fn
        return traced

    def counter(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        for name, targets in SPAN_TARGETS.items():
            for module, attr in targets:
                if not _patch(module, attr, lambda fn, n=name: self.wrap(n, fn)):
                    self.missing.add(name)
        for name, (module, attr) in COUNT_TARGETS.items():
            if not _patch(module, attr, lambda fn, n=name: self.counter(n, fn)):
                self.missing.add(name)


def _patch(module: str, attr: str, make) -> bool:
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return False
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return False
    fn = getattr(owner, leaf, None)
    if not callable(fn):
        return False
    setattr(owner, leaf, make(fn))
    return True


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children
    (single-threaded, so children never overlap)."""
    own = [s[4] - s[3] for s in spans]
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[4] - s[3]
    return own


def ancestor_named(spans: list[list], sid: int, prefix: str):
    """Name of the nearest enclosing span whose name starts with prefix."""
    p = spans[sid][1]
    while p >= 0:
        if spans[p][2].startswith(prefix):
            return spans[p][2]
        p = spans[p][1]
    return None


def partials(spans: list[list], counts: Counter, facts: dict) -> dict:
    """Additive per-process quantities; summed over a pass's processes
    and turned into metrics by `finish`. `facts` carries counts the
    worker read from the program's results, and the names of the
    benchmark's own `op:` spans whose checks ended in rejection."""
    out: Counter = Counter()
    own = self_times(spans)
    rejected_ops = set(facts.get("rejected_ops", ()))
    for sid, span in enumerate(spans):
        name = span[2]
        if name.startswith("op:"):
            continue
        dur = span[4] - span[3]
        out[f"self:{name}"] += own[sid]
        out[f"calls:{name}"] += 1
        if name == "checker.check":
            op = ancestor_named(spans, sid, "op:")
            if op in rejected_ops:
                out["rejected:checker.check"] += dur
            case = op.removeprefix("op:check:") if op else None
            if case in ("rnm", "sv", "mwsv"):
                out[f"case:{case}"] += dur
        elif name == "assertions.prover":
            if spans[span[1]][2] == "embed.crosscheck":
                out["wp:assertions.prover"] += own[sid]
        elif name in ("semantics.trial", "embed.ghost_trial"):
            op = ancestor_named(spans, sid, "op:")
            label = op.split(":")[-1] if op else ""
            out[f"incl:{name}:{label}"] += dur
            out[f"calls:{name}:{label}"] += 1
    for key, n in counts.items():
        out[f"count:{key}"] += n
    for key, n in facts.items():
        if key != "rejected_ops":
            out[f"fact:{key}"] += n
    return dict(out)


def finish(total: dict, missing: set[str]) -> dict:
    """Per-layer metrics of one pass, from partials summed over its
    processes. A metric reads 0 when the workload made no such call."""
    def g(key: str) -> float:
        return total.get(key, 0.0)

    def mean_ms(name: str, label: str) -> float:
        n = g(f"calls:{name}:{label}")
        return 1000.0 * g(f"incl:{name}:{label}") / n if n else 0.0

    values = {
        "lang.parse_ms": 1000 * g("self:lang.parse"),
        "lang.typecheck_ms": 1000 * g("self:lang.typecheck"),
        "checker.check_rnm_s": g("case:rnm"),
        "checker.check_sv_s": g("case:sv"),
        "checker.check_mwsv_s": g("case:mwsv"),
        "checker.rules_self_s": g("self:checker.check"),
        "checker.index_s": g("self:checker.index"),
        "checker.reject_ms": 1000 * g("rejected:checker.check"),
        "checker.obligations": g("fact:obligations"),
        "checker.obligations_proved": g("fact:obligations_proved"),
        "assertions.canon_s": g("self:assertions.canon"),
        "assertions.canon_calls": g("calls:assertions.canon"),
        "assertions.prover_s": g("self:assertions.prover"),
        "assertions.prover_calls": g("calls:assertions.prover"),
        "assertions.prover_proved": g("count:assertions.prover.true"),
        "assertions.smtlib_ms": 1000 * g("self:assertions.smtlib"),
        "embed.collect_sites_ms": 1000 * g("self:embed.collect_sites"),
        "embed.instrument_ms": 1000 * g("self:embed.instrument"),
        "embed.wp_ms": 1000 * g("self:embed.wp"),
        "embed.wp_prover_s": g("wp:assertions.prover"),
        "embed.wp_obligations": g("fact:wp_obligations"),
        "embed.wp_proved": g("fact:wp_proved"),
        "embed.ghost_trial_ms": mean_ms("embed.ghost_trial", "ghost"),
        "cases.build_case_ms": 1000 * g("self:cases.build_case"),
        "cases.bad_event_ms": 1000 * g("self:cases.bad_event"),
        "cases.adversary_ms": 1000 * g("self:cases.adversary"),
        "cases.adversary_calls": g("calls:cases.adversary"),
        **{f"semantics.trial_ms.{label}": mean_ms("semantics.trial", label)
           for label in VALIDATE_LABELS},
        "semantics.rng_draws": g("count:semantics.rng_draws"),
        "semantics.clopper_pearson_ms": 1000 * g("self:semantics.clopper_pearson"),
        "semantics.exact_s": g("self:semantics.exact"),
        "semantics.exact_support": g("fact:exact_support"),
        "semantics.exact_bad_mass_s": g("self:semantics.exact_bad_mass"),
        "dp.eval_query_ms": 1000 * g("self:dp.eval_query"),
        "dp.eval_query_calls": g("calls:dp.eval_query"),
        "dp.lap_masses_ms": 1000 * g("self:dp.lap_masses"),
    }
    out = {}
    for metric, (unit, needs) in PER_LAYER.items():
        if missing.intersection(needs):
            out[metric] = {"value": None, "unit": unit, "missing": True}
        else:
            out[metric] = {"value": values[metric], "unit": unit}
    return out
