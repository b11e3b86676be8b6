"""Case-study registry: building, checking and validating the shipped
mechanisms at concrete parameters."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .. import CASE_NAMES
from ..assertions.prover import conjuncts, neg
from ..checker.kernel import CheckResult, check
from ..checker.proof import ProofScript
from ..dp.laplace import lap_tail
from ..dp.mw import solve_feasible_alpha
from ..dp.queries import Database
from ..lang.ast import Expr, free_vars, pretty_expr
from ..lang.parser import parse_expr, parse_program
from ..lang.typecheck import typecheck
from ..semantics.commands import AdversaryStrategy
from ..semantics.evalexpr import UbhlRuntimeError, compile_expr, eval_expr, eval_in_memory
from ..semantics.trial import (
    Classifier, CompiledProgram, EstimateReport, TrialAborted, clopper_pearson_upper,
    run_chunked, run_trial,
)
from ..semantics.values import ArrayVal, Value
from . import adversaries as adv
from .programs import MWSV_SOURCE, RNM_SOURCE, SV_SOURCE
from .proofs import mwsv_proof, mwsv_theorem, rnm_proof, rnm_theorem, sv_proof, sv_theorem


class PreconditionViolated(ValueError):
    pass


@dataclass
class CaseStudy:
    name: str
    source: str
    bad_event: Expr
    index: Expr
    params: dict
    overrides: dict[str, Value]
    logical_env: dict[str, Value]
    adversary_menu: dict[str, AdversaryStrategy] = field(default_factory=dict)
    extra_checks: dict[str, str] = field(default_factory=dict)  # per-trial, counted by name


@dataclass
class ValidationReport:
    case: str
    params: dict
    adversary: Optional[str]
    estimate: EstimateReport
    theorem_index: float
    verdict: bool
    extras: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "case": self.case,
            "params": self.params,
            "adversary": self.adversary,
            "estimate": json.loads(self.estimate.to_json()),
            "theorem_index": self.theorem_index,
            "verdict": self.verdict,
            "extras": self.extras,
        }, sort_keys=True, indent=1)


_SOURCES = {"rnm": RNM_SOURCE, "sv": SV_SOURCE, "mwsv": MWSV_SOURCE}
_PROOFS = {"rnm": rnm_proof, "sv": sv_proof, "mwsv": mwsv_proof}

DEFAULT_PARAMS = {
    "rnm": {"size": 10, "eps": 1.0, "beta": 0.2},
    "sv": {"Q": 20, "eps": 1.0, "beta": 0.2, "threshold": 3.0,
           "universe": 8, "counts": [2, 1, 0, 1, 0, 1, 0, 1]},
    "mwsv": {"Q": 10, "eps": 40.0, "beta": 0.25, "universe": 8, "n": 6,
             "counts": [3, 1, 0, 0, 1, 0, 1, 0]},
}


def case_source(name: str) -> str:
    return _SOURCES[name]


def case_proof(name: str) -> ProofScript:
    return _PROOFS[name]()


def build_case(name: str, params: Optional[dict] = None) -> CaseStudy:
    if name not in CASE_NAMES:
        raise KeyError(f"unknown case {name!r}")
    p = dict(DEFAULT_PARAMS[name])
    p.update(params or {})
    if name != "rnm" and int(p["universe"]) != len(p["counts"]):
        raise PreconditionViolated(
            f"{name}: universe {p['universe']} but {len(p['counts'])} database counts")
    if name == "rnm":
        return _build_rnm(p)
    if name == "sv":
        return _build_sv(p)
    return _build_mwsv(p)


def _frac(x) -> Fraction:
    return Fraction(str(x)) if isinstance(x, float) else Fraction(x)


def _require(name: str, pre: str, store: dict[str, Value], skip: str = "") -> None:
    """Raise PreconditionViolated on the first conjunct of `pre` that fails
    at `store`, leaving out those that mention `skip`."""
    for part in (c for c in conjuncts(parse_expr(pre)) if skip not in free_vars(c)):
        try:
            holds = bool(eval_expr(part, store))
        except UbhlRuntimeError:
            holds = False
        if not holds:
            raise PreconditionViolated(f"{name}: the theorem needs {pretty_expr(part)}")


def _case(name: str, theorem: tuple[str, str, str], params: dict,
          overrides: dict[str, Value], logical_env: dict[str, Value],
          menu: dict[str, AdversaryStrategy], extra_checks: Optional[dict] = None) -> CaseStudy:
    """The case at concrete parameters, read off its theorem (pre, post,
    index): the parameters must satisfy pre, and validation estimates
    the probability of not post against index."""
    pre, post, index = theorem
    _require(name, pre, {**logical_env, **overrides})
    return CaseStudy(
        name=name, source=_SOURCES[name], bad_event=neg(parse_expr(post)),
        index=parse_expr(index), params=params, overrides=overrides,
        logical_env=logical_env, adversary_menu=menu, extra_checks=extra_checks or {})


def _build_rnm(p: dict) -> CaseStudy:
    size = int(p["size"])
    candidates = frozenset(range(size))
    qscore = p.get("qscore", list(range(size)))
    if len(qscore) != size:
        raise PreconditionViolated(f"rnm: size {size} but {len(qscore)} query scores")
    table = ArrayVal(Fraction(0), tuple((i, _frac(v)) for i, v in enumerate(qscore)))
    overrides = {"R": candidates, "eps": _frac(p["eps"]), "qscore": table}
    logical_env = {"beta": _frac(p["beta"]), "R0": candidates}
    return _case("rnm", rnm_theorem(), p, overrides, logical_env, {})


def _build_sv(p: dict) -> CaseStudy:
    q_count = int(p["Q"])
    counts = tuple(_frac(c) for c in p["counts"])
    overrides = {"Qn": q_count, "epsin": _frac(p["eps"]), "tin": _frac(p["threshold"]),
                 "d": Database(counts)}
    logical_env = {"beta": _frac(p["beta"]), "Q": q_count}
    return _case("sv", sv_theorem(), p, overrides, logical_env,
                 adv.sv_menu(int(p["universe"]), counts))


def _build_mwsv(p: dict) -> CaseStudy:
    q_count = int(p["Q"])
    eps = float(p["eps"])
    beta = float(p["beta"])
    universe = int(p["universe"])
    n = int(p["n"])
    overrides = {
        "Qn": q_count, "eps": _frac(eps), "X": universe, "n": n,
        "d": Database(tuple(_frac(c) for c in p["counts"])),
    }
    logical_env = {"beta": _frac(beta), "Q": q_count}
    _require("mwsv", mwsv_theorem()[0], {**logical_env, **overrides}, skip="alpha")
    if p.get("alpha") is None:
        p = {**p, "alpha": solve_feasible_alpha(eps, q_count, universe, n, beta)}
    overrides["alpha"] = _frac(p["alpha"])
    return _case("mwsv", mwsv_theorem(), p, overrides, logical_env,
                 adv.mwsv_menu(universe), {"update_budget_violations": "u > c"})


def check_case(name: str, prover_budget: int = 60000) -> CheckResult:
    program = parse_program(case_source(name))
    typecheck(program)
    return check(program, case_proof(name), prover_budget=prover_budget)


def rnm_analytic_bound(params: Optional[dict] = None) -> float:
    """Sum of per-candidate tail bounds at the theorem's radius; a
    tighter ceiling than the headline index."""
    p = dict(DEFAULT_PARAMS["rnm"])
    p.update(params or {})
    size = int(p["size"])
    eps = float(p["eps"])
    beta = float(p["beta"])
    radius = (2.0 / eps) * math.log(size / beta) + 1
    return size * lap_tail(eps / 2.0, radius)


def _case_classifier(spec) -> Classifier:
    """Per-trial classifier of a validation run: key 0 when the bad
    event holds, key j when the j-th extra check holds, and every key
    when the trial aborts or fails at runtime. Trials and checks go
    through this module's `run_trial` and `eval_in_memory`, the names
    `bench/tracing.py` wraps to time them."""
    program, strategies, overrides, logical_env, checks, seed, loop_cap = spec
    core = CompiledProgram(program)
    codes = [(j, compile_expr(e)) for j, e in enumerate(checks)]
    every = [j for j, _ in codes]

    def classify(i):
        try:
            mem = run_trial(core, "main", 0, strategies, seed, i,
                            overrides=overrides, loop_cap=loop_cap)
            return [j for j, code in codes
                    if bool(eval_in_memory(code, mem, logical_env))]
        except (TrialAborted, UbhlRuntimeError):
            return every
    return classify


def validate_case(name: str, params: Optional[dict] = None, trials: int = 1000,
                  seed: int = 0, adversary: Optional[str] = None,
                  extra_checks: Optional[dict[str, str]] = None,
                  loop_cap: int = 100000, jobs: int = 1) -> ValidationReport:
    """Monte Carlo estimate of the theorem's bad event, plus optional
    per-trial trace checks (an aborted trial counts as failing all).
    Trials are independent, so they chunk across processes; counts add."""
    case = build_case(name, params)
    program = parse_program(case.source)
    typecheck(program)
    menu = case.adversary_menu
    adv_name = adversary
    strategies: dict[str, AdversaryStrategy] = {}
    if menu:
        adv_name = adversary or "fixed"
        if adv_name not in menu:
            raise KeyError(f"case {name!r} has no adversary {adv_name!r}")
        strategies = {"adv": menu[adv_name]}
    extras = {**case.extra_checks, **(extra_checks or {})}
    checks = [case.bad_event] + [parse_expr(v) for v in extras.values()]
    counts = run_chunked(_case_classifier,
                         (program, strategies, case.overrides, case.logical_env,
                          checks, seed, loop_cap), trials, jobs)
    failures = counts[0]
    rate = failures / trials
    estimate = EstimateReport(
        trials=trials, failures=failures, failure_rate=rate,
        clopper_pearson_upper_95=clopper_pearson_upper(failures, trials),
        seed=seed,
        params={k: str(v) for k, v in case.params.items()})
    from ..checker.index import index_eval
    theorem_index = index_eval(case.index, case.logical_env)
    return ValidationReport(
        case=name, params=case.params, adversary=adv_name,
        estimate=estimate, theorem_index=theorem_index,
        verdict=rate <= theorem_index,
        extras={key: counts[j] for j, key in enumerate(extras, 1)})
