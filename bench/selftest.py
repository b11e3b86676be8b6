"""The checks can fail: each workload's check must reject a planted
wrong answer and pass the real one it was planted in.

    python3 bench/run.py --self-check

Runs in about ten seconds: small real outputs of each layer, then the
same outputs with one answer made wrong. Exits 1 when a check passes a
wrong answer or rejects a right one.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

import checks  # noqa: E402
import inputs  # noqa: E402
import tracing  # noqa: E402


class Verdicts:
    def __init__(self):
        self.wrong: list[str] = []

    def clean(self, name: str, problems: list[str]) -> None:
        print(f"{'ok ' if not problems else 'BAD'} real output passes: {name}")
        if problems:
            self.wrong.append(f"{name}: real output rejected: {problems}")

    def planted(self, name: str, problems: list[str]) -> None:
        print(f"{'ok ' if problems else 'BAD'} planted answer rejected: {name}")
        if not problems:
            self.wrong.append(f"{name}: planted wrong answer passed")


def check_workload(v: Verdicts) -> None:
    from ubhl import checker, lang

    source = (ROOT / "cases" / "rnm" / "program.ubhl").read_text()
    doc = json.loads((ROOT / "cases" / "rnm" / "proof.json").read_text())
    program = lang.parse_program(source)
    lang.typecheck(program)

    def verdict(d: dict) -> dict:
        res = checker.check(program, checker.ProofScript.from_json(json.dumps(d)))
        return {"accepted": res.accepted, "fully_proved": res.fully_proved,
                "open": [], "expected_open": []}

    mutant = inputs.MUTANTS["rnm-margin-tightened"][1](copy.deepcopy(doc))
    v.clean("check: a mutant fails to verify",
            checks.check_verdict("rnm-margin-tightened", True, "rnm", verdict(mutant)))
    # the unmutated script, presented as a mutant, verifies
    v.planted("check: a mutant expected to verify",
              checks.check_verdict("rnm-unmutated", True, "rnm", verdict(doc)))

    mwsv = json.loads((ROOT / "cases" / "mwsv" / "proof.json").read_text())
    marks = [(list(p), a, c) for p, a, c in checks.script_exports(mwsv)]
    opened = [("weak",) + m for m in marks]
    v.clean("check: mwsv open obligations match the export marks",
            checks.check_verdict("mwsv", False, "mwsv",
                                 {"accepted": True, "fully_proved": False,
                                  "open": opened, "expected_open": marks}))
    v.planted("check: an open obligation the script did not mark",
              checks.check_verdict("mwsv", False, "mwsv",
                                   {"accepted": True, "fully_proved": False,
                                    "open": opened + [("while", ["b"], "x", "y")],
                                    "expected_open": marks}))
    good = "(set-logic ALL)\n(declare-const x Int)\n(assert (> x 0))\n(check-sat)\n"
    v.clean("check: SMT-LIB script", checks.check_smtlib([good], 1))
    v.planted("check: SMT-LIB script without (check-sat)",
              checks.check_smtlib([good.replace("(check-sat)\n", "")], 1))


def embed_workload(v: Verdicts) -> None:
    from ubhl import cases, checker, embed, lang

    source = (ROOT / "cases" / "rnm" / "program.ubhl").read_text()
    script = checker.ProofScript.from_json(
        (ROOT / "cases" / "rnm" / "proof.json").read_text())
    program = lang.parse_program(source)
    case = cases.build_case("rnm", inputs.RNM_PARAMS)
    sites, _ = embed.collect_sites(script, program, program.procs["main"].body, "x_beta")
    ghosts = [embed.run_ghost_trial(program, "main", 0, sites, case.logical_env, seed=3,
                                    trial=i, overrides=case.overrides).ghost
              for i in range(5)]
    out = {"consistent": True, "checker_fully_proved": True, "wp_total": 3,
           "wp_proved": 3, "root_index": Fraction(1, 5), "ghosts": ghosts,
           "instrumented_text": "t", "reparsed": None}
    v.clean("embed: ghost trials end at the root index", checks.check_embed(out))
    v.planted("embed: a ghost off the root index",
              checks.check_embed(dict(out, ghosts=ghosts[:-1] + [ghosts[-1] - Fraction(1, 100)])))


def validate_workload(v: Verdicts) -> None:
    from ubhl import cases, lang, semantics

    params = inputs.RNM_PARAMS
    rep = cases.validate_case("rnm", params, trials=50, seed=5)
    case = cases.build_case("rnm", params)
    program = lang.parse_program(case.source)
    samples = []
    for i in (0, 1):
        mem = semantics.run_trial(program, "main", 0, {}, 5, i, overrides=case.overrides)
        again = semantics.run_trial(program, "main", 0, {}, 5, i, overrides=case.overrides)
        samples.append((i, bool(semantics.eval_in_memory(case.bad_event, mem,
                                                         case.logical_env)),
                        checks.own_bad_event("rnm", mem.to_dict(), case.params),
                        mem == again))
    out = {"trials": rep.estimate.trials, "failures": rep.estimate.failures,
           "index": rep.theorem_index, "params": case.params, "extras": rep.extras,
           "samples": samples}
    v.clean("validate: rnm rate and re-checked trials", checks.check_validate("rnm", out))
    rate = rep.estimate.failures / rep.estimate.trials
    v.planted("validate: index lowered below the observed rate",
              checks.check_validate("rnm", dict(out, index=rate - 0.01)))
    flipped = [(i, not bad, own, same) for i, bad, own, same in samples]
    v.planted("validate: the program's bad event disagrees with the recomputed one",
              checks.check_validate("rnm", dict(out, samples=flipped)))


def exact_workload(v: Verdicts) -> None:
    from ubhl import lang, semantics
    from ubhl.lang.ast import Call, LValue, NumLit

    program = lang.parse_program("var x : real;\nproc main(w) {\n  x <$ lap(1, 0);\n} return 0")
    lang.typecheck(program)
    dist = semantics.denote_exact(program, Call(LValue("res"), "main", NumLit(Fraction(0))),
                                  semantics.initial_memory(program),
                                  semantics.Budget(laplace_radius=60))
    by_offset = {int(m.to_dict()["x"]): w for m, w in dist.support.items()}
    eps = Fraction(1)
    v.clean("exact: lap masses under the pmf", checks.check_lap_masses("lap", eps, by_offset))
    perturbed = dict(by_offset)
    perturbed[2] += Fraction(1, 10 ** 45)
    v.planted("exact: a lap mass above the pmf",
              checks.check_lap_masses("lap", eps, perturbed))
    masses = list(dist.support.values())
    v.clean("exact: mass plus residual is 1",
            checks.check_total_mass("lap", masses, dist.residual))
    v.planted("exact: a dropped memory",
              checks.check_total_mass("lap", masses[1:], dist.residual))
    win = {0: Fraction(1, 2), 1: Fraction(1, 2)}
    v.planted("exact: noisy-max winners at even odds despite unequal scores",
              checks.check_winners("rnm-2", Fraction(1, 2), [0, 3], win, Fraction(0)))


def tracing_missing(v: Verdicts) -> None:
    """A wrapper whose target is gone marks its metrics missing."""
    t = tracing.Tracer()
    found = tracing._patch("ubhl.lang", "no_such_function", lambda fn: fn)
    if not found:
        t.missing.add("lang.parse")
    metrics = tracing.finish({}, t.missing)
    problems = [] if metrics["lang.parse_ms"].get("missing") else ["not marked missing"]
    problems += ["a metric with its target marked missing"
                 for m in ("lang.typecheck_ms", "assertions.canon_s")
                 if metrics[m].get("missing")]
    v.clean("tracing: a lost target reports its metric missing", problems)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    v = Verdicts()
    for part in (check_workload, embed_workload, validate_workload, exact_workload,
                 tracing_missing):
        part(v)
    for line in v.wrong:
        print(line, file=sys.stderr)
    return 1 if v.wrong else 0
