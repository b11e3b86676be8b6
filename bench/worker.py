"""One benchmark job in a fresh interpreter.

Usage: python3 bench/worker.py '<job json>' (with src/ on PYTHONPATH;
bench/run.py starts it). The job's timed operations call ubhl's public
functions; everything before the first of them (interpreter start,
imports, parse, typecheck, case build) is set-up. After the timed
operations the worker checks their outputs with bench/checks.py, then
prints one JSON line: the set-up end on the shared monotonic clock, the
timed seconds, peak RSS, operations attempted and failed, the problems
found, and, when traced, the spans and per-layer partial sums.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import inputs  # noqa: E402


class Job:
    """Times operations, counts them, and opens the benchmark's `op:`
    spans when traced."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.timed = 0.0
        self.setup_end = None
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.problems: list[str] = []
        self.facts: dict = {}

    @contextmanager
    def op(self, name: str, expect_failure: tuple = ()):
        """One timed operation. An exception counts the operation as
        failed; `expect_failure` names the exception types of a known
        program fault, which are not reported as errors."""
        if self.setup_end is None:
            self.setup_end = time.perf_counter()
        self.attempted += 1
        sid = self.tracer.open("op:" + name) if self.tracer else None
        t = time.perf_counter()
        try:
            yield
        except expect_failure:
            self.failed += 1
        except Exception:  # a failed operation is counted, not fatal
            self.failed += 1
            self.errors.append(f"{name}: {traceback.format_exc(limit=3)}")
        finally:
            self.timed += time.perf_counter() - t
            if sid is not None:
                self.tracer.close(sid)

    def stop_timing(self) -> float:
        """End of the timed part: checks that follow leave no spans."""
        if self.tracer:
            self.tracer.active = False
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def read_case(case: str) -> tuple[str, str]:
    base = ROOT / "cases" / case
    return (base / "program.ubhl").read_text(), (base / "proof.json").read_text()


# ── check ──


def run_check(job: dict, j: Job) -> float:
    from ubhl import assertions, checker, lang
    from ubhl.lang.ast import IntT
    from ubhl.lang.typecheck import assertion_env

    case, mutant = job["case"], job["mutant"]
    source, proof_text = read_case(case)
    doc = json.loads(proof_text)
    if mutant:
        doc = inputs.MUTANTS[mutant][1](doc)
    program = lang.parse_program(source)
    lang.typecheck(program)
    script = checker.ProofScript.from_json(json.dumps(doc))
    label = mutant or case

    result = None
    with j.op(f"check:{label}"):
        result = checker.check(program, script)
    scripts = []
    if result is not None and job["smtlib"] and result.accepted:
        env = assertion_env(program, script.logicals)
        for name in ("res", "eta", "eta2"):
            env.setdefault(name, IntT())
        for ob in result.undischarged():
            with j.op("smtlib"):
                scripts.append(assertions.emit_smtlib(ob, env))
    rss = j.stop_timing()
    if result is None:
        return rss

    def pretty(e) -> str:
        return lang.pretty_expr(e) if e is not None else ""

    # only implications carry an antecedent and a consequent
    opened = [(ob.rule, list(ob.path), pretty(getattr(ob, "antecedent", None)),
               pretty(getattr(ob, "consequent", None)))
              for ob in result.undischarged()]
    expected = [(list(p), pretty(lang.parse_expr(a)), pretty(lang.parse_expr(c)))
                for p, a, c in checks.script_exports(doc)]
    verdict = {"accepted": result.accepted, "fully_proved": result.fully_proved,
               "open": opened, "expected_open": expected}
    j.problems += checks.check_verdict(label, mutant is not None, case, verdict)
    if job["smtlib"]:
        j.problems += checks.check_smtlib(scripts, len(opened))
    j.facts["trials"] = 1
    if mutant is None:
        j.facts["obligations"] = len(result.obligations)
        j.facts["obligations_proved"] = len(result.obligations) - len(opened)
    elif not result.accepted:
        j.facts["rejected_ops"] = [f"op:check:{label}"]
    return rss


# ── embed ──


def run_embed(job: dict, j: Job) -> float:
    from ubhl import cases, checker, embed, lang
    from ubhl.lang.ast import REAL, Procedure, Program

    source, proof_text = read_case(job["case"])
    program = lang.parse_program(source)
    lang.typecheck(program)
    script = checker.ProofScript.from_json(proof_text)
    case = cases.build_case(job["case"], job["params"])
    entry = script.entry["proc"]

    report = None
    with j.op("embed:crosscheck"):
        report = embed.crosscheck(program, script)
    if report is None or report.triple is None:
        j.stop_timing()
        j.problems.append(f"no embedding produced: {report and report.note}")
        return 0.0
    sites = None
    with j.op("embed:sites"):
        sites, _ = embed.collect_sites(script, program, program.procs[entry].body,
                                       report.triple.ghost)
    ghosts = []
    for i in range(job["ghost_trials"]):
        with j.op("embed:ghost"):
            ghosts.append(embed.run_ghost_trial(
                program, entry, 0, sites, case.logical_env, seed=job["ghost_seed"],
                trial=i, overrides=case.overrides).ghost)
    # the instrumented program, declared as a program of its own: ghost
    # and logical variables become program variables
    main = program.procs[entry]
    procs = dict(program.procs)
    procs[entry] = Procedure(main.name, main.arg, report.instrumented, main.ret)
    decls = dict(program.vars)
    decls.update(script.logicals)
    decls[report.triple.ghost] = REAL
    text = lang.pretty_program(Program(procs, dict(program.externs), decls,
                                       dict(program.extvars)))
    reparsed = None
    with j.op("embed:reparse", expect_failure=(lang.UbhlSyntaxError, lang.UbhlTypeError)):
        again = lang.parse_program(text)
        lang.typecheck(again)
        reparsed = lang.pretty_program(again)
    rss = j.stop_timing()

    beta = Fraction(str(job["params"]["beta"]))
    if script.root.index.strip() != "beta":
        j.problems.append(f"rnm root index is {script.root.index!r}, expected beta")
    j.problems += checks.check_embed({
        "consistent": report.consistent,
        "checker_fully_proved": report.checker_fully_proved,
        "wp_total": report.wp_total, "wp_proved": report.wp_proved,
        "root_index": beta, "ghosts": ghosts,
        "instrumented_text": text, "reparsed": reparsed})
    j.facts["trials"] = len(ghosts)
    j.facts["wp_obligations"] = report.wp_total
    j.facts["wp_proved"] = report.wp_proved
    return rss


# ── validate ──


def run_validate(job: dict, j: Job) -> float:
    from ubhl import cases, lang, semantics

    params = job["params"]
    built = {name: cases.build_case(name, params[name]) for name in params}
    programs = {name: lang.parse_program(c.source) for name, c in built.items()}

    reports = {}
    for run in job["runs"]:
        with j.op(f"validate:{run['label']}"):
            reports[run["label"]] = cases.validate_case(
                run["case"], params[run["case"]], trials=run["trials"], seed=run["seed"],
                adversary=run["adversary"], jobs=1)
    rss = j.stop_timing()

    trials = 0
    for run in job["runs"]:
        rep = reports.get(run["label"])
        if rep is None:
            continue
        trials += rep.estimate.trials
        case = built[run["case"]]
        strategies = {"adv": case.adversary_menu[run["adversary"]]} if run["adversary"] else {}
        samples = []
        for i in run["recheck"]:
            mem = semantics.run_trial(programs[run["case"]], "main", 0, strategies,
                                      run["seed"], i, overrides=case.overrides,
                                      loop_cap=100000)
            again = semantics.run_trial(programs[run["case"]], "main", 0, strategies,
                                        run["seed"], i, overrides=case.overrides,
                                        loop_cap=100000)
            program_bad = bool(semantics.eval_in_memory(case.bad_event, mem,
                                                        case.logical_env))
            own_bad = checks.own_bad_event(run["case"], mem.to_dict(), case.params)
            samples.append((i, program_bad, own_bad, mem == again))
        j.problems += checks.check_validate(run["label"], {
            "trials": rep.estimate.trials, "failures": rep.estimate.failures,
            "index": rep.theorem_index, "params": case.params, "extras": rep.extras,
            "samples": samples})
    j.facts["trials"] = trials
    return rss


# ── exact ──


def run_exact(job: dict, j: Job) -> float:
    from ubhl import cases, lang, semantics
    from ubhl.lang.ast import Call, LValue, NumLit

    call = Call(LValue("res"), "main", NumLit(Fraction(0)))
    prepared = []
    for item in job["items"]:
        if "rnm" in item:
            case = cases.build_case("rnm", item["rnm"])
            program = lang.parse_program(case.source)
            lang.typecheck(program)
            mem = semantics.initial_memory(program, case.overrides)
            bad, env = case.bad_event, case.logical_env
        else:
            program = lang.parse_program(item["source"])
            lang.typecheck(program)
            mem = semantics.initial_memory(program)
            bad, env = lang.parse_expr(item["bad"]), {}
        budget = semantics.Budget(laplace_radius=item.get("radius", 400))
        prepared.append((item, program, mem, bad, env, budget))

    results = []
    for item, program, mem, bad, env, budget in prepared:
        dist = upper = None
        with j.op(f"exact:{item['label']}"):
            dist = semantics.denote_exact(program, call, mem, budget)
        if dist is not None:
            with j.op(f"exact-bad:{item['label']}"):
                upper = dist.prob_upper(
                    lambda m, e=bad, env=env: bool(semantics.eval_in_memory(e, m, env)))
        results.append((item, dist, upper))
    rss = j.stop_timing()

    support = 0
    for item, dist, upper in results:
        if dist is None or upper is None:
            continue
        label = item["label"]
        support += len(dist.support)
        mems = [m.to_dict() for m in dist.support]
        masses = list(dist.support.values())
        j.problems += checks.check_total_mass(label, masses, dist.residual)
        if any(m.error for m in dist.support):
            j.problems.append(f"{label}: runtime error mass")
        if "rnm" in item:
            p = item["rnm"]
            if upper > Fraction(str(p["beta"])):
                j.problems.append(f"{label}: bad mass + residual {float(upper)} above beta")
            if upper != dist.residual:
                j.problems.append(f"{label}: bad event holds on an enumerated memory")
            if p["size"] == 2:
                win: dict[int, Fraction] = {}
                for m, w in zip(mems, masses):
                    win[m["res"]] = win.get(m["res"], Fraction(0)) + w
                j.problems += checks.check_winners(
                    label, Fraction(str(p["eps"])) / 2, p["qscore"], win, dist.residual)
        elif label == "lap":
            eps = Fraction(item["eps"])
            by_offset = {int(m["x"] - item["mean"]): w for m, w in zip(mems, masses)}
            j.problems += checks.check_lap_masses(label, eps, by_offset)
            j.problems += checks.check_upper_bound(
                label, upper, 2 * checks.geo_greater(eps, 3), dist.residual)
        elif label == "bern":
            p = Fraction(*item["p"])
            got = {m["b"]: w for m, w in zip(mems, masses)}
            if got != {True: p, False: 1 - p} or upper != p:
                j.problems.append(f"bern: masses {got}, Pr[b] bound {upper}, want {p}")
        elif label == "unifint":
            n = item["hi"] - item["lo"] + 1
            got = {m["u"]: w for m, w in zip(mems, masses)}
            if got != {v: Fraction(1, n) for v in range(item["lo"], item["hi"] + 1)} \
                    or upper != Fraction(16, n):
                j.problems.append(f"unifint: masses or Pr[u < lo+16] = {upper} wrong")
    j.facts["trials"] = len(results)
    j.facts["exact_support"] = support
    return rss


def run_warmup(job: dict, j: Job) -> float:
    """Imports every module once, so the checkout's bytecode is cached
    before the first timed pass."""
    import ubhl.cases  # noqa: F401
    import ubhl.cli  # noqa: F401
    import ubhl.embed  # noqa: F401
    return j.stop_timing()


RUNNERS = {"check": run_check, "embed": run_embed, "validate": run_validate,
           "exact": run_exact, "warmup": run_warmup}


def main() -> int:
    job = json.loads(sys.argv[1])
    tracer = None
    if job.get("trace"):
        import tracing
        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    j = Job(tracer)
    rss = RUNNERS[job["kind"]](job, j)
    out = {"setup_end": j.setup_end, "timed_s": j.timed, "rss_mb": rss,
           "attempted": j.attempted, "failed": j.failed, "errors": j.errors,
           "problems": j.problems, "trials": j.facts.pop("trials", 0)}
    if tracer:
        import tracing
        out["spans"] = tracer.spans
        out["missing"] = sorted(tracer.missing)
        out["partials"] = tracing.partials(tracer.spans, tracer.counts, j.facts)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
