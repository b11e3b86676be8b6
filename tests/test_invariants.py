"""Cross-cutting soundness properties tying the static analyses, the
prover, and the runtimes to each other."""

import random
from fractions import Fraction

from ubhl.assertions.normform import NonNumeric
from ubhl.assertions.obligations import Implication, ObStatus
from ubhl.checker.kernel import check
from ubhl.lang.ast import (
    ArrayT, BoolT, DbT, IntT, QueryT, RealT, SetIntT, modified_vars,
)
from ubhl.lang.parser import parse_program
from ubhl.lang.typecheck import assertion_env, typecheck
from ubhl.semantics.evalexpr import eval_expr
from ubhl.semantics.exact import Budget, Enumeration, denote_exact, initial_memory
from ubhl.semantics.trial import run_trial
from ubhl.semantics.values import ArrayVal
from ubhl.dp.queries import Database, Query


def test_modified_vars_overapproximates_runtime_writes():
    """Any variable that differs between input and output memories in
    exact runs must appear in the syntactic write set."""
    sources = [
        """
var x : int;
var y : bool;
var z : int;
proc main(w) {
  x <$ unifint(0, 3);
  if (x > 1) { y <- true; } else { z <- x; }
} return x
""",
        """
var i : int;
var acc : int;
proc bump(v) { acc <- acc + v; } return acc
proc main(w) {
  i <- 0;
  while (i < 3) { i <- i + 1; acc <- bump(i); }
} return acc
""",
    ]
    for src in sources:
        program = parse_program(src)
        typecheck(program)
        body = program.procs["main"].body
        allowed = modified_vars(body, program)
        m0 = initial_memory(program)
        dist = denote_exact(program, body, m0)
        for mem in dist.support:
            if mem.error:
                continue
            for name, before in m0.to_dict().items():
                if mem.get(name) != before:
                    assert name in allowed, f"{name} written but not reported"


def test_external_store_untouched_without_adversary_calls():
    src = """
var x : bool;
extvar hidden : int;
proc main(w) { x <$ bern(1/2); } return x
"""
    program = parse_program(src)
    typecheck(program)
    enum = Enumeration(program, Budget(), {})
    ext0 = (("hidden", 7),)
    outcomes = list(enum.outcomes(program.procs["main"].body, initial_memory(program), ext0))
    # both values of x, each with the external store as it began
    assert {mem.get("x") for mem, _ext, _mass in outcomes} == {True, False}
    assert sum(mass for _mem, _ext, mass in outcomes) == 1
    for _mem, ext, _mass in outcomes:
        assert ext == ext0


def _random_value(t, rng: random.Random):
    if isinstance(t, BoolT):
        return rng.random() < 0.5
    if isinstance(t, IntT):
        return rng.randint(-4, 6)
    if isinstance(t, RealT):
        return Fraction(rng.randint(-40, 40), rng.randint(1, 6))
    if isinstance(t, SetIntT):
        return frozenset(rng.sample(range(0, 6), rng.randint(0, 4)))
    if isinstance(t, ArrayT):
        items = tuple((i, _random_value(t.elem, rng)) for i in range(0, 6))
        return ArrayVal(_random_value(t.elem, rng), items)
    if isinstance(t, QueryT):
        return Query(Fraction(0),
                     tuple(Fraction(rng.randint(0, 8), 8) for _ in range(4)))
    if isinstance(t, DbT):
        return Database(tuple(Fraction(rng.randint(0, 5)) for _ in range(4)))
    raise AssertionError(t)


def test_prover_never_lies_on_shipped_obligations():
    """Sample assignments in bulk: no implication the kernel marked
    proved may have a true antecedent and false consequent."""
    from ubhl.cases.programs import RNM_SOURCE, SV_SOURCE
    from ubhl.cases.proofs import rnm_proof, sv_proof

    rng = random.Random(31337)
    checked = 0
    for source, builder in ((RNM_SOURCE, rnm_proof), (SV_SOURCE, sv_proof)):
        program = parse_program(source)
        typecheck(program)
        script = builder()
        result = check(program, script)
        assert result.accepted
        env = assertion_env(program, script.logicals)
        env.setdefault("eta", IntT())
        proved = [ob for ob in result.obligations
                  if isinstance(ob, Implication)
                  and ob.status == ObStatus.BUILTIN_PROVED][:12]
        for ob in proved:
            names = sorted(set(env) & _free(ob))
            for _ in range(300):
                store = {n: _random_value(env[n], rng) for n in names}
                store.setdefault("res", 0)
                try:
                    if not bool(eval_expr(ob.antecedent, store)):
                        continue
                    assert bool(eval_expr(ob.consequent, store)), \
                        f"{ob.name()} falsified at {store}"
                except Exception as exc:  # partial ops: skip that draw
                    if isinstance(exc, AssertionError):
                        raise
                    continue
            checked += 1
    assert checked >= 12


def _free(ob: Implication):
    from ubhl.lang.ast import free_vars
    return free_vars(ob.antecedent) | free_vars(ob.consequent)


def test_instrumentation_freshness():
    """The ghost name never collides with source variables, even when
    the obvious candidate is taken."""
    from ubhl.embed.instrument import embed
    from ubhl.lang.parser import parse_expr

    src = """
var x_beta : int;
var y : real;
proc main(w) { y <$ lap(1, 0); } return y
"""
    program = parse_program(src)
    typecheck(program)
    from ubhl.embed.instrument import SiteSpec
    sites = {(): SiteSpec(post=parse_expr("true"), index=parse_expr("0"))}
    _, triple = embed(program.procs["main"].body, sites, parse_expr("true"),
                      parse_expr("true"), parse_expr("0"), program)
    assert triple.ghost != "x_beta"


def test_rnm_winner_is_noisy_argmax_per_trial():
    from ubhl.cases.registry import build_case

    case = build_case("rnm")
    program = parse_program(case.source)
    typecheck(program)
    for trial in range(150):
        mem = run_trial(program, "main", 0, {}, seed=77, trial=trial,
                        overrides=case.overrides)
        noisy = mem.get("noisy")
        winner = mem.get("res")
        best = max(case.logical_env["R0"], key=lambda s: noisy.get(s))
        assert noisy.get(winner) == noisy.get(best)


def test_sv_last_answer_matches_threshold_comparison():
    """Per-trial trace check on the final round: the released bit is
    exactly the noisy-answer-vs-noisy-threshold comparison."""
    from ubhl.cases.registry import build_case

    case = build_case("sv", {"Q": 6})
    program = parse_program(case.source)
    typecheck(program)
    menu = case.adversary_menu
    for trial in range(100):
        mem = run_trial(program, "main", 0, {"adv": menu["random"]},
                        seed=5, trial=trial, overrides=case.overrides)
        q_count = mem.get("Qn")
        answered = mem.get("ans").get(q_count)
        assert answered == (mem.get("a") >= mem.get("T"))
