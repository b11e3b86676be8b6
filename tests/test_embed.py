"""Ghost-code embedding, WP generation, and the pipeline cross-check."""

from fractions import Fraction

import pytest

from ubhl.assertions.normform import assertions_equal
from ubhl.assertions.prover import Prover
from ubhl.cases.registry import case_proof, case_source
from ubhl.checker.index import index_eval
from ubhl.checker.kernel import check
from ubhl.checker.proof import ProofNode, ProofScript
from ubhl.embed.crosscheck import collect_sites, crosscheck
from ubhl.embed.instrument import MissingAxiomAssignment, SiteSpec, embed
from ubhl.embed.runtime import run_ghost_trial
from ubhl.embed.wp import MissingInvariant, wp
from ubhl.lang.ast import (
    Assign, Assume, Call, ExtCall, GhostAdd, Havoc, If, LValue, Quant, QueryT,
    REAL, Sample, Seq, Skip, SortDom, While, free_vars, subterms,
)
from ubhl.lang.parser import parse_expr, parse_program
from ubhl.lang.typecheck import assertion_env, typecheck
from ubhl.semantics.rng import TrialRng
from ubhl.semantics.trial import CompiledProgram, RunState, TrialAborted, run_trial

from corpus import generate_corpus


def node(rule, pre, post, index, children=(), **ann):
    return ProofNode(rule, pre, post, index, list(children), dict(ann))


ONE_LAP = parse_program("""
var x : real;
proc main(w) { x <$ lap(1, 0); } return x
""")
TWO_LAP = parse_program("""
var x : real;
var y : real;
proc main(w) { x <$ lap(1, 0); y <$ lap(2, 1); } return y
""")
for _p in (ONE_LAP, TWO_LAP):
    typecheck(_p)


def lap_script(program, sites, posts, total):
    """Straight-line chain of lap_acc applications with frames."""
    nodes = []
    prefix = []
    for (target, iota), post in zip(sites, posts):
        pre = " && ".join(prefix) if prefix else "true"
        if prefix:
            frame = " && ".join(prefix)
            nodes.append(node("rand", pre, f"({post}) && {frame}", iota,
                              schema="lap_acc", site_index=iota, frame=frame))
        else:
            nodes.append(node("rand", "true", post, iota,
                              schema="lap_acc", site_index=iota))
        prefix.append(f"({post})")
    seq = nodes[-1]
    for left in reversed(nodes[:-1]):
        seq = node("seq", left.pre, seq.post, f"({left.index}) + ({seq.index})",
                   [left, seq])
    conj = " && ".join(prefix)
    root = node("call", "true", conj, total, [
        node("weak", "true", conj, total, [seq])],
        proc="main", callee_pre="true", callee_post=conj)
    return ProofScript({}, {"proc": "main", "arg": "0", "result": "res"}, root)


SINGLE_SITE_POST = "abs(x - 0) <= (1/1)*log(1/(1/10)) + 1"
ONE_LAP_SCRIPT = lap_script(ONE_LAP, [("x", "1/10")], [SINGLE_SITE_POST], "1/10")
TWO_LAP_SCRIPT = lap_script(
    TWO_LAP, [("x", "1/10"), ("y", "1/20")],
    [SINGLE_SITE_POST, "abs(y - 1) <= (1/2)*log(1/(1/20)) + 1"],
    "(1/10) + (1/20)")


def test_embed_skip_triple():
    instrumented, triple = embed(Skip(), {}, parse_expr("x > 0"),
                                 parse_expr("x > 0"), parse_expr("0"))
    assert isinstance(instrumented, Skip)
    assert assertions_equal(triple.pre_full(),
                            parse_expr(f"x > 0 && {triple.ghost} == 0"))
    assert assertions_equal(triple.post_full(),
                            parse_expr(f"x > 0 && {triple.ghost} <= 0"))


def test_embed_single_site_structure():
    sites = {(): SiteSpec(post=parse_expr(SINGLE_SITE_POST),
                          index=parse_expr("1/10"))}
    instrumented, triple = embed(ONE_LAP.procs["main"].body, sites,
                                 parse_expr("true"), parse_expr("true"),
                                 parse_expr("1/10"), ONE_LAP)
    assert isinstance(instrumented, Seq)
    assert isinstance(instrumented.first, Havoc)
    assert isinstance(instrumented.second.first, Assume)
    assert isinstance(instrumented.second.second, GhostAdd)


def test_embed_missing_site_raises():
    with pytest.raises(MissingAxiomAssignment):
        embed(ONE_LAP.procs["main"].body, {}, parse_expr("true"),
              parse_expr("true"), parse_expr("0"), ONE_LAP)


def test_wp_examples():
    env = {"x": REAL}
    from ubhl.lang.ast import Assign, LValue, NumLit
    r = wp(Assign(LValue("x"), NumLit(Fraction(1))), parse_expr("x == 1"), env)
    assert assertions_equal(r.pre, parse_expr("1 == 1"))
    havoc_then_assume = Seq(Havoc(LValue("x")),
                            Assume(parse_expr("x > 0")))
    r2 = wp(havoc_then_assume, parse_expr("x > 0"), env)
    assert Prover({"x": REAL}).prove(r2.pre)


def test_wp_needs_invariants():
    p = parse_program("""
var i : int;
proc main(w) { while (i < 3) { i <- i + 1; } } return i
""")
    typecheck(p)
    with pytest.raises(MissingInvariant):
        wp(p.procs["main"].body, parse_expr("i >= 3"), assertion_env(p))


def _commands(c):
    yield c
    for sub in {Seq: ("first", "second"), If: ("then", "els"), While: ("body",)}.get(
            type(c), ()):
        yield from _commands(getattr(c, sub))


def test_sv_embedding_inlines_calls_and_quantifies_the_adversary():
    """sv samples inside the procedures it calls and asks the adversary
    through an external call; the embedding and WP steps of
    `crosscheck`, run without the prover."""
    program = parse_program(case_source("sv"))
    typecheck(program)
    script = case_proof("sv")
    body = program.procs["main"].body
    sites, invariants = collect_sites(script, program, body, "x_beta")
    # one site in svinit (T) and one in svstep (a)
    assert sorted(sorted(free_vars(s.post) & {"T", "a"}) for s in sites.values()) \
        == [["T"], ["a"]]

    instrumented, triple = embed(body, sites, parse_expr(script.root.pre),
                                 parse_expr("true"), parse_expr(script.root.index),
                                 program, ghost="x_beta")
    inlined = list(_commands(instrumented))
    assert not [c for c in inlined if isinstance(c, (Sample, Call))]
    calls = [c for c in _commands(body) if isinstance(c, Call)]
    assert [c.proc for c in calls] == ["svinit", "svstep"]
    for call in calls:
        callee = program.procs[call.proc]
        # argument assignment, the instrumented body, the return
        [site] = [c for c in inlined if isinstance(c, Seq)
                  and c.first == Assign(LValue(callee.arg), call.arg)]
        assert site.second.second == Assign(call.target, callee.ret)
        assert [c for c in _commands(site.second.first) if isinstance(c, Havoc)]

    env = dict(assertion_env(program, script.logicals), x_beta=REAL)
    res = wp(instrumented, triple.post_full(), env, invariants)
    [keep] = [ob for ob in res.obligations if ob.note == "invariant preservation"]
    assert [c for c in inlined if isinstance(c, ExtCall)]
    assert any(isinstance(x, Quant) and x.dom == SortDom(QueryT())
               for x in subterms(keep.consequent))


def _wp_all_proved(program, script):
    report = crosscheck(program, script)
    return report


def test_single_lap_embedding_discharges():
    res = check(ONE_LAP, ONE_LAP_SCRIPT)
    assert res.accepted and res.fully_proved
    report = crosscheck(ONE_LAP, ONE_LAP_SCRIPT, res)
    assert report.wp_all_proved and report.consistent


def test_two_lap_ghost_sum():
    res = check(TWO_LAP, TWO_LAP_SCRIPT)
    assert res.accepted and res.fully_proved
    report = crosscheck(TWO_LAP, TWO_LAP_SCRIPT, res)
    assert report.wp_all_proved and report.consistent
    # runtime ghost equals the root index on every (unfiltered) path
    sites, _ = collect_sites(TWO_LAP_SCRIPT, TWO_LAP,
                             TWO_LAP.procs["main"].body, "x_beta")
    beta = index_eval(parse_expr(TWO_LAP_SCRIPT.root.index), {})
    core = CompiledProgram(TWO_LAP, sites, {})
    for trial in range(50):
        out = run_ghost_trial(core, "main", 0, sites, {}, seed=3, trial=trial)
        assert float(out.ghost) == pytest.approx(beta)
        assert len(out.executed_sites) == 2


COUNTER = parse_program("""
var i : int;
proc main(w) { i <- 0; while (i < 10) { i <- i + 1; } } return i
""")
typecheck(COUNTER)


def test_ghost_loop_cap_aborts_like_trial():
    """Loop-cap overflow is a TrialAborted on the ghost path, as on the
    trial path, so both classify it the same way."""
    with pytest.raises(TrialAborted):
        run_trial(COUNTER, "main", 0, {}, seed=1, loop_cap=3)
    ghost_core = CompiledProgram(COUNTER, sites={}, logical_env={})
    with pytest.raises(TrialAborted):
        ghost_core.execute("main", 0, RunState(TrialRng(1, 0), {}, loop_cap=3))
    out = run_ghost_trial(COUNTER, "main", 0, {}, {}, seed=1)
    assert out.memory.get("res") == 10 and out.ghost == 0


def _has_loop(command) -> bool:
    from ubhl.lang.ast import If, Seq, While

    if isinstance(command, While):
        return True
    if isinstance(command, Seq):
        return _has_loop(command.first) or _has_loop(command.second)
    if isinstance(command, If):
        return _has_loop(command.then) or _has_loop(command.els)
    return False


def test_straight_line_corpus_equivalence():
    """Derivation-checker acceptance travels with WP dischargeability,
    and mutated indices break both pipelines."""
    corpus = [c for c in generate_corpus()
              if not _has_loop(c[0].procs["main"].body)]
    checked = 0
    for program, script, params in corpus[:6]:
        res = check(program, script)
        if not res.accepted:
            continue
        report = crosscheck(program, script, res)
        assert report.consistent
        assert report.wp_all_proved == res.fully_proved
        checked += 1
    assert checked >= 4


def test_rnm_cross_check_consistent():
    from ubhl.cases.programs import RNM_SOURCE
    from ubhl.cases.proofs import rnm_proof

    program = parse_program(RNM_SOURCE)
    typecheck(program)
    script = rnm_proof()
    res = check(program, script)
    assert res.accepted and res.fully_proved
    report = crosscheck(program, script, res)
    assert report.wp_all_proved
    assert report.consistent


def test_rnm_invariant_preservation_is_proved_in_few_nodes(monkeypatch):
    """rnm's WP obligation `forall v . A ==> ((B ==> C) && (!B ==> D))`
    takes 732 nodes when each antecedent is refuted before its
    consequent is proved."""
    from ubhl.cases.programs import RNM_SOURCE
    from ubhl.cases.proofs import rnm_proof

    calls = []
    prove = Prover.prove_implication

    def recorded(self, antecedent, consequent):
        verdict = prove(self, antecedent, consequent)
        calls.append((antecedent, verdict, self.nodes))
        return verdict

    monkeypatch.setattr(Prover, "prove_implication", recorded)
    program = parse_program(RNM_SOURCE)
    typecheck(program)
    report = crosscheck(program, rnm_proof())
    [ob] = [ob for ob in report.obligations if ob.note == "invariant preservation"]
    [(verdict, nodes)] = [(v, n) for a, v, n in calls if a is ob.antecedent]
    assert verdict and nodes <= 250, nodes


def test_lowered_index_breaks_both_pipelines():
    bad = lap_script(ONE_LAP, [("x", "1/10")], [SINGLE_SITE_POST], "1/20")
    res = check(ONE_LAP, bad)
    assert not res.accepted
    report = crosscheck(ONE_LAP, bad, res)
    assert report.consistent  # both pipelines reject together


def test_ghost_conservation_under_filtering():
    sites, _ = collect_sites(ONE_LAP_SCRIPT, ONE_LAP,
                             ONE_LAP.procs["main"].body, "x_beta")
    filtered = 0
    core = CompiledProgram(ONE_LAP, sites, {})
    for trial in range(400):
        out = run_ghost_trial(core, "main", 0, sites, {}, seed=17, trial=trial)
        assert out.ghost == Fraction(1, 10)
        filtered += out.filtered
    # the assumed fact fails with probability about 1/10
    assert 10 <= filtered <= 80


def test_reused_ghost_core_matches_a_fresh_one():
    """A ghost trial is the same whether its core is compiled for it or
    reused from earlier trials."""
    sites, _ = collect_sites(TWO_LAP_SCRIPT, TWO_LAP,
                             TWO_LAP.procs["main"].body, "x_beta")
    core = CompiledProgram(TWO_LAP, sites, {})
    for trial in range(50):
        fresh = run_ghost_trial(TWO_LAP, "main", 0, sites, {}, seed=5, trial=trial)
        assert run_ghost_trial(core, "main", 0, sites, {}, seed=5, trial=trial) == fresh
