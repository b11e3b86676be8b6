"""Kernel soundness against the exact evaluator.

Every accepted, fully-discharged derivation in the generated corpus
must satisfy mass(not post) + residual <= index + 1e-9 under exact
evaluation, and acceptance must be monotone under index weakening.
"""

from fractions import Fraction

from ubhl.assertions.prover import neg
from ubhl.checker.index import index_eval
from ubhl.checker.kernel import check
from ubhl.checker.proof import ProofNode, ProofScript
from ubhl.lang.ast import Call, LValue, NumLit
from ubhl.lang.parser import parse_expr, parse_program
from ubhl.lang.typecheck import typecheck
from ubhl.semantics.evalexpr import eval_in_memory
from ubhl.semantics.exact import denote_exact, initial_memory

from corpus import generate_corpus

CORPUS = generate_corpus()


def exact_bad_mass(program, post_text: str) -> float:
    cmd = Call(LValue("res"), "main", NumLit(Fraction(0)))
    dist = denote_exact(program, cmd, initial_memory(program).set("res", 0))
    bad = neg(parse_expr(post_text))
    return float(dist.prob_upper(lambda m: bool(eval_in_memory(bad, m))))


def test_corpus_size():
    assert len(CORPUS) >= 20


def test_generated_proofs_accepted_and_sound():
    for i, (program, script, params) in enumerate(CORPUS):
        typecheck(program)
        res = check(program, script)
        assert res.accepted, f"[{i}] {res.summary()}"
        assert res.fully_proved, f"[{i}] open obligations"
        beta = index_eval(parse_expr(script.root.index), {})
        mass = exact_bad_mass(program, params["post"])
        assert mass <= beta + 1e-9, f"[{i}] mass {mass} > index {beta}"


def test_weak_monotonicity():
    """Re-rooting an accepted tree under a looser index still checks."""
    program, script, params = CORPUS[0]
    root = script.root
    looser = ProofNode("weak", root.pre, root.post, f"({root.index}) + 1/100",
                       [root])
    new_script = ProofScript(script.logicals, script.entry, looser)
    res = check(program, new_script)
    assert res.accepted and res.fully_proved


def test_finite_exact_rejects_bern_parameter_above_one():
    """bern(3/2) is no distribution: enumerating it would give a failure
    mass of -1/2, below any index, so the site must be rejected."""
    program = parse_program("var x0 : bool;\nproc main(u) { x0 <$ bern(3/2); } return x0")
    typecheck(program)
    root = ProofNode("call", "true", "res == true", "0", [
        ProofNode("rand", "true", "x0 == true", "0", [],
                  {"schema": "finite_exact", "site_post": "x0 == true",
                   "site_index": "0"})],
        {"proc": "main", "callee_pre": "true", "callee_post": "res == true"})
    res = check(program, ProofScript({}, {"proc": "main", "arg": "0", "result": "res"},
                                     root))
    assert not res.accepted
    assert res.rule == "rand" and "bern parameter" in res.reason
