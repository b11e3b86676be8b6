import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ubhl
from ubhl.assertions.obligations import AxiomPremise
from ubhl.assertions.prover import neg
from ubhl.checker.axioms import SchemaMismatch, instantiate_axiom, lap_acc_covers
from ubhl.checker.index import NegativeIndex, index_equal, index_eval
from ubhl.checker.kernel import check
from ubhl.checker.proof import ProofNode, ProofScript
from ubhl.dp.laplace import lap_acc_threshold
from ubhl.lang.ast import REAL, TRUE, Call, DistExpr, LValue, NumLit, Var
from ubhl.lang.parser import parse_expr, parse_program
from ubhl.lang.typecheck import typecheck
from ubhl.semantics.evalexpr import eval_in_memory
from ubhl.semantics.exact import denote_exact, initial_memory


def node(rule, pre, post, index, children=(), **ann):
    return ProofNode(rule, pre, post, index, list(children), dict(ann))


def script(root, logicals=None):
    return ProofScript(logicals=logicals or {},
                       entry={"proc": "main", "arg": "0", "result": "res"},
                       root=root)


SKIP_PROG = parse_program("var x : int;\nproc main(w) { skip; } return x")
COINS = parse_program("""
var x : bool;
var y : bool;
proc main(u) { x <$ bern(1/2); y <$ bern(1/2); } return x
""")
for p in (SKIP_PROG, COINS):
    typecheck(p)


def coin_proof(root_index="1/2", weak_index=None, pre="true", logicals=None):
    body = node("seq", "true", "true && (x == false)", "1/2", [
        node("rand", "true", "x == false", "1/2",
             schema="finite_exact", site_post="x == false", site_index="1/2"),
        node("rand", "x == false", "true && (x == false)", "0",
             schema="true_post", site_index="0", frame="x == false"),
    ])
    inner = node("weak", pre, "!(x && y)", weak_index or root_index, [body])
    return script(node("call", pre, "!(res && y)", root_index, [inner],
                       proc="main", callee_pre=pre, callee_post="!(res && y)"),
                  logicals)


def test_skip_rule():
    root = node("call", "x > 0", "x > 0", "0", [
        node("skip", "x > 0", "x > 0", "0")],
        proc="main", callee_pre="x > 0", callee_post="x > 0")
    res = check(SKIP_PROG, script(root))
    assert res.accepted and res.fully_proved


def test_skip_rule_rejects_changed_post():
    root = node("call", "x > 0", "x > 1", "0", [
        node("skip", "x > 0", "x > 1", "0")],
        proc="main", callee_pre="x > 0", callee_post="x > 1")
    res = check(SKIP_PROG, script(root))
    assert not res.accepted
    assert "pre must equal post" in res.reason


def test_coin_proof_accepted():
    res = check(COINS, coin_proof())
    assert res.accepted and res.fully_proved
    # a finite_exact premise is decided by enumeration; any other schema
    # is trusted, and its premise says so
    assert [ob.note for ob in res.obligations if isinstance(ob, AxiomPremise)] == [
        "enumerated failure mass 1/2 <= 1/2", "axiom schema true_post (trusted)"]


def test_seq_index_mismatch_rejected():
    """Children at beta/2 each cannot justify a beta/3 conclusion."""
    body = node("seq", "true", "true", "1/3", [
        node("rand", "true", "true", "1/6",
             schema="true_post", site_index="0"),
        node("rand", "true", "true", "1/6",
             schema="true_post", site_index="0"),
    ])
    root = node("call", "true", "true", "1/3", [body],
                proc="main", callee_pre="true", callee_post="true")
    res = check(COINS, script(root))
    assert not res.accepted
    assert "index" in res.reason


def test_weak_cannot_lower_index():
    res = check(COINS, coin_proof(root_index="1/5", weak_index="1/5"))
    assert not res.accepted
    assert "index" in res.reason.lower()


@pytest.mark.parametrize("index", ["1/2 + e", "1/2 + 1/e"])
def test_weak_index_order_is_proved_under_the_pre(index):
    """At e = -1/2 the raised index claims a failure probability of at
    most 0, yet the coin fails with probability 1/2: under pre `true`
    the order 1/2 <= index must stay open."""
    res = check(COINS, coin_proof(root_index=index, pre="true", logicals={"e": REAL}))
    assert res.accepted and not res.fully_proved, res.summary()
    assert [(ob.rule, ob.note) for ob in res.undischarged()] == [("weak", "index order")]


def test_weak_index_order_holds_where_the_pre_bounds_it():
    res = check(COINS, coin_proof(root_index="1/2 + e", pre="0 <= e",
                                  logicals={"e": REAL}))
    assert res.fully_proved, res.summary()
    assert "index order" in [ob.note for ob in res.obligations]


def test_finite_exact_premise_is_decided():
    bad = script(node("call", "true", "res == false", "1/4", [
        node("weak", "true", "x == false", "1/4", [
            node("seq", "true", "true && (x == false)", "1/4", [
                node("rand", "true", "x == false", "1/4",
                     schema="finite_exact", site_post="x == false",
                     site_index="1/4"),
                node("rand", "x == false", "true && (x == false)", "0",
                     schema="true_post", site_index="0", frame="x == false"),
            ])])],
        proc="main", callee_pre="true", callee_post="res == false"))
    res = check(COINS, bad)
    assert not res.accepted
    assert "probability" in res.reason  # claims 1/4, true failure mass 1/2


def test_frame_rejects_modified_variable():
    root = node("call", "x == false", "x == false", "0", [
        node("frame", "x == false", "x == false", "0")],
        proc="main", callee_pre="x == false", callee_post="x == false")
    res = check(COINS, script(root))
    assert not res.accepted
    assert "modifies" in res.reason


def test_false_rule():
    root = node("call", "true", "false", "1", [
        node("weak", "true", "false", "1", [
            node("false", "true", "false", "1")])],
        proc="main", callee_pre="true", callee_post="false")
    res = check(COINS, script(root))
    assert res.accepted


# ── axiom instantiation ──


def test_lap_acc_instantiation_formula():
    dist = DistExpr("lap", (parse_expr("eps/2"), parse_expr("qscore[r]")))
    post, iota = instantiate_axiom("lap_acc", parse_expr("noisy[r]"),
                                   dist, parse_expr("beta/size(R0)"), TRUE)
    want = parse_expr(
        "abs(noisy[r] - qscore[r]) <= (2/eps)*log(size(R0)/beta) + 1")
    from ubhl.assertions.normform import assertions_equal
    assert assertions_equal(post, want)
    assert index_equal(iota, parse_expr("beta/size(R0)"))


def test_lap_acc_threshold_value():
    dist = DistExpr("lap", (parse_expr("1"), parse_expr("0")))
    post, _ = instantiate_axiom("lap_acc", Var("x"), dist, parse_expr("1/10"), TRUE)
    # |x - 0| <= log(10) + 1
    bound = post.right
    from ubhl.semantics.evalexpr import eval_expr
    assert abs(float(eval_expr(bound, {})) - (math.log(10) + 1)) < 1e-9


def test_lap_acc_on_bernoulli_is_schema_mismatch():
    dist = DistExpr("bern", (parse_expr("1/2"),))
    with pytest.raises(SchemaMismatch):
        instantiate_axiom("lap_acc", Var("x"), dist, parse_expr("1/10"), TRUE)


def test_lap_acc_validation_hook():
    """`lap_acc_covers` checks the schema's radius against the exact
    discrete radius. The natural-log radius alone is short by a factor
    of at most 2/(1+e^-eps) at coarse budgets (the criterion-2 docstring
    in test_acceptance.py has the full story); one lattice step covers
    it."""
    hook = lap_acc_covers
    assert hook(1.0, 0.1)
    assert hook(4.0, 0.1)
    assert hook(1.0, 0.01)
    assert hook(1.0, 0.5)
    assert hook(0.5, 0.02)  # noisy-max site parameters
    assert lap_acc_threshold(1.0, 0.5) > math.log(2)
    assert lap_acc_threshold(0.5, 0.02) > math.log(50) / 0.5
    for eps in (0.05, 0.25, 1.0, 4.0, 10.0):
        for iota in (1.0, 0.5, 0.1, 0.2 / 21, 1e-6):
            assert hook(eps, iota), (eps, iota)


# ── index algebra ──


def test_index_examples():
    env = {"beta": Fraction(1, 5), "Q": 20}
    assert index_eval(parse_expr("(beta/(Q+1))*(Q+1)"), env) == pytest.approx(0.2)
    assert index_eval(parse_expr("10 * beta"), {"beta": Fraction(1, 50)}) == \
        pytest.approx(0.2)
    with pytest.raises(NegativeIndex):
        index_eval(parse_expr("beta - 1"), {"beta": Fraction(1, 2)})


def test_index_symbolic_equalities():
    assert index_equal(parse_expr("(beta/(Q+1))*(Q+1)"), parse_expr("beta"))
    assert index_equal(parse_expr("size(R0)*(beta/size(R0))"), parse_expr("beta"))
    assert not index_equal(parse_expr("beta/2"), parse_expr("beta"))
    # dividing by zero, an index has no normal form but equals its own text
    assert index_equal(parse_expr("beta/0"), parse_expr("beta/0"))
    assert not index_equal(parse_expr("beta/0"), parse_expr("1/0"))


def test_verdict_does_not_depend_on_an_earlier_budget():
    """A starved check must not leave its failures for a later check
    with the default budget in the same process."""
    code = (
        "from ubhl.cases.registry import check_case\n"
        "starved = check_case('sv', prover_budget=5)\n"
        "assert not starved.fully_proved, starved.summary()\n"
        "print(check_case('sv').summary())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ubhl.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ACCEPTED (28 obligation(s) proved, fully discharged)"


def test_verdict_does_not_depend_on_an_earlier_check():
    """`res` is an int in the first program and a real in the second,
    so only the first proves `res > 0 ==> res >= 1`. Checking the first
    must not settle the second."""
    def checked(ret):
        program = parse_program(f"var y : int;\nproc main(u) {{ y <- 3; }} return {ret}")
        call = node("call", "true", "res > 0", "0",
                    [node("assn", "true", f"{ret} > 0", "0")],
                    proc="main", callee_pre="true", callee_post="res > 0")
        return check(program, script(node("weak", "true", "res >= 1", "0", [call])))

    assert checked("y").fully_proved
    second = checked("y / 2")
    assert second.accepted
    assert [ob.note for ob in second.undischarged()] == ["postcondition weakening"]


ONE_COIN = parse_program("var x : bool;\nproc main(u) { x <$ bern(1/2); } return x")
typecheck(ONE_COIN)


def one_site(post, index):
    """One finite_exact site under a weakening to `true`, so only the
    site's own premise reads `post`."""
    return script(node("call", "true", "true", index, [
        node("weak", "true", "true", index, [
            node("rand", "true", post, index, schema="finite_exact",
                 site_post=post, site_index=index)])],
        proc="main", callee_pre="true", callee_post="true"))


def test_finite_exact_post_that_divides_by_zero_fails_there():
    """The post is undefined at both values, so both count as failing."""
    res = check(ONE_COIN, one_site("x == false && 1/0 > 0", "1/2"))
    assert not res.accepted
    assert res.rule == "rand" and "probability 1," in res.reason


@pytest.mark.parametrize("index,accepted", [("1/2", True), ("1/4", False)])
def test_finite_exact_post_that_takes_log_of_zero_fails_there(index, accepted):
    """`x == false` holds without reaching log(0); at x == true the post
    raises, so the failure mass is 1/2."""
    res = check(ONE_COIN, one_site("x == false || log(0) < 1", index))
    assert res.accepted == accepted, res.reason
    if accepted:
        assert "enumerated failure mass 1/2 <= 1/2" in [ob.note for ob in res.obligations]
    else:
        assert "probability 1/2" in res.reason


def test_post_that_divides_by_zero_equals_itself():
    """At index 1 the site may fail everywhere, so only the rand rule's
    comparison of the post with the instantiated one is left. A post
    that divides by zero has no normal form but equals its own text."""
    res = check(ONE_COIN, one_site("x == false && 1/0 > 0", "1"))
    assert res.fully_proved, res.summary()


def test_contract_post_that_divides_by_zero_equals_itself():
    """The call rule compares the node's post with the contract post
    after substituting the result, and the body's with it after
    substituting the return value."""
    body_post = "x == false && 1/0 > 0"
    res = check(ONE_COIN, script(node(
        "call", "true", "res == false && 1/0 > 0", "1", [
            node("rand", "true", body_post, "1", schema="finite_exact",
                 site_post=body_post, site_index="1")],
        proc="main", callee_pre="true", callee_post="res == false && 1/0 > 0")))
    assert res.fully_proved, res.summary()


def test_finite_exact_post_must_be_a_bool_assertion():
    res = check(ONE_COIN, one_site("size(x)", "1/2"))
    assert not res.accepted
    assert res.rule == "rand" and "not a bool assertion" in res.reason


# ── the union bound: `and` adds indices, `or` shares one ──

DIGIT = parse_program("var x : int;\nvar y : int;\nproc main(u) { x <$ unifint(0, 9); } return x")
typecheck(DIGIT)


def digit_site(pre, post, index):
    return node("rand", pre, post, index,
                schema="finite_exact", site_post=post, site_index=index)


def and_proof(index):
    """{true} x <$ unifint(0, 9) {x >= 1 && x <= 8} from one site per
    conjunct, each failing with probability 1/10."""
    both = node("and", "true", "(x >= 1) && (x <= 8)", index, [
        digit_site("true", "x >= 1", "1/10"), digit_site("true", "x <= 8", "1/10")])
    post = "res >= 1 && res <= 8"
    return script(node("call", "true", post, index, [both],
                       proc="main", callee_pre="true", callee_post=post))


def test_and_rule_adds_the_childrens_indices():
    res = check(DIGIT, and_proof("1/5"))
    assert res.accepted and res.fully_proved, res.summary()


def test_and_rule_rejects_an_index_below_the_sum():
    res = check(DIGIT, and_proof("1/10"))
    assert not res.accepted
    assert res.rule == "and"
    assert "index must be the sum of the children's indices" in res.reason


def test_and_rule_bound_is_tight():
    """x = 0 and x = 9 each break one conjunct: the bad mass is exactly
    the sum 1/5."""
    cmd = Call(LValue("res"), "main", NumLit(Fraction(0)))
    dist = denote_exact(DIGIT, cmd, initial_memory(DIGIT).set("res", 0))
    bad = neg(parse_expr(and_proof("1/5").root.post))
    assert dist.prob_upper(lambda m: bool(eval_in_memory(bad, m))) == Fraction(1, 5)


def or_proof(second_index):
    """{y >= 0 || y < 0} x <$ unifint(0, 9) {x >= 1} by cases on y."""
    either = node("or", "(y >= 0) || (y < 0)", "x >= 1", "1/10", [
        digit_site("y >= 0", "x >= 1", "1/10"),
        digit_site("y < 0", "x >= 1", second_index)])
    pre = "y >= 0 || y < 0"
    return script(node("call", pre, "res >= 1", "1/10", [either],
                       proc="main", callee_pre=pre, callee_post="res >= 1"))


def test_or_rule_accepts_cases_at_one_index():
    res = check(DIGIT, or_proof("1/10"))
    assert res.accepted and res.fully_proved, res.summary()


def test_or_rule_rejects_cases_at_different_indices():
    res = check(DIGIT, or_proof("1/5"))
    assert not res.accepted
    assert res.rule == "or"
    assert "children must share the disjunction's index" in res.reason


def test_check_rejects_a_recursive_program_without_typecheck():
    """The kernel's write sets follow calls into callee bodies, so it
    refuses a call cycle itself instead of walking it."""
    from test_typecheck import RECURSIVE

    skip = node("skip", "true", "true", "0")
    root = node("call", "true", "true", "0", [node("call", "true", "true", "0", [skip],
                                                   proc="f")], proc="main")
    result = check(parse_program(RECURSIVE), script(root))
    assert not result.accepted
    assert result.summary() == "REJECTED [root]: recursive procedure: f -> f"


# ── rejections no shipped derivation reaches ──

LOOP = parse_program("var i : int;\nproc main(u) { while (i > 0) { i <- i - 1; } } return i")
typecheck(LOOP)


def loop_proof(variant):
    """{i <= 5} while (i > 0) { i <- i - 1; } {res <= 0} over `variant`."""
    keep = node("assn", "true", "true", "0")
    down = node("weak", "(true && i > 0) && i == eta", "i < eta", "0",
                [node("assn", "i - 1 < eta", "i < eta", "0")])
    loop = node("while", "true && i <= 5", "true && !(i > 0)", "0", [keep, down],
                invariant="true", variant=variant, bound="5")
    return script(node("call", "i <= 5", "res <= 0", "0", [loop], proc="main",
                       callee_pre="i <= 5", callee_post="res <= 0"))


def test_loop_proof_is_accepted():
    res = check(LOOP, loop_proof("i"))
    assert res.fully_proved, res.summary()


@pytest.mark.parametrize("program, proof, reason", [
    (SKIP_PROG, script(node("induction", "true", "true", "0")), "unknown rule"),
    (SKIP_PROG, script(node("call", "true", "true", "0", [node("skip", "true", "true", "0")] * 2,
                            proc="main")), "rule takes 1 children, got 2"),
    (SKIP_PROG, script(node("call", "x >", "true", "0", [node("skip", "true", "true", "0")],
                            proc="main")), "cannot parse pre"),
    (LOOP, loop_proof("i && true"), "variant does not typecheck"),
], ids=["unknown-rule", "arity", "unparsable-pre", "variant-type"])
def test_kernel_rejects(program, proof, reason):
    res = check(program, proof)
    assert not res.accepted
    assert reason in res.reason, res.summary()


@pytest.mark.parametrize("entry, reason", [
    ({"proc": "start", "arg": "0", "result": "res"}, "entry procedure 'start' not in program"),
    ({"proc": "main", "arg": "0 +", "result": "res"}, "bad entry argument"),
], ids=["missing-entry", "bad-argument"])
def test_kernel_rejects_a_bad_entry(entry, reason):
    proof = script(node("call", "true", "true", "0", [node("skip", "true", "true", "0")],
                        proc="main"))
    proof.entry = entry
    res = check(SKIP_PROG, proof)
    assert not res.accepted
    assert res.reason.startswith(reason), res.reason


@pytest.mark.parametrize("index", ["true", "x && y", "forall i in 1 .. 2 . i > 0"])
def test_non_numeric_index_is_rejected_where_it_is_compared(index):
    """Such an index is a bool, so the first node that claims it, the
    root, rejects it before any rule compares it."""
    res = check(COINS, coin_proof(root_index=index))
    assert not res.accepted
    assert (res.rule, res.reason) == ("call", "index is not a number: got bool")


SORTED = parse_program("var x : int;\nvar b : bool;\nproc main(u) { skip; } return x")
typecheck(SORTED)


@pytest.mark.parametrize("text, reason", [
    ("size(x)", "size takes (db) or (set<int>), got (int)"),
    ("x", "assertion must be bool, got int"),
    ("b + 1 > 0", "'+' needs numbers, got bool, int"),
    ("forall i in 1 .. 2 . i", "quantifier body must be bool, got int"),
])
def test_node_assertions_must_be_bool_assertions(text, reason):
    """Each node's pre and post is sort-checked, even where every rule
    compares it only with itself."""
    res = check(SORTED, script(node("call", text, text, "0", [node("skip", text, text, "0")],
                                    proc="main", callee_pre=text, callee_post=text)))
    assert (res.accepted, res.rule, res.path) == (False, "call", ())
    assert res.reason == f"pre/post is not a bool assertion: {reason}"


@pytest.mark.parametrize("index, reason", [
    ("size(x)", "size takes (db) or (set<int>), got (int)"),
    ("b", "got bool"),
])
def test_weakened_index_must_be_a_number(index, reason):
    call = node("call", "true", "true", "0", [node("skip", "true", "true", "0")],
                proc="main", callee_pre="true", callee_post="true")
    res = check(SORTED, script(node("weak", "true", "true", index, [call])))
    assert (res.accepted, res.rule, res.path) == (False, "weak", ())
    assert res.reason == f"index is not a number: {reason}"
