from pathlib import Path

import pytest

from ubhl.assertions.obligations import Implication
from ubhl.assertions.smtlib import emit_smtlib
from ubhl.cases.registry import CASE_NAMES, check_case
from ubhl.lang.ast import (
    BOOL, DB, INT, QUERY, REAL, SETINT, ArrayT, BinOp, BoolLit, FuncCall, Var,
)
from ubhl.lang.parser import parse_expr
from ubhl.lang.typecheck import FUNC_SIGS
from ubhl.semantics.evalexpr import _FUNCS

from smtsorts import SortError, check_script

ENV = {"x": REAL, "y": REAL, "beta": REAL, "Q": INT, "j": INT,
       "q": QUERY, "d": DB, "R": SETINT, "noisy": ArrayT(REAL),
       "qscore": ArrayT(REAL), "flag": BOOL, "eps": REAL, "rstar": INT,
       "res": INT}


def imp(ante, cons):
    return Implication(rule="weak", path=("t",), antecedent=parse_expr(ante),
                       consequent=parse_expr(cons))


def test_simple_implication_script():
    text = emit_smtlib(imp("x > 2", "x > 1"), ENV)
    assert text.startswith("(set-logic ALL)")
    assert "(assert (not (=> (> v_x 2.0) (> v_x 1.0))))" in text
    assert text.rstrip().endswith("(check-sat)")


def test_determinism_byte_identical():
    ob = imp("x > 2 && evalQ(q, d) <= y", "x > 1")
    a = emit_smtlib(ob, ENV)
    b = emit_smtlib(ob, dict(reversed(list(ENV.items()))))
    assert a == b


def test_index_inequality_script():
    """A weak node's index order exports as an implication from its pre."""
    text = emit_smtlib(imp("1 <= Q", "(beta/(Q+1))*(Q+1) <= beta"), ENV)
    assert "(declare-const v_beta Real)" in text
    assert "(to_real v_Q)" in text
    assert "(assert (not (=> (<= 1 v_Q)" in text


def test_uninterpreted_query_symbols():
    ob = imp("evalQ(invQ(q), d) == -evalQ(q, d)", "true")
    text = emit_smtlib(ob, ENV)
    assert "(declare-fun uEvalQ (UQuery UDb) Real)" in text
    assert "(declare-fun uInvQ (UQuery) UQuery)" in text
    # the inversion axiom ships with the symbols
    assert "(= (uEvalQ (uInvQ p) e) (- (uEvalQ p e)))" in text


def test_log_gets_monotonicity_and_ground_bounds():
    ob = imp("true", "4 * log(40) <= 14.76")
    text = emit_smtlib(ob, ENV)
    assert "(declare-fun ln (Real) Real)" in text
    assert "(<= (ln a) (ln b))" in text
    # certified two-sided interval for ln(40)
    assert text.count("(ln 40.0)") >= 2


def test_triangle_inequality_export():
    """Noisy-max weakening shape: uninterpreted score table, quantified
    consequent, abs via the defined real absolute value."""
    ante = ("(forall s in R . abs(noisy[s] - qscore[s]) <= (2/eps)*log(4/beta))"
            " && (forall s in R . noisy[s] <= noisy[rstar])")
    cons = "forall s in R . qscore[rstar] >= qscore[s] - (4/eps)*log(4/beta)"
    text = emit_smtlib(imp(ante, cons), ENV)
    assert "(define-fun absR ((x Real)) Real" in text
    assert "(forall ((v_s Int))" in text
    assert "(select v_R v_s)" in text
    a, b = emit_smtlib(imp(ante, cons), ENV), emit_smtlib(imp(ante, cons), ENV)
    assert a == b


def test_store_and_sets_use_array_theory():
    ob = imp("j in R", "store(noisy, j, x)[j] == x")
    text = emit_smtlib(ob, ENV)
    assert "(select v_R v_j)" in text
    assert "(store v_noisy v_j v_x)" in text


# One obligation per built-in function, `size` over a db and over a
# set, in int and real contexts: the script between the common header
# and `(check-sat)`, byte for byte.
HEADER = "(set-logic ALL)\n(declare-sort UQuery 0)\n(declare-sort UDb 0)\n"
BUILTIN_SCRIPTS = {
    "evalQ(q, d) <= y": """
(declare-fun uEvalQ (UQuery UDb) Real)
(declare-fun uInvQ (UQuery) UQuery)
(assert (forall ((p UQuery) (e UDb)) (= (uEvalQ (uInvQ p) e) (- (uEvalQ p e)))))
(declare-const v_d UDb)
(declare-const v_q UQuery)
(declare-const v_y Real)
(assert (not (=> true (<= (uEvalQ v_q v_d) v_y))))
""",
    "evalQ(invQ(q), d) <= y": """
(declare-fun uEvalQ (UQuery UDb) Real)
(declare-fun uInvQ (UQuery) UQuery)
(assert (forall ((p UQuery) (e UDb)) (= (uEvalQ (uInvQ p) e) (- (uEvalQ p e)))))
(declare-const v_d UDb)
(declare-const v_q UQuery)
(declare-const v_y Real)
(assert (not (=> true (<= (uEvalQ (uInvQ v_q) v_d) v_y))))
""",
    "negQ(q) == q": """
(declare-fun uNegQ (UQuery) UQuery)
(declare-const v_q UQuery)
(assert (not (=> true (= (uNegQ v_q) v_q))))
""",
    "invQ(q) == q": """
(declare-fun uInvQ (UQuery) UQuery)
(declare-const v_q UQuery)
(assert (not (=> true (= (uInvQ v_q) v_q))))
""",
    "evalQ(error(q, d), d) >= y": """
(declare-fun uErrorQ (UQuery UDb) UQuery)
(declare-fun uEvalQ (UQuery UDb) Real)
(declare-fun uInvQ (UQuery) UQuery)
(assert (forall ((p UQuery) (e UDb)) (= (uEvalQ (uInvQ p) e) (- (uEvalQ p e)))))
(declare-const v_d UDb)
(declare-const v_q UQuery)
(declare-const v_y Real)
(assert (not (=> true (>= (uEvalQ (uErrorQ v_q v_d) v_d) v_y))))
""",
    "size(d) >= 1": """
(declare-fun uSize (UDb) Int)
(assert (forall ((e UDb)) (>= (uSize e) 0)))
(declare-const v_d UDb)
(assert (not (=> true (>= (uSize v_d) 1))))
""",
    "size(d) <= x": """
(declare-fun uSize (UDb) Int)
(assert (forall ((e UDb)) (>= (uSize e) 0)))
(declare-const v_d UDb)
(declare-const v_x Real)
(assert (not (=> true (<= (to_real (uSize v_d)) v_x))))
""",
    "size(R) >= 1": """
(declare-fun uSizeSet ((Array Int Bool)) Int)
(assert (forall ((s (Array Int Bool))) (>= (uSizeSet s) 0)))
(declare-const v_R (Array Int Bool))
(assert (not (=> true (>= (uSizeSet v_R) 1))))
""",
    "size(R) <= x": """
(declare-fun uSizeSet ((Array Int Bool)) Int)
(assert (forall ((s (Array Int Bool))) (>= (uSizeSet s) 0)))
(declare-const v_R (Array Int Bool))
(declare-const v_x Real)
(assert (not (=> true (<= (to_real (uSizeSet v_R)) v_x))))
""",
    "pick(R) == j": """
(declare-fun uPick ((Array Int Bool)) Int)
(declare-const v_R (Array Int Bool))
(declare-const v_j Int)
(assert (not (=> true (= (uPick v_R) v_j))))
""",
    "pick(R) <= x": """
(declare-fun uPick ((Array Int Bool)) Int)
(declare-const v_R (Array Int Bool))
(declare-const v_x Real)
(assert (not (=> true (<= (to_real (uPick v_R)) v_x))))
""",
    "!(j in remove(R, j))": """
(declare-const v_R (Array Int Bool))
(declare-const v_j Int)
(assert (not (=> true (not (select (store v_R v_j false) v_j)))))
""",
    "isempty(R) ==> !(j in R)": """
(declare-const v_R (Array Int Bool))
(declare-const v_j Int)
(assert (not (=> true (=> (= v_R ((as const (Array Int Bool)) false)) (not (select v_R v_j))))))
""",
    "j in setdiff(R, R)": """
(declare-fun setdiff ((Array Int Bool) (Array Int Bool)) (Array Int Bool))
(assert (forall ((a (Array Int Bool)) (b (Array Int Bool)) (i Int)) (= (select (setdiff a b) i) (and (select a i) (not (select b i))))))
(declare-const v_R (Array Int Bool))
(declare-const v_j Int)
(assert (not (=> true (select (setdiff v_R v_R) v_j))))
""",
    "abs(x) >= 0": """
(define-fun absR ((x Real)) Real (ite (>= x 0.0) x (- x)))
(declare-const v_x Real)
(assert (not (=> true (>= (absR v_x) 0.0))))
""",
    "abs(j) >= 1": """
(define-fun absI ((x Int)) Int (ite (>= x 0) x (- x)))
(declare-const v_j Int)
(assert (not (=> true (>= (absI v_j) 1))))
""",
    "abs(j) <= x": """
(define-fun absR ((x Real)) Real (ite (>= x 0.0) x (- x)))
(declare-const v_j Int)
(declare-const v_x Real)
(assert (not (=> true (<= (absR (to_real v_j)) v_x))))
""",
    "log(x) <= log(4)": """
(declare-fun ln (Real) Real)
(assert (forall ((a Real) (b Real)) (=> (and (< 0.0 a) (<= a b)) (<= (ln a) (ln b)))))
(declare-const v_x Real)
(assert (<= (/ 1386294361119.0 1000000000000.0) (ln 4.0)))
(assert (<= (ln 4.0) (/ 8664339757.0 6250000000.0)))
(assert (not (=> true (<= (ln v_x) (ln 4.0)))))
""",
    "min(x, y) <= max(x, j)": """
(declare-const v_j Int)
(declare-const v_x Real)
(declare-const v_y Real)
(assert (not (=> true (<= (ite (< v_x v_y) v_x v_y) (ite (> v_x (to_real v_j)) v_x (to_real v_j))))))
""",
    "max(j, 2) == j": """
(declare-const v_j Int)
(assert (not (=> true (= (ite (> v_j 2) v_j 2) v_j))))
""",
    "mwInit(x, Q, j) == d": """
(declare-fun uMwInit (Real Int Int) UDb)
(declare-const v_Q Int)
(declare-const v_d UDb)
(declare-const v_j Int)
(declare-const v_x Real)
(assert (not (=> true (= (uMwInit v_x v_Q v_j) v_d))))
""",
    "mwStep(d, q, x, Q) == d": """
(declare-fun uMwStep (UDb UQuery Real Int) UDb)
(declare-const v_Q Int)
(declare-const v_d UDb)
(declare-const v_q UQuery)
(declare-const v_x Real)
(assert (not (=> true (= (uMwStep v_d v_q v_x v_Q) v_d))))
""",
    "potential(d, mwInit(eps, 2, 3)) <= y": """
(declare-fun uMwInit (Real Int Int) UDb)
(declare-fun uPotential (UDb UDb) Real)
(declare-const v_d UDb)
(declare-const v_eps Real)
(declare-const v_y Real)
(assert (not (=> true (<= (uPotential v_d (uMwInit v_eps 2 3)) v_y))))
""",
}


@pytest.mark.parametrize("claim", list(BUILTIN_SCRIPTS))
def test_builtin_script_bytes(claim):
    text = emit_smtlib(imp("true", claim), ENV)
    assert text == HEADER + BUILTIN_SCRIPTS[claim].lstrip("\n") + "(check-sat)\n"
    check_script(text)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_shipped_obligations_are_well_sorted(name):
    """Every obligation of a shipped check exports, under the kernel's
    sorts, as a script that declares each symbol before its use and
    mixes no sorts."""
    result = check_case(name)
    for ob in result.obligations:
        check_script(emit_smtlib(ob, result.sorts))


@pytest.mark.parametrize("text, fault", [
    ("(declare-const v_x Int)\n(assert (>= v_y 0))", "undeclared constant v_y"),
    ("(declare-const v_x Int)\n(assert (>= v_x 0.0))", "mixed sorts"),
    ("(assert (forall ((e UDb)) true))", "undeclared sort UDb"),
    ("(declare-fun f (Int) Int)\n(assert (= (f true) 1))", "f applied to"),
    ("(assert (g 1))\n(declare-fun g (Int) Bool)", "undeclared function g"),
])
def test_sort_checker_rejects(text, fault):
    with pytest.raises(SortError, match=fault):
        check_script(text)


GRAMMAR = (Path(__file__).resolve().parent.parent / "docs" / "grammar.md").read_text()


@pytest.mark.parametrize("name", list(FUNC_SIGS))
def test_every_builtin_is_evaluated_exported_and_documented(name):
    """Each built-in of the signature table runs in the semantics,
    translates to SMT-LIB at each of its signatures, and is listed in
    docs/grammar.md with the table's sorts."""
    assert name in _FUNCS
    for params, ret in FUNC_SIGS[name]:
        env = {f"a{k}": p for k, p in enumerate(params)}
        call = FuncCall(name, tuple(Var(a) for a in env))
        ob = Implication(rule="weak", path=(), antecedent=BoolLit(True),
                         consequent=BinOp("==", call, call))
        assert "(assert (not" in emit_smtlib(ob, env)
        shown = f"`{name}({', '.join(map(str, params))}) : {ret}`"
        assert shown in GRAMMAR
