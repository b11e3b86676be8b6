import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ubhl.assertions.normform import assertions_equal, canon_assertion, terms_equal
from ubhl.assertions.prover import Prover, _ln_bounds, neg, nnf
from ubhl.lang.ast import BOOL, INT, REAL, SETINT, ArrayT, subst_expr
from ubhl.lang.parser import parse_expr as E
from ubhl.semantics.evalexpr import eval_expr

SORTS = {"x": REAL, "y": REAL, "z": REAL, "a": REAL, "b": REAL,
         "i": INT, "j": INT, "u": INT, "Q": INT, "beta": REAL, "eps": REAL,
         "S": SETINT, "R": SETINT, "flag": BOOL, "arr": ArrayT(REAL)}


# ── canonical equality ──


@pytest.mark.parametrize("left,right,expect", [
    ("x > y - a", "x - y > -a", True),
    ("a < b", "b > a", True),
    ("a < b", "2*a < 2*b", True),
    ("a < b", "a <= b", False),
    ("x == true && y > 0", "y > 0 && x", True),
    ("(1/(eps/2))*log(1/(beta/Q)) <= x", "(2/eps)*log(Q/beta) <= x", True),
    ("abs(a - b) <= x", "abs(b - a) <= x", True),
    ("forall s in R . s in S || !flag", "forall t in R . (t in S) || flag == false", True),
    ("i in R && i == 3", "(3 == i) && (i in R)", True),
    ("x / 2 + x / 2 >= y", "x >= y", True),
    ("i in setdiff(R, S)", "i in R && !(i in S)", True),
    ("i in setdiff(R, S)", "i in R", False),
    ("flag <==> i > 0", "(flag ==> i > 0) && (i > 0 ==> flag)", True),
    ("flag <==> i > 0", "flag ==> i > 0", False),
    ("i in {0, 2}", "i == 0 || i == 2", True),
    ("i in {0, 2}", "i == 0", False),
])
def test_assertion_equalities(left, right, expect):
    assert assertions_equal(E(left), E(right)) == expect


def test_terms_equal_rational_function_cancellation():
    assert terms_equal(E("(beta/(Q+1))*(Q+1)"), E("beta"))
    assert terms_equal(E("(x*x - y*y)/(x - y)"), E("x + y"))
    assert not terms_equal(E("x + y"), E("x - y"))


def test_substitution_lemma_on_samples():
    cases = [
        ("x > 0", "x", "y + 1"),
        ("arr[i] <= x", "i", "j + 1"),
        ("forall s in S . s > x", "x", "i"),
    ]
    store_base = {"x": Fraction(2), "y": Fraction(3), "i": 1, "j": 0,
                  "S": frozenset({1, 5}),
                  "arr": None}
    from ubhl.semantics.values import ArrayVal
    store_base["arr"] = ArrayVal(Fraction(0), ((1, Fraction(1)),))
    for text, var, repl_text in cases:
        a = E(text)
        repl = E(repl_text)
        subst_val = eval_expr(subst_expr(a, var, repl), store_base)
        store2 = dict(store_base)
        store2[var] = eval_expr(repl, store_base)
        assert subst_val == eval_expr(a, store2)


@settings(max_examples=60, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(1, 4))
def test_substitution_lemma_property(xv, yv, k):
    a = E("x + y > 2 * x || x == y")
    repl = E(f"y + {k}")
    store = {"x": Fraction(xv), "y": Fraction(yv)}
    lhs = eval_expr(subst_expr(a, "x", repl), store)
    store2 = dict(store)
    store2["x"] = eval_expr(repl, store)
    assert lhs == eval_expr(a, store2)


def test_canon_handles_boolean_literal_folding():
    assert canon_assertion(E("false == true ==> x > 0")) == ("true",)
    assert canon_assertion(E("3 <= 3")) == ("true",)
    assert canon_assertion(E("1 > 2")) == ("false",)


# ── the built-in prover ──


def P(extra=None):
    s = dict(SORTS)
    if extra:
        s.update(extra)
    return Prover(s, budget=60000)


@pytest.mark.parametrize("ante,cons", [
    ("x > 2", "x > 2"),
    ("x > 2 && y > 0", "y > 0"),
    ("true", "4*log(40) <= 14.76"),
    ("x > 2", "x > 1"),
    ("size(R) <= 0", "isempty(R)"),
    ("R == S && i in S", "i in R"),
    ("!isempty(R)", "pick(R) in R"),
    ("j <= u - 1", "j != u"),
    ("j <= u - 1", "store(arr, u, x)[j] == arr[j]"),
    ("abs(x) <= 2", "x <= 2 && x >= -2"),
    ("forall s in R . s in S || !flag", "i in R ==> (i in S || !flag)"),
    ("x <= 2 && x >= 2", "x == 2"),
    ("j <= u && j >= u", "store(arr, u, x)[j] == x"),
    ("i in setdiff(R, S)", "i in R && !(i in S)"),
    ("i in {1, 2}", "i >= 1"),
    ("i in {}", "i > 5"),
    ("flag <==> i > 0", "flag || i <= 0"),
])
def test_prover_accepts(ante, cons):
    assert P().prove_implication(E(ante), E(cons))


@pytest.mark.parametrize("ante,cons", [
    ("x > 0", "x > 1"),
    ("true", "4*log(40) <= 14.75"),
    ("x <= 2", "abs(x) <= 2"),
    ("i in R", "i in S"),
    ("x >= 0", "x > 0"),
    ("i in setdiff(R, S)", "i in S"),
])
def test_prover_refuses(ante, cons):
    assert not P().prove_implication(E(ante), E(cons))


@pytest.mark.parametrize("ante,cons,proved", [
    ("0 < beta && 1 <= Q", "0 <= beta/(2*Q+1)", True),
    ("true", "0 <= beta/(2*Q+1)", False),
    ("0 < beta && Q <= -1", "0 <= beta/(2*Q+1)", False),
    ("0 < beta && 1 <= Q", "beta <= beta/(2*Q+1)", False),
])
def test_prover_compares_over_a_non_constant_denominator(ante, cons, proved):
    """A difference num/den with a non-constant den is compared with 0
    as num*den, which has its sign wherever den is nonzero."""
    assert P().prove_implication(E(ante), E(cons)) == proved


def test_prover_fm_chain_threshold_split():
    ante = ("abs(a - z) <= (4/eps)*log((Q+1)/beta)"
            " && abs(y - x) <= (2/eps)*log((Q+1)/beta) && a < x")
    cons = "z <= y + (6/eps)*log((Q+1)/beta)"
    assert P().prove_implication(E(ante), E(cons))


def test_prover_proves_a_guarded_conjunction_before_refuting_its_guard():
    """`forall s . P(s) ==> Q(s) && R(s)`: the disjunction pass assumes
    the guard and proves the conjunction. Refuting the guard first takes
    20 nodes here."""
    prover = P()
    ante = "0 < eps && (forall s in R . s in S ==> abs(arr[s]) <= 1/eps)"
    cons = "forall s in R . s in S ==> arr[s] <= 1/eps && -1/eps <= arr[s]"
    assert prover.prove_implication(E(ante), E(cons))
    assert prover.nodes < 20, prover.nodes


def test_ln_bounds_enclose_ln_at_every_magnitude():
    """Each interval contains ln(c) by a 200-digit reference, over
    random rationals with |ln c| from 1e-3 up to 1e6."""
    rng = random.Random(15)
    slack = Fraction(1, 10 ** 150)  # far above the reference's own error
    for _ in range(40):
        bits = int(10 ** rng.uniform(-3, 6) / math.log(2))
        den_bits = rng.randint(1, 200)
        num = rng.getrandbits(den_bits + bits) | 1
        den = rng.getrandbits(den_bits) | 1
        c = Fraction(num, den) if rng.random() < 0.5 else Fraction(den, num)
        with localcontext() as ctx:
            ctx.prec = 200
            ref = Fraction((Decimal(c.numerator) / Decimal(c.denominator)).ln())
        lo, hi = _ln_bounds(c)
        assert lo <= ref - slack and ref + slack <= hi, float(ref)


def test_prover_soundness_random_memories():
    """Everything the prover accepts must hold on sampled assignments."""
    rng = random.Random(7)
    implications = [
        ("x > 2 && y > 0", "x + y > 2"),
        ("abs(x) <= 2", "x >= -2"),
        ("j <= u - 1", "j != u"),
        ("x > 2 || y > 2", "x + y > 2 || x > 2 || y > 2"),
    ]
    prover = P()
    for ante_t, cons_t in implications:
        ante, cons = E(ante_t), E(cons_t)
        assert prover.prove_implication(ante, cons)
        for _ in range(2000):
            store = {"x": Fraction(rng.randint(-50, 50), rng.randint(1, 8)),
                     "y": Fraction(rng.randint(-50, 50), rng.randint(1, 8)),
                     "j": rng.randint(-20, 20), "u": rng.randint(-20, 20)}
            if eval_expr(ante, store):
                assert eval_expr(cons, store), (ante_t, cons_t, store)


def test_nnf_negation_involution():
    e = E("(x > 0 ==> flag) && !(y <= 1 || i in R)")
    assert assertions_equal(nnf(neg(neg(e))), nnf(e))
