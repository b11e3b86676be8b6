import hashlib
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ubhl.lang.ast import (
    INT, REAL, BinOp, BoolLit, Call, FuncCall, LValue, NumLit, Quant, RangeDom, Seq, UnOp,
    Var, map_children, subst_expr,
)
from ubhl.lang.parser import parse_expr, parse_program
from ubhl.lang.typecheck import typecheck
from ubhl.semantics.evalexpr import (
    DivisionByZero, UbhlRuntimeError, UnboundVariableError,
    UnboundedQuantifierAtRuntime, _num, compile_expr, compiled_expr, dist_params, eval_expr,
    eval_in_memory,
)
from ubhl.semantics.exact import Budget, denote_exact, initial_memory
from ubhl.semantics.trial import (
    clopper_pearson_upper, estimate_failure, run_trial,
)
from ubhl.semantics.values import ArrayVal, Memory
from ubhl.dp.mw import mw_step, potential
from ubhl.dp.queries import Database, Query, eval_query


def prog(src: str):
    p = parse_program(src)
    typecheck(p)
    return p


TWO_COINS = prog("""
var x : bool;
var y : bool;
proc main(u) { x <$ bern(1/2); y <$ bern(1/2); } return x
""")


# ── expression evaluation ──


def test_eval_simple():
    assert eval_expr(parse_expr("x + 1"), {"x": 3}) == 4


def test_eval_query_inversion_axiom():
    q = Query(Fraction(1), (Fraction(1, 2), Fraction(1)))
    d = Database((Fraction(2), Fraction(3)))
    store = {"q": q, "d": d}
    lhs = eval_expr(parse_expr("evalQ(invQ(q), d)"), store)
    rhs = -eval_query(q, d)
    assert lhs == rhs


# ── the MW built-ins against dp.mw ──


def _mw_store():
    x = Database((Fraction(3), Fraction(1), Fraction(2)))
    return {"x": x, "d": Database((Fraction(2), Fraction(0), Fraction(5, 2))),
            "q": Query(Fraction(0), (Fraction(1), Fraction(1, 2), Fraction(0))),
            "eta": Fraction(1, 3), "n": 3}


def test_mw_step_builtin_matches_dp_mw():
    store = _mw_store()
    want = mw_step(store["x"], store["q"], Fraction(1, 3), 3)
    got = eval_expr(parse_expr("mwStep(x, q, eta, n)"), store)
    assert got == want and type(got) is Database


def test_potential_builtin_matches_dp_mw():
    store = _mw_store()
    want = potential(store["x"], store["d"])
    got = eval_expr(parse_expr("potential(x, d)"), store)
    assert got == Fraction(want) and type(got) is Fraction


def test_eval_query_on_a_stepped_database():
    """The stepped counts have denominators that are not powers of two,
    and the database is new: its integer form is its own, not that of
    the database it was stepped from, whose form is computed first."""
    store = _mw_store()
    assert eval_expr(parse_expr("evalQ(q, x)"), store) == 3 + Fraction(1, 2)
    stepped = eval_expr(parse_expr("mwStep(x, q, eta, n)"), store)
    assert any(c.denominator & (c.denominator - 1) for c in stepped.counts)
    got = eval_expr(parse_expr("evalQ(q, mwStep(x, q, eta, n))"), store)
    want = sum((w * c for w, c in zip(store["q"].weights, stepped.counts)), Fraction(0))
    assert got == want and type(got) is Fraction


@pytest.mark.parametrize("text", ["potential(z, d)", "potential(x, z)"])
def test_potential_of_an_empty_database_is_a_runtime_error(text):
    store = dict(_mw_store(), z=Database((Fraction(0),) * 3))
    with pytest.raises(UbhlRuntimeError):
        eval_expr(parse_expr(text), store)


_MW_TEXTS = ("mwInit(eta, X, n)", "mwStep(x, q, eta, n)", "potential(x, d)",
             "potential(mwInit(eta, X, n), d)", "evalQ(q, mwStep(x, q, eta, n))")
_MW_DIGEST = "93efbd7d5ba4f2bacf264a9baed8a005425ef657063baa001d62dba5fdd6d653"


def _mw_random_store(rng: random.Random) -> dict:
    """A store for the MW built-ins: counts that are zero, fractional or
    negative, empty databases, universes that disagree, and a query that
    is sometimes not linear."""
    def counts(x):
        if rng.random() < 0.15:
            return (Fraction(0),) * x
        return tuple(rng.choice([Fraction(0), Fraction(0), Fraction(1), Fraction(3, 2),
                                 Fraction(rng.randint(1, 9), rng.randint(1, 7)),
                                 Fraction(-1, 2)]) for _ in range(x))
    x = rng.randint(2, 4)
    other = x if rng.random() < 0.85 else x + 1
    weights = tuple(Fraction(rng.randint(0, 4), 4) for _ in range(other if rng.random() < 0.1 else x))
    return {"x": Database(counts(x)), "d": Database(counts(other)),
            "q": Query(Fraction(rng.choice([0, 0, 0, 1])), weights),
            "eta": Fraction(rng.randint(0, 6), rng.randint(1, 4)),
            "X": rng.choice([x, x, 1, Fraction(5, 2)]), "n": rng.choice([1, 2, 3, 0, Fraction(7, 2)])}


def test_mw_builtins_digest():
    """The MW built-ins' values and runtime errors over seeded stores,
    pinned by digest: each result is its value and type, or its error
    class and message."""
    rng = random.Random(2510)
    results = []
    for _ in range(300):
        store = _mw_random_store(rng)
        for text in _MW_TEXTS:
            try:
                v = eval_expr(parse_expr(text), store)
            except Exception as exc:  # noqa: BLE001 - the error is the outcome
                results.append((type(exc).__name__, str(exc)))
            else:
                results.append((type(v).__name__, repr(v)))
    assert {k for k, _ in results} == {"Database", "Fraction", "UbhlRuntimeError"}
    assert hashlib.sha256(repr(results).encode()).hexdigest() == _MW_DIGEST


# ── the fast paths agree with the general ones ──

_OPERANDS = st.one_of(
    st.integers(-5, 5), st.fractions(max_denominator=12), st.booleans(),
    st.sampled_from([frozenset(), frozenset({1, 2})]))


def _outcome_of(f, *args):
    """(value, type) or (exception class, message) of f(*args)."""
    try:
        v = f(*args)
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return type(exc), str(exc)
    return v, type(v)


def _reference_div(lv, rv):
    num, den = _num(lv), _num(rv)
    if den == 0:
        raise DivisionByZero("division by zero")
    return num / den


@settings(max_examples=300, deadline=None)
@given(_OPERANDS, _OPERANDS)
def test_division_matches_the_num_reference(lv, rv):
    div = compiled_expr(parse_expr("a / b"))
    assert (_outcome_of(lambda: div({"a": lv, "b": rv}))
            == _outcome_of(_reference_div, lv, rv))


def _reference_dist_params(name, a):
    """dist_params as it was written before it kept Fractions as they are."""
    if name == "bern":
        p = Fraction(a[0])
        if not 0 <= p <= 1:
            raise UbhlRuntimeError(f"bern parameter {p} outside [0,1]")
        return (p,)
    if name == "unifint":
        lo, hi = int(a[0]), int(a[1])
        if hi < lo:
            raise UbhlRuntimeError("unifint with empty range")
        return lo, hi
    eps = Fraction(a[0])
    if eps <= 0:
        raise UbhlRuntimeError("lap scale must be positive")
    return eps, Fraction(a[1])


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["bern", "unifint", "lap"]), _OPERANDS, _OPERANDS)
def test_dist_params_matches_the_reference(name, a0, a1):
    got = _outcome_of(dist_params, name, [a0, a1])
    want = _outcome_of(_reference_dist_params, name, [a0, a1])
    assert got == want
    if not isinstance(got[0], type):
        assert [type(v) for v in got[0]] == [type(v) for v in want[0]]


def test_eval_unbound():
    with pytest.raises(UnboundVariableError):
        eval_expr(parse_expr("y"), {})


def test_eval_division_by_zero():
    with pytest.raises(DivisionByZero):
        eval_expr(parse_expr("1 / (x - x)"), {"x": 5})


def test_unbounded_quantifier_at_runtime():
    with pytest.raises(UnboundedQuantifierAtRuntime):
        eval_expr(parse_expr("forall v : int . v == v"), {})


def test_bounded_quantifiers_evaluate():
    store = {"S": frozenset({1, 2, 3})}
    assert eval_expr(parse_expr("forall s in S . s >= 1"), store) is True
    assert eval_expr(parse_expr("exists s in S . s == 2"), store) is True
    assert eval_expr(parse_expr("forall j in 1 .. 0 . j > 99"), store) is True


# ── exact semantics ──


def test_single_coin():
    p = prog("var x : bool;\nproc main(u) { x <$ bern(1/2); } return x")
    d = denote_exact(p, p.procs["main"].body, initial_memory(p))
    masses = {m.get("x"): w for m, w in d.support.items()}
    assert masses == {True: Fraction(1, 2), False: Fraction(1, 2)}
    assert d.residual == 0


def test_two_coins_product_law():
    d = denote_exact(TWO_COINS, TWO_COINS.procs["main"].body, initial_memory(TWO_COINS))
    assert len(d.support) == 4
    assert set(d.support.values()) == {Fraction(1, 4)}
    assert d.weight() == 1


def test_laplace_truncation_masses():
    p = prog("var z : real;\nproc main(u) { z <$ lap(1, 0); } return z")
    d = denote_exact(p, p.procs["main"].body, initial_memory(p),
                     Budget(laplace_radius=50))
    p0 = next(w for m, w in d.support.items() if m.get("z") == 0)
    assert abs(float(p0) - 0.462117) < 1e-6
    assert 0 < d.residual < Fraction(1, 10 ** 20)


def test_weight_conservation_loop_free():
    src = """
var x : int;
var y : bool;
proc main(u) {
  x <$ unifint(0, 4);
  if (x > 2) { y <$ bern(1/3); }
} return x
"""
    p = prog(src)
    d = denote_exact(p, p.procs["main"].body, initial_memory(p))
    assert d.weight() + d.residual == 1


def test_bind_associativity():
    a = parse_program("""
var x : bool;
var y : bool;
var z : bool;
proc main(u) { x <$ bern(1/2); y <$ bern(1/3); z <$ bern(1/5); } return x
""")
    typecheck(a)
    body = a.procs["main"].body
    # body is Seq(s1, Seq(s2, s3)); rebuild as Seq(Seq(s1, s2), s3)
    s1, rest = body.first, body.second
    left_nested = Seq(Seq(s1, rest.first), rest.second)
    m0 = initial_memory(a)
    d1 = denote_exact(a, body, m0)
    d2 = denote_exact(a, left_nested, m0)
    assert d1.support == d2.support
    assert d1.residual == d2.residual


def test_internal_external_separation():
    d = denote_exact(TWO_COINS, TWO_COINS.procs["main"].body,
                     initial_memory(TWO_COINS), ext={"adv_state": 7})
    assert d.weight() == 1  # external store untouched and projected away


def test_residual_monotonicity():
    src = """
var i : int;
var x : bool;
proc main(u) {
  i <- 0;
  while (i < 8) { x <$ bern(1/2); i <- i + 1; }
} return i
"""
    p = prog(src)
    weights = []
    for iters in (2, 4, 8, 16):
        d = denote_exact(p, p.procs["main"].body, initial_memory(p),
                         Budget(max_loop_iters=iters))
        weights.append(d.weight())
    assert weights == sorted(weights)
    assert weights[-1] == 1


def test_loop_budget_moves_mass_to_residual():
    src = """
var x : bool;
proc main(u) { x <- false; while (x == false) { x <$ bern(1/2); } } return x
"""
    p = prog(src)
    d = denote_exact(p, p.procs["main"].body, initial_memory(p),
                     Budget(max_loop_iters=3))
    assert d.residual == Fraction(1, 8)
    assert d.weight() == Fraction(7, 8)


def test_errors_divert_to_sentinel():
    src = """
var x : int;
var y : real;
proc main(u) {
  x <$ unifint(0, 1);
  if (x == 0) { y <- 1 / x; }
} return x
"""
    p = prog(src)
    d = denote_exact(p, p.procs["main"].body, initial_memory(p))
    err_mass = sum((w for m, w in d.support.items() if m.error), Fraction(0))
    assert err_mass == Fraction(1, 2)
    # the sentinel satisfies every bad event via prob_upper
    assert d.prob_upper(lambda m: False) == Fraction(1, 2)


# ── sampled trials ──


def test_run_trial_assignment():
    p = prog("var x : int;\nproc main(u) { x <- 1; } return x")
    mem = run_trial(p, "main", 0, {}, seed=3)
    assert mem.get("x") == 1 and mem.get("res") == 1
    # a set literal, on the trial path and the exact one
    p = prog("var R : set<int>;\nproc main(u) { R <- {1, 2, 1}; } return 0")
    assert run_trial(p, "main", 0, {}, seed=3).get("R") == frozenset({1, 2})
    d = denote_exact(p, p.procs["main"].body, initial_memory(p))
    assert [m.get("R") for m in d.support] == [frozenset({1, 2})]


def test_trial_determinism():
    a = run_trial(TWO_COINS, "main", 0, {}, seed=9, trial=4)
    b = run_trial(TWO_COINS, "main", 0, {}, seed=9, trial=4)
    assert a == b
    c = run_trial(TWO_COINS, "main", 0, {}, seed=10, trial=4)
    assert isinstance(c.get("x"), bool)


def test_rnm_dominant_candidate_always_wins():
    from ubhl.cases.registry import build_case

    case = build_case("rnm", {"size": 10, "eps": 4.0, "beta": 0.2,
                              "qscore": [100 if i == 0 else 0 for i in range(10)]})
    p = prog(case.source)
    wins = 0
    for t in range(200):
        mem = run_trial(p, "main", 0, {}, seed=42, trial=t,
                        overrides=case.overrides)
        wins += mem.get("res") == 0
    assert wins >= 198


def test_estimate_failure_boundaries():
    report = estimate_failure(TWO_COINS, "main", 0, {}, parse_expr("false"),
                              trials=100, seed=1)
    assert report.failures == 0
    report2 = estimate_failure(TWO_COINS, "main", 0, {}, parse_expr("x == true"),
                               trials=4000, seed=1)
    assert 0.46 < report2.failure_rate < 0.54
    assert report2.clopper_pearson_upper_95 > report2.failure_rate


@pytest.mark.parametrize("trials", [0, -3])
def test_estimate_failure_refuses_a_count_below_one(trials):
    with pytest.raises(ValueError, match="^trials must be positive$"):
        estimate_failure(TWO_COINS, "main", 0, {}, parse_expr("false"),
                         trials=trials, seed=1)


def test_monte_carlo_matches_exact():
    src = """
var x : int;
var y : bool;
proc main(u) {
  x <$ unifint(0, 4);
  y <$ bern(1/3);
} return x
"""
    p = prog(src)
    bad = parse_expr("x >= 3 || y == true")
    d = denote_exact(p, Call(LValue("res"), "main", NumLit(Fraction(0))),
                     initial_memory(p).set("res", 0))
    exact = float(d.prob_upper(lambda m: bool(eval_in_memory(bad, m))))
    report = estimate_failure(p, "main", 0, {}, bad, trials=20000, seed=11)
    assert abs(report.failure_rate - exact) < 0.02


def test_clopper_pearson_known_values():
    # 0/n at 95%: upper = 1 - 0.05^(1/n)
    for n in (10, 100):
        got = clopper_pearson_upper(0, n)
        want = 1 - 0.05 ** (1 / n)
        assert abs(got - want) < 1e-6
    assert clopper_pearson_upper(5, 5) == 1.0


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 60), st.integers(1, 8))
def test_memory_round_trip(x, n):
    m = Memory({"a": x, "b": Fraction(1, n)}.items())
    assert m.get("a") == x
    m2 = m.set("a", x + 1)
    assert m.get("a") == x and m2.get("a") == x + 1
    assert hash(m) == hash(Memory({"b": Fraction(1, n), "a": x}.items()))


_NAMES = st.sampled_from(("a", "b", "res", "w", "x"))
_VALUES = st.one_of(st.integers(-3, 3), st.booleans(),
                    st.fractions(min_value=-2, max_value=2, max_denominator=4))


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_NAMES, _VALUES), st.lists(st.tuples(_NAMES, _VALUES), max_size=6))
def test_memory_fast_paths_match_the_sorting_constructor(seed, writes):
    """A store seeded in name order and then written, some writes adding
    a name, gives on the fast paths (`Memory.of_written`, `Memory.set`)
    the memory the sorting constructor gives: equal, with equal hash
    and repr."""
    store = dict(sorted(seed.items()))
    seeded, mem = len(store), Memory(store.items())
    for name, value in writes:
        store[name] = value
        mem = mem.set(name, value)
    want = Memory(store.items())
    for got in (Memory.of_written(tuple(store.items()), seeded), mem):
        assert got == want
        assert hash(got) == hash(want)
        assert repr(got) == repr(want)


# ── one classification of runtime failures on every path ──

FAULTY = {
    "empty-unifint": "var u : int;\nproc main(w) { u <$ unifint(5, 2); } return u",
    "division-by-zero": "var x : real;\nproc main(w) { x <- 1 / (w - w); } return x",
    "log-of-zero": "var x : real;\nproc main(w) { x <- log(w - w); } return x",
    "loop-cap": "var i : int;\nproc main(w) { while (true) { i <- i + 1; } } return i",
    # dp built-ins that reject their arguments
    "evalq-dimension": ("var q : query;\nvar x : real;\n"
                        "proc main(w) { x <- evalQ(q, mwInit(1, 2, 1)); } return x"),
    "mwinit-universe": "var d : db;\nproc main(w) { d <- mwInit(1, 1, 1); } return w",
    "mwstep-dimension": ("var q : query;\nvar d : db;\n"
                         "proc main(w) { d <- mwStep(mwInit(1, 2, 1), q, 1, 1); } return w"),
}


@pytest.mark.parametrize("name", sorted(FAULTY))
def test_runtime_failure_classified_alike_on_every_path(name):
    """Trial, ghost and exact paths all count the faulty run as a
    failure: an aborted or erroring trial, or mass on the error memory
    or the residual, never an escaping exception."""
    from ubhl.embed.runtime import run_ghost_trial
    from ubhl.semantics.rng import TrialRng
    from ubhl.semantics.trial import CompiledProgram, RunState, TrialAborted

    p = prog(FAULTY[name])
    report = estimate_failure(p, "main", 0, {}, parse_expr("false"),
                              trials=5, seed=1, loop_cap=50)
    assert report.failures == 5
    with pytest.raises((TrialAborted, UbhlRuntimeError)):
        run_trial(p, "main", 0, {}, seed=1, loop_cap=50)
    # the ghost path keeps its default cap; the loop is cut on the run state
    if name == "loop-cap":
        with pytest.raises(TrialAborted):
            CompiledProgram(p, sites={}).execute(
                "main", 0, RunState(TrialRng(1, 0), {}, loop_cap=50))
    else:
        with pytest.raises(UbhlRuntimeError):
            run_ghost_trial(p, "main", 0, {}, {}, seed=1)
    d = denote_exact(p, p.procs["main"].body, initial_memory(p).set("w", 0),
                     Budget(max_loop_iters=20))
    assert d.prob_upper(lambda m: False) == 1
    assert sum(d.support.values()) == 0 or all(m.error for m in d.support)


# ── quantifier-invariant subterms are hoisted ──

_VARS = st.sampled_from(("x", "n", "j", "k")).map(Var)
_LEAF_TERMS = st.one_of(_VARS, st.integers(-1, 3).map(lambda v: NumLit(Fraction(v))))
_TERMS = st.one_of(
    _LEAF_TERMS,
    st.builds(BinOp, st.sampled_from("+-*/"), _LEAF_TERMS, _LEAF_TERMS),
    st.builds(lambda f, a: FuncCall(f, (a,)), st.sampled_from(("log", "abs")), _LEAF_TERMS))


_CONNECTIVES = st.sampled_from(("&&", "||", "==>"))


def _formulas(depth):
    atom = st.builds(BinOp, st.sampled_from(("<", "<=", "==")), _TERMS, _TERMS)
    if depth == 0:
        return atom
    sub = _formulas(depth - 1)
    return st.one_of(atom, st.builds(BinOp, _CONNECTIVES, sub, sub),
                     sub.map(lambda f: UnOp("!", f)))


def _quantified(levels):
    """A quantifier whose body holds one nested at `levels` - 1 deep."""
    if levels == 1:
        body = _formulas(2)
    else:
        inner = _quantified(levels - 1)
        body = st.one_of(inner, st.builds(BinOp, _CONNECTIVES, _formulas(1), inner),
                         st.builds(BinOp, _CONNECTIVES, inner, _formulas(1)))

    # bounds cannot raise, so unrolling can evaluate them ahead of time
    def bound(lits):
        return st.one_of(st.sampled_from(lits).map(lambda v: NumLit(Fraction(v))), _VARS)
    return st.builds(
        lambda kind, var, lo, hi, body: Quant(kind, var, RangeDom(lo, hi), body),
        st.sampled_from(("exists", "forall")),
        # an inner quantifier mostly binds a new name, sometimes the outer one
        st.just("j") if levels > 1 else st.sampled_from(("k", "k", "j")),
        bound((-1, 0, 1)), bound((1, 2, 3)), body)


def _unrolled(e, store):
    """`e` with each bounded quantifier replaced by the `||` (exists) or
    `&&` (forall) chain of its instances, each made by `subst_expr`:
    quantifier-free, so it compiles with nothing to hoist."""
    if not isinstance(e, Quant):
        return map_children(e, lambda x: _unrolled(x, store))
    lo, hi = eval_expr(e.dom.lo, store), eval_expr(e.dom.hi, store)
    op, chain = ("||", BoolLit(False)) if e.kind == "exists" else ("&&", BoolLit(True))
    for v in reversed(range(math.ceil(lo), math.floor(hi) + 1)):
        chain = BinOp(op, _unrolled(subst_expr(e.body, e.var, NumLit(Fraction(v))), store),
                      chain)
    return chain


def _outcome(code, store):
    try:
        v = code(store)
    except UbhlRuntimeError as exc:
        return type(exc), str(exc)
    return type(v), v


@settings(max_examples=300, deadline=None)
@given(st.one_of(_quantified(1), _quantified(2)),
       st.fixed_dictionaries({v: st.integers(-1, 3) for v in ("x", "n", "j", "k")}))
def test_hoisted_quantifier_agrees_with_unrolled_instances(e, store):
    """Same value, or the same exception class and message, as the
    instances evaluated one by one."""
    assert _outcome(compile_expr(e), store) == \
        _outcome(compile_expr(_unrolled(e, store)), store)


@pytest.mark.parametrize("text, want", [
    # an invariant that raises, behind a false left operand
    ("exists j in 1 .. 3 . j > 5 && log(0) < j", False),
    ("forall j in 1 .. 3 . j < 5 || 1 / 0 > j", True),
    # an empty range evaluates no invariant
    ("exists j in 1 .. 0 . log(0) < j", False),
    ("forall j in 1 .. 0 . 1 / 0 > j", True),
    # the inner binder rebinds the outer name
    ("exists j in 1 .. 2 . exists j in 3 .. 4 . j == 3", True),
    ("forall j in 1 .. 2 . (j + 0 <= 2 && forall j in 5 .. 6 . j >= 5)", True),
    # an inner subterm that mentions only the outer variable
    ("forall i in 1 .. 3 . exists j in 1 .. 1 . i + i == 2 * i", True),
    ("exists i in 1 .. 3 . forall j in 1 .. 2 . i * i == 9", True),
])
def test_hoisting_keeps_laziness_and_scoping(text, want):
    e = parse_expr(text)
    assert eval_expr(e, {}) is want
    assert compile_expr(_unrolled(e, {}))({}) is want


def test_invariant_evaluated_once_per_quantifier_evaluation(monkeypatch):
    from ubhl.dp import queries

    calls = []
    real = queries.eval_query
    monkeypatch.setattr(queries, "eval_query", lambda q, d: calls.append(1) or real(q, d))
    store = {"q": Query(Fraction(0), (Fraction(1),)), "d": Database((Fraction(2),))}
    e = parse_expr("forall i in 1 .. 3 . forall j in 1 .. 4 . evalQ(q, d) + i > j - 3")
    assert eval_expr(e, store) is True
    # once per evaluation of the inner quantifier, not once per (i, j)
    assert len(calls) == 3


def test_equal_expressions_share_one_compiled_closure():
    assert compiled_expr(parse_expr("x + 1")) is compiled_expr(parse_expr("x + 1"))
    as_int, as_real = NumLit(Fraction(1), INT), NumLit(Fraction(1), REAL)
    assert as_int != as_real
    assert type(compiled_expr(as_int)({})) is int
    assert type(compiled_expr(as_real)({})) is Fraction


# ── arrays ──


def _set_by_sorting(a, idx, value):
    """`ArrayVal.set` as a dict rebuilt and sorted on every write."""
    m = dict(a.items)
    if value == a.default and idx not in m:
        return a
    m[idx] = value
    return ArrayVal(a.default, tuple(sorted(m.items())))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 6), st.integers(0, 2)), max_size=12))
def test_array_writes_match_the_sorting_reference(writes):
    """Writes at increasing, decreasing and existing indexes, including
    the default value 0."""
    got = want = ArrayVal(0)
    for idx, value in writes:
        got, want = got.set(idx, value), _set_by_sorting(want, idx, value)
        assert got.items == want.items
        assert hash(got) == hash((got.default, got.items))


def test_array_pickle_leaves_out_the_kept_hash():
    a = ArrayVal(Fraction(0), ((1, Fraction(1, 2)), (4, Fraction(3))))
    hash(a)
    b = pickle.loads(pickle.dumps(a))
    assert b == a and "_hash" not in vars(b)
    assert hash(b) == hash(a)


def test_exact_sv_under_its_fixed_adversary():
    """The trials' adversary objects drive exact enumeration too: sv at
    Q = 1 under its fixed query sequence loses no mass, its bad event
    holds on no enumerated memory, and the bound (the Laplace tails
    beyond the radius) is below the theorem's index beta."""
    from ubhl.cases import build_case

    case = build_case("sv", {"Q": 1})
    program = prog(case.source)
    dist = denote_exact(program, Call(LValue("res"), "main", NumLit(Fraction(0))),
                        initial_memory(program, case.overrides), Budget(laplace_radius=12),
                        adversaries={"adv": case.adversary_menu["fixed"]})
    assert dist.weight() + dist.residual == 1
    assert not any(m.error or eval_in_memory(case.bad_event, m, case.logical_env)
                   for m in dist.support)
    bound = dist.prob_upper(lambda m: bool(eval_in_memory(case.bad_event, m, case.logical_env)))
    assert bound == dist.residual
    assert 0 < bound <= eval_expr(case.index, case.logical_env) == Fraction(1, 5)


# ── eval_in_memory evaluates each distinct read once ──

_MEMO_EXPRS = ("a", "a + b", "a / b", "1 / a", "a[0] + b", "a[1]", "a < b",
               "exists j in 0 .. 2 . j + a == b", "forall j in 0 .. b . a[j] <= j")
_MEMO_VALUES = st.sampled_from([
    0, 3, Fraction(0), Fraction(3), Fraction(1, 2), True, False, frozenset({1}),
    ArrayVal(0), ArrayVal(Fraction(0)), ArrayVal(0, ((0, 3),)),
    ArrayVal(0, ((0, Fraction(3)),)), ArrayVal(False)])
_MEMO_ENV = st.one_of(_MEMO_VALUES, st.sampled_from([[1, 2], {"k": 1}]))


def _reference_outcome(e, mem, env):
    """(value, type) or (error class, message) of the plain evaluation
    on the whole store, memory bindings over logical ones."""
    return _outcome_of(lambda: compile_expr(e)({**env, **mem.to_dict()}))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(_MEMO_EXPRS),
                          st.dictionaries(st.sampled_from("ab"), _MEMO_VALUES),
                          st.dictionaries(st.sampled_from("ab"), _MEMO_ENV)),
                min_size=1, max_size=6))
def test_eval_in_memory_matches_the_whole_store(asks):
    """Asked in turn, each answer is the whole store's: the same value
    and type, or the same error class and message, whatever was asked
    before it."""
    for text, mem, env in asks:
        e, m = parse_expr(text), Memory(mem.items())
        assert _outcome_of(eval_in_memory, e, m, env) == _reference_outcome(e, m, env)


@pytest.mark.parametrize("text, asks", [
    # equal values of two kinds under one name, in both orders
    ("a + 1", [{"a": 3}, {"a": Fraction(3)}, {"a": 3}]),
    ("a[0]", [{"a": ArrayVal(0)}, {"a": ArrayVal(Fraction(0))}, {"a": ArrayVal(False)}]),
    # a division by zero raises each time it is asked
    ("1 / a", [{"a": 0}, {"a": 0}, {"a": 2}, {"a": 0}]),
    ("exists j in 0 .. 2 . j / a == 1", [{"a": 0}, {"a": 0}]),
    # so does an evaluation's own TypeError
    ("a < 1", [{"a": frozenset({1})}, {"a": frozenset({1})}]),
])
def test_eval_in_memory_repeats_keep_their_type(text, asks):
    e = parse_expr(text)
    for mem in asks:
        m = Memory(mem.items())
        assert _outcome_of(eval_in_memory, e, m, {}) == _reference_outcome(e, m, {})


def test_eval_in_memory_bindings_and_fallbacks():
    # a store term read at the written index and at another one
    a = ArrayVal(0, ((0, 10), (1, 20)))
    for j, want in ((1, 7), (0, 10)):
        e = parse_expr(f"store(a, 1, 7)[{j}]")
        assert eval_expr(e, {"a": a}) == want
        assert eval_in_memory(e, Memory({"a": a}.items())) == want
    e = parse_expr("a + b")
    # the memory's binding shadows the logical one
    assert eval_in_memory(e, Memory({"a": 1, "b": 2}.items()), {"a": 10}) == 3
    assert eval_in_memory(e, Memory({"b": 2}.items()), {"a": 10}) == 12
    # bound in neither: the whole store's error, with its message
    with pytest.raises(UnboundVariableError, match="unbound variable 'b'"):
        eval_in_memory(e, Memory({"a": 1}.items()))
    # an unhashable logical value is read from the whole store
    assert eval_in_memory(parse_expr("b"), Memory(), {"b": [1, 2]}) == [1, 2]
    assert eval_in_memory(parse_expr("a"), Memory({"a": 1}.items()), {"b": [1, 2]}) == 1


def test_prob_upper_counts_a_raising_predicate_as_matching():
    """A memory on which the bad event raises a runtime error counts
    against the bound, as the failing trial counts as a failure."""
    p = prog("var x : int;\nproc main(w) {\n  x <$ unifint(0, 3);\n} return 0")
    bad = parse_expr("1 / x > 1/2")
    d = denote_exact(p, Call(LValue("res"), "main", NumLit(Fraction(0))), initial_memory(p))
    assert d.prob_upper(lambda m: bool(eval_in_memory(bad, m))) == Fraction(1, 2)
    report = estimate_failure(p, "main", 0, {}, bad, trials=200, seed=1)
    assert report.failures == 98
