import pytest

from ubhl.lang.ast import QUERY
from ubhl.lang.parser import parse_expr, parse_program
from ubhl.lang.typecheck import (
    ExternalMemoryViolation, TypeMismatch, UbhlTypeError, UnboundVariable,
    assertion_env, check_assertion, expr_type, typecheck,
)
from ubhl.cases.programs import MWSV_SOURCE, RNM_SOURCE, SV_SOURCE


def test_bool_assigned_arithmetic_rejected():
    src = "var b : bool;\nproc main(x) { b <- 1 + 2; } return 0"
    with pytest.raises(TypeMismatch):
        typecheck(parse_program(src))


def test_unbound_variable():
    src = "proc main(x) { y <- 1; } return 0"
    with pytest.raises(UnboundVariable):
        typecheck(parse_program(src))


@pytest.mark.parametrize("source", [RNM_SOURCE, SV_SOURCE, MWSV_SOURCE])
def test_shipped_sources_typecheck(source):
    typecheck(parse_program(source))


def test_sv_query_array_cell_types_as_query():
    p = parse_program(SV_SOURCE)
    tp = typecheck(p)
    assert expr_type(parse_expr("q[u]"), tp.env) == QUERY


def test_internal_read_of_external_memory_rejected():
    src = """
var x : int;
extvar secret : int;
proc main(w) { x <- secret; } return x
"""
    with pytest.raises(ExternalMemoryViolation):
        typecheck(parse_program(src))


def test_internal_write_of_external_memory_rejected():
    src = """
extvar secret : int;
proc main(w) { secret <- 1; } return 0
"""
    with pytest.raises(ExternalMemoryViolation):
        typecheck(parse_program(src))


def test_guards_must_be_bool():
    src = "var x : int;\nproc main(w) { if (x + 1) { skip; } } return 0"
    with pytest.raises(TypeMismatch):
        typecheck(parse_program(src))


def test_dist_parameter_types():
    src = "var x : real;\nvar b : bool;\nproc main(w) { x <$ lap(b, 0); } return 0"
    with pytest.raises(TypeMismatch):
        typecheck(parse_program(src))


def test_quantifiers_rejected_in_program_code():
    src = """
var b : bool;
var R : set<int>;
proc main(w) { b <- forall s in R . s > 0; } return 0
"""
    with pytest.raises(TypeMismatch):
        typecheck(parse_program(src))


def test_assertion_sort_checking():
    from ubhl.lang.ast import REAL, SETINT

    p = parse_program(RNM_SOURCE)
    env = assertion_env(p, {"beta": REAL, "R0": SETINT})
    check_assertion(
        parse_expr("forall s in R0 . s in R || abs(noisy[s] - qscore[s])"
                   " <= (2/eps)*log(size(R0)/beta)"), env)
    with pytest.raises(TypeMismatch):
        check_assertion(parse_expr("noisy[r] + 1"), env)


def test_havoc_and_assume_typing():
    ok = "var x : real;\nproc main(w) { havoc x; assume x >= 0 && forall j in 0 .. 3 . j <= x; } return 0"
    typecheck(parse_program(ok))
    with pytest.raises(UnboundVariable):
        typecheck(parse_program("proc main(w) { havoc y; } return 0"))
    with pytest.raises(TypeMismatch):
        typecheck(parse_program("var x : real;\nproc main(w) { assume x + 1; } return 0"))
    with pytest.raises(ExternalMemoryViolation):
        typecheck(parse_program("extvar h : int;\nproc main(w) { havoc h; } return 0"))


RECURSIVE = ("var y : int;\n"
             "proc f(x) { if (x > 0) { y <- f(x - 1); } } return y\n"
             "proc main(u) { y <- f(3); } return y\n")


@pytest.mark.parametrize("source,cycle", [
    (RECURSIVE, "f -> f"),
    ("var y : int;\nvar v : int;\n"
     "proc main(u) { y <- g(1); } return y\n"
     "proc g(x) { y <- h(x); } return y\n"
     "proc h(v) { y <- g(v); } return y\n", "g -> h -> g"),
])
def test_recursive_procedures_rejected(source, cycle):
    with pytest.raises(UbhlTypeError, match=f"^recursive procedure: {cycle}$"):
        typecheck(parse_program(source))
