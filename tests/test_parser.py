import dataclasses
import typing

import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ubhl.lang import ast as A
from ubhl.lang.parser import (
    DuplicateProcedure, UbhlSyntaxError, parse_expr, parse_program, tokenize,
)
from ubhl.cases.programs import MWSV_SOURCE, RNM_SOURCE, SV_SOURCE


def test_identity_program():
    p = parse_program("proc main(x) { skip; } return x")
    assert list(p.procs) == ["main"]
    proc = p.procs["main"]
    assert isinstance(proc.body, A.Skip)
    assert proc.ret == A.Var("x")


def test_missing_rhs_is_a_positioned_error():
    with pytest.raises(UbhlSyntaxError) as err:
        parse_program("proc main(x) { x <- ; } return x")
    assert err.value.line == 1
    assert "right-hand side" in str(err.value)


def test_duplicate_procedure():
    src = "proc f(x) { skip; } return x proc f(y) { skip; } return y"
    with pytest.raises(DuplicateProcedure):
        parse_program(src)


def test_rnm_listing_shape():
    p = parse_program(RNM_SOURCE)
    body = p.procs["main"].body
    # flag <- true; best <- 0; while ...
    assert isinstance(body, A.Seq)
    loop = body.second.second
    assert isinstance(loop, A.While)
    # r <- pick(R); noisy[r] <$ ...; if ...; R <- remove(R, r)
    rest = loop.body.second.second
    site = loop.body.second.first
    assert [type(c) for c in (loop.body.first, site, rest.first, rest.second)] == \
        [A.Assign, A.Sample, A.If, A.Assign]
    assert site.dist.name == "lap"
    assert site.target == A.LValue("noisy", A.Var("r"))
    # scale eps/2 centered at the quality score
    assert site.dist.args[0] == A.BinOp("/", A.Var("eps"), A.NumLit(Fraction(2)))
    assert site.dist.args[1] == A.Index(A.Var("qscore"), A.Var("r"))


def test_sampling_and_external_call_arrows():
    src = """
var y : real;
var qv : query;
extern a(bool) : query;
proc main(x) {
  y <$ lap(1, 0);
  qv <@ a(true);
} return 0
"""
    p = parse_program(src)
    body = p.procs["main"].body
    assert isinstance(body.first, A.Sample)
    assert isinstance(body.second, A.ExtCall)


def test_internal_call_resolution():
    src = """
var y : int;
proc helper(v) { y <- v + 1; } return y
proc main(x) { y <- helper(3); } return y
"""
    p = parse_program(src)
    main_body = p.procs["main"].body
    assert isinstance(main_body, A.Call)
    assert main_body.proc == "helper"


def test_quantifier_syntax():
    e = parse_expr("forall s in R0 . s in R || noisy[s] <= best")
    assert isinstance(e, A.Quant)
    assert isinstance(e.dom, A.SetDom)
    e2 = parse_expr("forall j in 1 .. Q . j > 0")
    assert isinstance(e2.dom, A.RangeDom)
    e3 = parse_expr("forall v : real . v == v")
    assert isinstance(e3.dom, A.SortDom)


@pytest.mark.parametrize("source", [RNM_SOURCE, SV_SOURCE, MWSV_SOURCE])
def test_pretty_print_round_trip_cases(source):
    p1 = parse_program(source)
    p2 = parse_program(A.pretty_program(p1))
    assert p1.procs == p2.procs
    assert p1.vars == p2.vars
    assert p1.extvars == p2.extvars
    assert p1.externs == p2.externs


def test_expr_round_trip_samples():
    samples = [
        "x + 1 * y",
        "(x + 1) * y",
        "a <= b && !(c || d)",
        "abs(noisy[r] - qscore[r]) <= (2/eps)*log(size(R0)/beta)",
        "forall j in 1 .. u - 1 . q[j] in R0",
        "{1, 2, 3}",
        "x ==> y ==> z",
        "store(noisy, r, v)[s] == noisy[s]",
    ]
    for text in samples:
        e1 = parse_expr(text)
        e2 = parse_expr(A.pretty_expr(e1))
        assert e1 == e2, text


def test_subst_expr_examples():
    e = parse_expr("x + 1")
    assert A.pretty_expr(A.subst_expr(e, "x", A.NumLit(Fraction(2)))) == "2 + 1"
    e2 = parse_expr("y")
    assert A.subst_expr(e2, "x", A.NumLit(Fraction(2))) == e2
    e3 = parse_expr("evalQ(q, d)")
    got = A.subst_expr(e3, "q", parse_expr("negQ(q)"))
    assert A.pretty_expr(got) == "evalQ(negQ(q), d)"


def test_subst_avoids_capture():
    e = parse_expr("forall s in R . s < x")
    got = A.subst_expr(e, "x", A.Var("s"))
    assert isinstance(got, A.Quant)
    assert got.var != "s"  # bound name renamed away from the payload


def test_modified_vars_examples():
    assert A.modified_vars(A.Skip()) == set()
    p = parse_program("""
var x : int;
var y : real;
proc main(w) { x <- 1; y <$ lap(1, 0); } return x
""")
    assert A.modified_vars(p.procs["main"].body, p) == {"x", "y"}
    rnm = parse_program(RNM_SOURCE)
    loop = rnm.procs["main"].body.second.second
    got = A.modified_vars(loop.body, rnm)
    assert got == {"r", "noisy", "flag", "rstar", "best", "R"}


COMMAND_CLASSES = sorted((c for c in vars(A).values()
                          if isinstance(c, type) and issubclass(c, A.Command) and c is not A.Command),
                         key=lambda c: c.__name__)


def _probe_field(name: str, t):
    """A value of field type `t`, distinct for each field `name`."""
    if t is A.LValue:
        return A.LValue(f"w_{name}", A.Var(f"i_{name}"))
    if t is A.Expr:
        return A.Var(f"e_{name}")
    if t is A.Command:
        return A.Assign(A.LValue(f"c_{name}"), A.Var(f"e_{name}"))
    if t == tuple[A.Expr, ...]:
        return (A.Var(f"e_{name}0"), A.Var(f"e_{name}1"))
    if t is A.DistExpr:
        return A.DistExpr("lap", (A.Var(f"e_{name}0"), A.Var(f"e_{name}1")))
    assert t is str, f"no probe for field {name} : {t}"
    return f"s_{name}"


@pytest.mark.parametrize("cls", COMMAND_CLASSES, ids=lambda c: c.__name__)
def test_command_parts_covers_every_field(cls):
    """Every lvalue, expression and command a command node holds is
    among its parts, so `modified_vars` and typecheck, which read only
    `command_parts`, see all of it."""
    hints = typing.get_type_hints(cls)
    values = {f.name: _probe_field(f.name, hints[f.name]) for f in dataclasses.fields(cls)}
    writes, evaluated, subs = A.command_parts(cls(**values))
    for v in values.values():
        if isinstance(v, A.LValue):
            assert v in writes and v.idx in evaluated
        elif isinstance(v, A.Expr):
            assert v in evaluated
        elif isinstance(v, A.Command):
            assert v in subs
        elif isinstance(v, (tuple, A.DistExpr)):
            assert set(getattr(v, "args", v)) <= set(evaluated)


def test_havoc_and_assume_statements():
    src = ("var a : real[];\nvar i : int;\n\nproc main(w) {\n"
           "  havoc a[i];\n  assume forall j in 0 .. i . a[j] >= 0;\n} return i\n")
    p = parse_program(src)
    body = p.procs["main"].body
    assert body.first == A.Havoc(A.LValue("a", A.Var("i")))
    assert isinstance(body.second, A.Assume)
    assert A.pretty_program(p) == src


# (parser entry, source, line, col, message) of malformed inputs
SYNTAX_ERRORS = [
    ("expr", "a +", 1, 4, "expected expression, found ''"),
    ("expr", "a < b < c", 1, 7, "unexpected trailing input '<'"),
    ("expr", "a == b != c", 1, 8, "unexpected trailing input '!='"),
    ("expr", "a in b in c", 1, 8, "unexpected trailing input 'in'"),
    ("expr", "(a", 1, 3, "expected ')', found ''"),
    ("expr", "(a < b < c)", 1, 8, "expected ')', found '<'"),
    ("expr", "x && a < b < c", 1, 12, "unexpected trailing input '<'"),
    ("expr", "a ==> b < c < d", 1, 13, "unexpected trailing input '<'"),
    ("expr", "a # b", 1, 3, "unexpected character '#'"),
    ("expr", "forall x in 1 .. . x", 1, 18, "expected expression, found '.'"),
    ("expr", "forall x in R x", 1, 15, "expected '.', found 'x'"),
    ("expr", "forall x in a < b . x", 1, 15, "expected '.', found '<'"),
    ("expr", "{1, 2", 1, 6, "expected '}', found ''"),
    ("expr", "a // c\n<", 2, 2, "expected expression, found ''"),
    ("expr", "a + // c", 1, 9, "expected expression, found ''"),
    ("expr", "store(a, 1)", 1, 11, "expected ',', found ')'"),
    ("expr", "a ..b", 1, 3, "unexpected trailing input '..'"),
    ("expr", "", 1, 1, "expected expression, found ''"),
    ("expr", "1²", 1, 2, "unexpected character '²'"),
    ("expr", "² + 1", 1, 1, "unexpected character '²'"),
    ("prog", "proc main(w) { x <$ gauss(1); } return x", 1, 21,
     "unknown distribution constructor 'gauss'"),
    ("prog", "var x : int; var x : int; proc main(w) { skip; } return w", 1, 18,
     "duplicate variable 'x'"),
    ("prog", "proc main(w) { x = 1; } return w", 1, 18,
     "expected '<-', '<$' or '<@' after lvalue"),
    ("prog", "proc main(w) { skip; } return w junk", 1, 33,
     "unexpected trailing input 'junk'"),
    ("prog", "var x : set<real>; proc m(w) { skip; } return w", 1, 13,
     "expected 'int', found 'real'"),
    ("prog", "var y : int;\nproc h(v) { skip; } return v\n"
     "proc main(x) { y <- h(1, 2); } return y", 3, 21,
     "internal procedure 'h' takes exactly one argument"),
    ("prog", "var y : int;\nproc h(v) { skip; } return v\n"
     "proc main(x) { y <- h(1) + 1; } return y", 3, 21,
     "procedure 'h' may only be called as 'x <- h(e);'"),
    ("prog", "var y : int;\nproc h(v) { skip; } return v\n"
     "proc main(x) { if (h(1) > 0) { skip; } } return y", 3, 20,
     "procedure 'h' may only be called as 'x <- h(e);'"),
]


@pytest.mark.parametrize("entry,text,line,col,msg", SYNTAX_ERRORS)
def test_syntax_error_positions(entry, text, line, col, msg):
    parse = parse_expr if entry == "expr" else parse_program
    with pytest.raises(UbhlSyntaxError) as err:
        parse(text)
    assert (err.value.line, err.value.col, err.value.msg) == (line, col, msg)


def test_comment_advances_the_column():
    eof = tokenize("x // hi")[-1]
    assert (eof.kind, eof.line, eof.col) == ("eof", 1, 8)


def test_identifiers_start_with_a_letter_or_underscore():
    assert parse_expr("_t + é1 + x²") == A.BinOp(
        "+", A.BinOp("+", A.Var("_t"), A.Var("é1")), A.Var("x²"))


def test_printer_keeps_left_nested_implication_and_comparison():
    a, b, c = A.Var("a"), A.Var("b"), A.Var("c")
    assert A.pretty_expr(A.BinOp("==>", A.BinOp("==>", a, b), c)) == "(a ==> b) ==> c"
    assert A.pretty_expr(parse_expr("(a < b) == true")) == "(a < b) == true"
    assert A.pretty_expr(parse_expr("(-a)[i] + 1.0")) == "(-a)[i] + 1.0"


_NAMES = st.sampled_from(["a", "b", "x", "s", "R", "q_1"])
_LEAVES = st.one_of(
    _NAMES.map(A.Var),
    st.booleans().map(A.BoolLit),
    st.integers(0, 10 ** 6).map(lambda n: A.NumLit(Fraction(n))),
    st.builds(lambda n, k: A.NumLit(Fraction(n, 10 ** k), A.REAL),
              st.integers(0, 10 ** 6), st.integers(1, 4)),
)
_SORTS = st.sampled_from([A.INT, A.REAL, A.BOOL, A.SETINT, A.ArrayT(A.ArrayT(A.INT))])


def _compound(sub):
    args = st.lists(sub, max_size=3).map(tuple)
    domain = st.one_of(sub.map(A.SetDom), st.builds(A.RangeDom, sub, sub),
                       _SORTS.map(A.SortDom))
    return st.one_of(
        st.builds(A.BinOp, st.sampled_from(sorted(A.BINARY_OPS)), sub, sub),
        st.builds(A.UnOp, st.sampled_from(["!", "-"]), sub),
        st.builds(A.Index, sub, sub),
        st.builds(A.Store, sub, sub, sub),
        st.builds(A.FuncCall, _NAMES, args),
        args.map(A.SetLit),
        st.builds(A.Quant, st.sampled_from(["forall", "exists"]), _NAMES, domain, sub),
    )


@settings(max_examples=400, deadline=None)
@given(st.recursive(_LEAVES, _compound, max_leaves=12))
def test_printed_expressions_parse_back(e):
    assert parse_expr(A.pretty_expr(e)) == e


def test_renaming_substitution_is_repeatable():
    e = parse_expr("forall x : int . x <= y")
    first = A.subst_expr(e, "y", A.Var("x"))
    assert A.pretty_expr(first) == "forall x_1 : int . x_1 <= x"
    assert A.subst_expr(e, "y", A.Var("x")) == first
    assert A.fresh_name("v", {"v", "v_1", "v_3"}) == "v_2"
