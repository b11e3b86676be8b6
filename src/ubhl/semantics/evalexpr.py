"""Evaluation of expressions and assertions over a value store.

`compile_expr` turns an expression into a closure over a store once
(Feeley & Lapalme, "Using Closures for Code Generation", 1987); node
types are dispatched at compile time only. Every runtime error is
raised when the closure runs, at the node that causes it. A maximal
non-leaf subterm of a quantifier's body not mentioning the bound variable
runs at most once per evaluation of the quantifier, when first reached,
so short-circuiting, empty domains and the first runtime error stay.
`eval_expr` and `eval_in_memory` compile through one bounded cache.
`eval_in_memory` given an expression, not a closure, evaluates it once
per key of a second one: the expression and (name, kind, value) of each
name it reads, from the memory before `env`; a kind is the value's class,
an array's with its elements'. An unbound or unhashable read uses the whole store.

The store is any mapping from names to values; assertion callers chain
a memory with a logical environment. Arithmetic is exact on rationals;
log and the MW potential produce floats converted back to exact
Fractions so results stay hashable and reproducible.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Any, Callable, Mapping, Optional, Union

from ..dp import mw as dpmw
from ..dp import queries as dpq
from ..lang.ast import (
    BinOp, BoolLit, Expr, FuncCall, Index, IntT, LValue, NumLit, Quant,
    SetDom, SetLit, SortDom, Store, UnOp, Var, children, free_vars,
)
from .values import ArrayVal, Memory, Value

Code = Callable[[Mapping[str, Value]], Value]
Hoisting = Optional[tuple[str, dict, dict]]  # bound variable, `_mentions` memo, slots
_SLOTS, _UNSET = object(), object()  # scope key of a quantifier's slots; empty slot
_LEAVES = (Var, BoolLit, NumLit)
_RATIONALS = (int, Fraction)  # exact types, compared by identity: bool is not int
_DP_ERRORS = (dpq.DimensionMismatch, dpq.NotLinear, ValueError, ArithmeticError)


class UbhlRuntimeError(Exception):
    pass


class DivisionByZero(UbhlRuntimeError):
    pass


class UnboundVariableError(UbhlRuntimeError):
    pass


class UnboundedQuantifierAtRuntime(UbhlRuntimeError):
    pass


def _num(v: Value) -> Fraction:
    if isinstance(v, bool):
        raise UbhlRuntimeError("expected a number, got a bool")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, Fraction):
        return v
    raise UbhlRuntimeError(f"expected a number, got {v!r}")


def _size(a: list) -> Value:
    if isinstance(a[0], frozenset):
        return len(a[0])
    sz = dpq.db_size(a[0])
    return int(sz) if sz.denominator == 1 else sz


def _log(a: list) -> Fraction:
    x = float(_num(a[0]))
    if x <= 0:
        raise UbhlRuntimeError(f"log of non-positive value {x}")
    return Fraction(math.log(x))


# built-in functions over their evaluated argument list; the dp layer is
# looked up at call time, so a wrapped dp function is seen
_FUNCS: dict[str, Callable[[list], Value]] = {
    "evalQ": lambda a: dpq.eval_query(a[0], a[1]),
    "invQ": lambda a: dpq.inv_query(a[0]),
    "negQ": lambda a: dpq.neg_query(a[0]),
    "error": lambda a: dpq.error_query(a[0], a[1]),
    "size": _size,
    "pick": lambda a: min(a[0]) if a[0] else 0,  # total: empty set picks the int default
    "remove": lambda a: frozenset(x for x in a[0] if x != a[1]),
    "isempty": lambda a: len(a[0]) == 0,
    "setdiff": lambda a: frozenset(a[0]) - frozenset(a[1]),
    "abs": lambda a: abs(a[0]),
    "log": _log,
    "min": lambda a: min(a[0], a[1]),
    "max": lambda a: max(a[0], a[1]),
    "mwInit": lambda a: dpmw.mw_init(a[0], int(a[1]), int(a[2])),
    "mwStep": lambda a: dpmw.mw_step(a[0], a[1], a[2], int(a[3])),
    "potential": lambda a: Fraction(dpmw.potential(a[0], a[1])),
}


def _raises(exc: type, msg: str, *operands: Code) -> Code:
    """A closure that evaluates its operands, then raises: how an unknown
    node, operator or function fails when it runs."""
    def fail(s):
        for f in operands:
            f(s)
        raise exc(msg)
    return fail


def _var(e: Var, h: Hoisting) -> Code:
    name = e.name

    def var(s):
        try:
            return s[name]
        except KeyError:
            raise UnboundVariableError(f"unbound variable {name!r}") from None
    return var


def _const(v: Value) -> Code:
    return lambda s: v


def _set_lit(e: SetLit, h: Hoisting) -> Code:
    elems = [_compile(x, h) for x in e.elems]
    return lambda s: frozenset(int(f(s)) for f in elems)


def _un_op(e: UnOp, h: Hoisting) -> Code:
    a = _compile(e.arg, h)
    if e.op == "!":
        return lambda s: not a(s)
    if e.op == "-":
        return lambda s: -a(s)
    return _raises(UbhlRuntimeError, f"unknown unary op {e.op!r}", a)


def _divide(l: Code, r: Code) -> Code:
    """Exact division of int or Fraction operands as they are; any other
    operand goes through `_num`, which raises for a bool or a non-number."""
    def div(s):
        lv, rv = l(s), r(s)
        if type(lv) not in _RATIONALS or type(rv) not in _RATIONALS:
            lv, rv = _num(lv), _num(rv)
        if rv == 0:
            raise DivisionByZero("division by zero")
        return Fraction(lv, rv) if type(lv) is int and type(rv) is int else lv / rv
    return div


# binary operators as closure factories over the compiled operands;
# each evaluates left before right, and the logical ones short-circuit
_BINOPS: dict[str, Callable[[Code, Code], Code]] = {
    "&&": lambda l, r: lambda s: bool(l(s)) and bool(r(s)),
    "||": lambda l, r: lambda s: bool(l(s)) or bool(r(s)),
    "==>": lambda l, r: lambda s: (not l(s)) or bool(r(s)),
    "<==>": lambda l, r: lambda s: bool(l(s)) == bool(r(s)),
    "in": lambda l, r: lambda s: l(s) in r(s),
    "+": lambda l, r: lambda s: l(s) + r(s),
    "-": lambda l, r: lambda s: l(s) - r(s),
    "*": lambda l, r: lambda s: l(s) * r(s),
    "/": _divide,
    "<": lambda l, r: lambda s: l(s) < r(s),
    "<=": lambda l, r: lambda s: l(s) <= r(s),
    ">": lambda l, r: lambda s: l(s) > r(s),
    ">=": lambda l, r: lambda s: l(s) >= r(s),
    "==": lambda l, r: lambda s: l(s) == r(s),
    "!=": lambda l, r: lambda s: l(s) != r(s),
}


def _bin_op(e: BinOp, h: Hoisting) -> Code:
    l, r = _compile(e.left, h), _compile(e.right, h)
    make = _BINOPS.get(e.op)
    if make is None:
        return _raises(UbhlRuntimeError, f"unknown operator {e.op!r}", l, r)
    return make(l, r)


def _index(e: Index, h: Hoisting) -> Code:
    arr, idx = _compile(e.arr, h), _compile(e.idx, h)

    def index(s):
        a, i = arr(s), idx(s)
        if not isinstance(a, ArrayVal):
            raise UbhlRuntimeError("indexing a non-array value")
        return a.get(int(i))
    return index


def _store(e: Store, h: Hoisting) -> Code:
    arr, idx, val = _compile(e.arr, h), _compile(e.idx, h), _compile(e.value, h)

    def store(s):
        a, i, v = arr(s), idx(s), val(s)
        return a.set(int(i), v)
    return store


def _func_call(e: FuncCall, h: Hoisting) -> Code:
    """A built-in call; one or two arguments are evaluated without a
    loop. What a dp built-in raises on a bad argument (a dimension
    mismatch, a non-linear query, an invalid MW parameter) is re-raised
    as the program's runtime error, with the same message."""
    args = [_compile(a, h) for a in e.args]
    fn = _FUNCS.get(e.name)
    if fn is None:
        return _raises(UbhlRuntimeError, f"unknown function {e.name!r}", *args)
    n, (a0, a1, *_) = len(args), args + [None, None]

    def call(s):
        if n == 2:
            a = [a0(s), a1(s)]
        elif n == 1:
            a = [a0(s)]
        else:
            a = [f(s) for f in args]
        try:
            return fn(a)
        except _DP_ERRORS as exc:
            raise UbhlRuntimeError(str(exc)) from exc
    return call


def _mentions(e: Expr, var: str, memo: dict) -> bool:
    """Whether `var` is free in `e`, memoized per node of one compile."""
    if type(e) in _LEAVES:
        return type(e) is Var and e.name == var
    m = memo.get(id(e))
    if m is None:
        kids = children(e)
        if type(e) is Quant and e.var == var:
            kids = kids[:-1]  # a rebound `var` in the body is another variable
        m = memo[id(e)] = any([_mentions(x, var, memo) for x in kids])
    return m


def _slot(code: Code, k: int) -> Code:
    """`code`, run on first use in slot k of a quantifier evaluation."""
    def slot(s):
        vals = s[_SLOTS]
        v = vals[k]
        if v is _UNSET:
            v = vals[k] = code(s)
        return v
    return slot


def _quant(e: Quant, h: Hoisting) -> Code:
    """A bounded quantifier; `exists` stops at the first true body,
    `forall` at the first false one."""
    dom, var, exists = e.dom, e.var, e.kind != "forall"
    if isinstance(dom, SortDom):
        return _raises(UnboundedQuantifierAtRuntime,
                       f"cannot evaluate unbounded quantifier over {dom.sort}")
    slots: dict[Expr, Code] = {}
    body = _compile(e.body, (var, {}, slots))
    unset = [_UNSET] * len(slots)
    if isinstance(dom, SetDom):
        set_f = _compile(dom.set_expr, h)
        domain = lambda s: sorted(set_f(s))  # noqa: E731
    else:
        lo, hi = _compile(dom.lo, h), _compile(dom.hi, h)
        domain = lambda s: range(math.ceil(lo(s)), math.floor(hi(s)) + 1)  # noqa: E731

    def quant(s):
        values = domain(s)
        inner = dict(s)
        inner[_SLOTS] = unset[:]
        for v in values:
            inner[var] = v
            if bool(body(inner)) is exists:
                return exists
        return not exists
    return quant


_COMPILERS: dict[type, Callable[[Any, Hoisting], Code]] = {
    Var: _var,
    BoolLit: lambda e, h: _const(bool(e.value)),
    NumLit: lambda e, h: _const(int(e.value) if isinstance(e.type, IntT) else Fraction(e.value)),
    SetLit: _set_lit,
    UnOp: _un_op,
    BinOp: _bin_op,
    Index: _index,
    Store: _store,
    FuncCall: _func_call,
    Quant: _quant,
}


def _compile(e: Expr, h: Hoisting) -> Code:
    """`compile_expr` in scope `h`, where an invariant subterm is a slot."""
    make = _COMPILERS.get(type(e))
    if make is None:
        return _raises(UbhlRuntimeError, f"unknown expression node: {e!r}")
    if h is not None and type(e) not in _LEAVES and not _mentions(e, h[0], h[1]):
        if e not in h[2]:
            h[2][e] = _slot(make(e, None), len(h[2]))
        return h[2][e]
    return make(e, h)


def compile_expr(e: Expr) -> Code:
    """Closure computing `e` over a store; raises nothing itself."""
    return _compile(e, None)


compiled_expr = lru_cache(maxsize=1024)(compile_expr)


@lru_cache(maxsize=1024)
def compile_write(lv: LValue) -> Callable[[dict, Value], None]:
    """Closure storing a value at `lv` in a store: the index, if any, is
    evaluated when it runs, after the value."""
    base = lv.base
    if lv.idx is None:
        def write(store, value):
            store[base] = value
        return write
    idx = compile_expr(lv.idx)

    def write_at(store, value):
        i = int(idx(store))
        arr = store[base]
        if not isinstance(arr, ArrayVal):
            raise UbhlRuntimeError(f"{base!r} is not an array")
        store[base] = arr.set(i, value)
    return write_at


def _fraction(v: Value) -> Fraction:
    return v if type(v) is Fraction else Fraction(v)


def dist_params(name: str, a: list) -> tuple:
    """Checked parameters of distribution `name` from its evaluated
    arguments: (p) for bern, (lo, hi) for unifint, (eps, mean) for lap.
    Sampled, ghost and exact runs all check here, so a bad parameter
    is the same runtime error on every path."""
    if name == "bern":
        p = _fraction(a[0])
        if not 0 <= p <= 1:
            raise UbhlRuntimeError(f"bern parameter {p} outside [0,1]")
        return (p,)
    if name == "unifint":
        lo, hi = int(a[0]), int(a[1])
        if hi < lo:
            raise UbhlRuntimeError("unifint with empty range")
        return lo, hi
    if name == "lap":
        eps = _fraction(a[0])
        if eps <= 0:
            raise UbhlRuntimeError("lap scale must be positive")
        return eps, _fraction(a[1])
    raise UbhlRuntimeError(f"unknown distribution {name!r}")


def finite_support(name: str, params: tuple) -> list[tuple[Value, Fraction]]:
    """(value, mass) pairs of bern or unifint, from its `dist_params`.
    The kernel's finite_exact premise and the exact evaluator both
    enumerate here."""
    if name == "bern":
        p, = params
        return [(True, p), (False, 1 - p)]
    lo, hi = params
    mass = Fraction(1, hi - lo + 1)
    return [(v, mass) for v in range(lo, hi + 1)]


def eval_expr(e: Expr, store: Mapping[str, Value]) -> Value:
    """Evaluate a quantifier-free program expression (or a bounded
    assertion) once."""
    return compiled_expr(e)(store)


_reads = lru_cache(maxsize=1024)(lambda e: tuple(sorted(free_vars(e))))


def _kind(v: Value) -> Any:
    """The class of `v`, an array's with its elements' kinds: equal values
    of two kinds (3 and Fraction(3)) can evaluate to two types."""
    c = v.__class__
    return c if c is not ArrayVal else (_kind(v.default), *[_kind(x) for _, x in v.items])


@lru_cache(maxsize=4096)
def _eval_read(e: Expr, key: tuple) -> Value:
    """`e` on a store of only the (name, kind, value)s in `key`."""
    return compiled_expr(e)({name: v for name, _, v in key})


def eval_in_memory(e: Union[Expr, Code], mem: Memory,
                   env: Mapping[str, Value] | None = None) -> Value:
    """Evaluate an expression, or its compiled closure, against a
    memory, with logical variables from `env`.

    Memory bindings shadow logical ones; the sentinel error memory
    satisfies every assertion's negation by convention, handled by
    callers that count failures.
    """
    if callable(e):
        code = e
    else:
        store, logical = mem.to_dict(), env or {}
        try:
            return _eval_read(e, tuple([(n, _kind(v), v) for n in _reads(e)
                                        for v in (store[n] if n in store else logical[n],)]))
        except (KeyError, TypeError):  # an unbound name or an unhashable value;
            pass  # an evaluation's own error of either class is raised again below
        code = compiled_expr(e)
    store = dict(env) if env else {}
    store.update(mem.to_dict())
    return code(store)
