"""Typed AST for the probabilistic imperative language.

Expressions are sample-free; sampling, procedure calls and external
(adversary) calls are commands. Assertions reuse the expression grammar,
extended with quantifiers, so substitution and evaluation are shared.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import is_
from typing import Iterator, Optional, Union


# ── Types ───────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Type:
    pass


@dataclass(frozen=True)
class BoolT(Type):
    def __str__(self) -> str:
        return "bool"


@dataclass(frozen=True)
class IntT(Type):
    def __str__(self) -> str:
        return "int"


@dataclass(frozen=True)
class RealT(Type):
    def __str__(self) -> str:
        return "real"


@dataclass(frozen=True)
class QueryT(Type):
    def __str__(self) -> str:
        return "query"


@dataclass(frozen=True)
class DbT(Type):
    def __str__(self) -> str:
        return "db"


@dataclass(frozen=True)
class SetIntT(Type):
    def __str__(self) -> str:
        return "set<int>"


@dataclass(frozen=True)
class ArrayT(Type):
    elem: Type

    def __str__(self) -> str:
        return f"{self.elem}[]"


BOOL = BoolT()
INT = IntT()
REAL = RealT()
QUERY = QueryT()
DB = DbT()
SETINT = SetIntT()


def is_numeric(t: Type) -> bool:
    return isinstance(t, (IntT, RealT))


# ── Expressions (also the assertion term language) ─────────────────


def _keeps_hash(cls):
    """Compute a frozen node's dataclass hash once and keep it on the node.

    The normal-form and prover caches look terms up by structure, so
    the same subterms are hashed again and again. The kept hash is left
    out of pickles: string hashes differ between processes.
    """
    field_hash = cls.__hash__

    def __hash__(self):
        h = self._hash
        if h is None:
            h = field_hash(self)
            object.__setattr__(self, "_hash", h)
        return h

    cls._hash = None
    cls.__hash__ = __hash__
    cls.__getstate__ = _state_without_hash
    return cls


def _state_without_hash(node) -> dict:
    state = dict(node.__dict__)
    state.pop("_hash", None)
    return state


@dataclass(frozen=True)
class Expr:
    pass


@_keeps_hash
@dataclass(frozen=True)
class Var(Expr):
    name: str


@_keeps_hash
@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool


@_keeps_hash
@dataclass(frozen=True)
class NumLit(Expr):
    # integers carry IntT, decimals carry RealT; value is always exact
    value: Fraction
    type: Type = INT


@_keeps_hash
@dataclass(frozen=True)
class SetLit(Expr):
    elems: tuple[Expr, ...]


@_keeps_hash
@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # + - * / < <= > >= == != && || ==> <==> in
    left: Expr
    right: Expr


@_keeps_hash
@dataclass(frozen=True)
class UnOp(Expr):
    op: str  # ! -
    arg: Expr


@_keeps_hash
@dataclass(frozen=True)
class Index(Expr):
    arr: Expr
    idx: Expr


@_keeps_hash
@dataclass(frozen=True)
class Store(Expr):
    arr: Expr
    idx: Expr
    value: Expr


@_keeps_hash
@dataclass(frozen=True)
class FuncCall(Expr):
    name: str
    args: tuple[Expr, ...]


# Quantifier domains: a finite set expression, an inclusive integer
# range, or a bare sort (prover-side only).
@_keeps_hash
@dataclass(frozen=True)
class SetDom:
    set_expr: Expr


@_keeps_hash
@dataclass(frozen=True)
class RangeDom:
    lo: Expr
    hi: Expr


@_keeps_hash
@dataclass(frozen=True)
class SortDom:
    sort: Type


Domain = Union[SetDom, RangeDom, SortDom]


@_keeps_hash
@dataclass(frozen=True)
class Quant(Expr):
    kind: str  # "forall" | "exists"
    var: str
    dom: Domain
    body: Expr


TRUE = BoolLit(True)
FALSE = BoolLit(False)


# ── Commands ────────────────────────────────────────────────────────


@dataclass(frozen=True)
class LValue:
    base: str
    idx: Optional[Expr] = None  # None for plain variables

    def __str__(self) -> str:
        if self.idx is None:
            return self.base
        return f"{self.base}[{pretty_expr(self.idx)}]"


@dataclass(frozen=True)
class DistExpr:
    name: str  # lap | bern | unifint
    args: tuple[Expr, ...]


@dataclass(frozen=True)
class Command:
    pass


@dataclass(frozen=True)
class Skip(Command):
    pass


@dataclass(frozen=True)
class Assign(Command):
    target: LValue
    expr: Expr


@dataclass(frozen=True)
class Sample(Command):
    target: LValue
    dist: DistExpr


@dataclass(frozen=True)
class Seq(Command):
    first: Command
    second: Command


@dataclass(frozen=True)
class If(Command):
    guard: Expr
    then: Command
    els: Command


@dataclass(frozen=True)
class While(Command):
    guard: Expr
    body: Command


@dataclass(frozen=True)
class Call(Command):
    target: LValue
    proc: str
    arg: Expr


@dataclass(frozen=True)
class ExtCall(Command):
    target: LValue
    ext: str
    args: tuple[Expr, ...]


# Instrumented forms produced by the Hoare embedding; never emitted by
# the parser.
@dataclass(frozen=True)
class Havoc(Command):
    target: LValue


@dataclass(frozen=True)
class Assume(Command):
    assertion: Expr


@dataclass(frozen=True)
class GhostAdd(Command):
    ghost: str
    amount: Expr


# ── Programs ────────────────────────────────────────────────────────


@dataclass(frozen=True)
class Procedure:
    name: str
    arg: str
    body: Command
    ret: Expr


@dataclass(frozen=True)
class ExternDecl:
    name: str
    arg_types: tuple[Type, ...]
    ret_type: Type


@dataclass
class Program:
    procs: dict[str, Procedure] = field(default_factory=dict)
    externs: dict[str, ExternDecl] = field(default_factory=dict)
    vars: dict[str, Type] = field(default_factory=dict)       # declared internal vars
    extvars: dict[str, Type] = field(default_factory=dict)    # external store

    def store_sorts(self) -> dict[str, Type]:
        """The internal store: each declared variable, then each
        procedure's argument, an int unless declared."""
        sorts = dict(self.vars)
        for proc in self.procs.values():
            sorts.setdefault(proc.arg, INT)
        return sorts


# ── Subterms, free variables and substitution ──────────────────────


def _domain_exprs(dom: Domain) -> tuple[Expr, ...]:
    if isinstance(dom, SetDom):
        return (dom.set_expr,)
    if isinstance(dom, RangeDom):
        return (dom.lo, dom.hi)
    return ()


def children(e: Expr) -> tuple[Expr, ...]:
    """Immediate subexpressions of e; a quantifier's domain comes
    before its body."""
    if isinstance(e, BinOp):
        return (e.left, e.right)
    if isinstance(e, UnOp):
        return (e.arg,)
    if isinstance(e, Index):
        return (e.arr, e.idx)
    if isinstance(e, Store):
        return (e.arr, e.idx, e.value)
    if isinstance(e, FuncCall):
        return e.args
    if isinstance(e, SetLit):
        return e.elems
    if isinstance(e, Quant):
        return _domain_exprs(e.dom) + (e.body,)
    if isinstance(e, (Var, BoolLit, NumLit)):
        return ()
    raise TypeError(f"unknown expression node: {e!r}")


def subterms(e: Expr) -> Iterator[Expr]:
    """e and each of its subexpressions, parents first and children in
    `children` order: the walk for code that only looks."""
    stack = [e]
    while stack:
        x = stack.pop()
        yield x
        stack.extend(reversed(children(x)))


def _same(old: tuple, new: tuple) -> bool:
    return all(map(is_, old, new))


def _map_domain(dom: Domain, fn) -> Domain:
    if isinstance(dom, SetDom):
        set_expr = fn(dom.set_expr)
        return dom if set_expr is dom.set_expr else SetDom(set_expr)
    if isinstance(dom, RangeDom):
        lo, hi = fn(dom.lo), fn(dom.hi)
        return dom if lo is dom.lo and hi is dom.hi else RangeDom(lo, hi)
    return dom


def map_children(e: Expr, fn) -> Expr:
    """e with fn applied to each child; e itself when fn returns every
    child unchanged, so read-only walks build nothing and keep hashes."""
    if isinstance(e, BinOp):
        left, right = fn(e.left), fn(e.right)
        return e if left is e.left and right is e.right else BinOp(e.op, left, right)
    if isinstance(e, UnOp):
        arg = fn(e.arg)
        return e if arg is e.arg else UnOp(e.op, arg)
    if isinstance(e, Index):
        arr, idx = fn(e.arr), fn(e.idx)
        return e if arr is e.arr and idx is e.idx else Index(arr, idx)
    if isinstance(e, Store):
        new = (fn(e.arr), fn(e.idx), fn(e.value))
        return e if _same((e.arr, e.idx, e.value), new) else Store(*new)
    if isinstance(e, FuncCall):
        new = tuple(fn(a) for a in e.args)
        return e if _same(e.args, new) else FuncCall(e.name, new)
    if isinstance(e, SetLit):
        new = tuple(fn(x) for x in e.elems)
        return e if _same(e.elems, new) else SetLit(new)
    if isinstance(e, Quant):
        dom, body = _map_domain(e.dom, fn), fn(e.body)
        return e if dom is e.dom and body is e.body else Quant(e.kind, e.var, dom, body)
    if isinstance(e, (Var, BoolLit, NumLit)):
        return e
    raise TypeError(f"unknown expression node: {e!r}")


def free_vars(e: Expr) -> set[str]:
    """Free variable names of an expression or assertion."""
    if isinstance(e, Var):
        return {e.name}
    if isinstance(e, Quant):
        # the binder scopes over the body, not over the domain
        out, kids = free_vars(e.body) - {e.var}, _domain_exprs(e.dom)
    else:
        out, kids = set(), children(e)
    for x in kids:
        out |= free_vars(x)
    return out


def fresh_name(base: str, avoid: set[str]) -> str:
    """base, or base_N with the smallest N >= 1 not in avoid."""
    if base not in avoid:
        return base
    n = 1
    while f"{base}_{n}" in avoid:
        n += 1
    return f"{base}_{n}"


def subst_expr(e: Expr, name: str, repl: Expr) -> Expr:
    """Capture-free substitution of `repl` for the variable `name`."""
    if isinstance(e, Var):
        return repl if e.name == name else e

    def sub(x: Expr) -> Expr:
        return subst_expr(x, name, repl)

    if not isinstance(e, Quant):
        return map_children(e, sub)
    # the domain lies outside the binder; the body is left alone when
    # the binder shadows `name`, and the binder is renamed when it
    # would capture a free variable of `repl`
    dom = _map_domain(e.dom, sub)
    var, body = e.var, e.body
    if var != name:
        if var in free_vars(repl):
            var = fresh_name(var, free_vars(repl) | free_vars(body) | {name})
            body = subst_expr(body, e.var, Var(var))
        body = sub(body)
    if dom is e.dom and var == e.var and body is e.body:
        return e
    return Quant(e.kind, var, dom, body)


def subst_lvalue(a: Expr, lv: LValue, value: Expr) -> Expr:
    """Substitute the effect of writing `value` into `lv` (forward image).

    Plain target x: a[value/x]. Array target arr[i]: every free
    occurrence of arr is replaced by store(arr, i, value), with the
    index read in the pre-state.
    """
    if lv.idx is None:
        return subst_expr(a, lv.base, value)
    return subst_expr(a, lv.base, Store(Var(lv.base), lv.idx, value))


# ── The parts of a command ──────────────────────────────────────────


CommandParts = tuple[tuple[LValue, ...], tuple[Expr, ...], tuple[Command, ...]]


def _writes(target: LValue, *evaluated: Expr) -> CommandParts:
    idx = () if target.idx is None else (target.idx,)
    return (target,), evaluated + idx, ()


_PARTS = {
    Skip: lambda c: ((), (), ()),
    Assign: lambda c: _writes(c.target, c.expr),
    Sample: lambda c: _writes(c.target, *c.dist.args),
    Call: lambda c: _writes(c.target, c.arg),
    ExtCall: lambda c: _writes(c.target, *c.args),
    Havoc: lambda c: _writes(c.target),
    GhostAdd: lambda c: _writes(LValue(c.ghost), c.amount),
    Seq: lambda c: ((), (), (c.first, c.second)),
    If: lambda c: ((), (c.guard,), (c.then, c.els)),
    While: lambda c: ((), (c.guard,), (c.body,)),
    Assume: lambda c: ((), (c.assertion,), ()),
}


def command_parts(c: Command) -> CommandParts:
    """The lvalues `c` writes, the expressions it evaluates itself (a
    written lvalue's index among them) and its sub-commands. A call's
    callee body is not a sub-command: it belongs to the procedure."""
    parts = _PARTS.get(type(c))
    if parts is None:
        raise TypeError(f"unknown command node: {c!r}")
    return parts(c)


def modified_vars(c: Command, program: Optional[Program] = None) -> set[str]:
    """Sound over-approximation of variables written by `c`.

    Internal procedure calls recurse into the callee (including its
    formal argument). External calls write only their target (the
    adversary owns a separate store).
    """
    writes, _, subs = command_parts(c)
    out = {lv.base for lv in writes}
    for sub in subs:
        out |= modified_vars(sub, program)
    if isinstance(c, Call) and program is not None and c.proc in program.procs:
        p = program.procs[c.proc]
        out |= {p.arg} | modified_vars(p.body, program)
    return out


# ── Operator syntax and the pretty printer ─────────────────────────

# The one table of binary-operator syntax, read by the parser and the
# printer: precedence (higher binds tighter) and associativity. "none"
# marks the comparisons and `in`, which do not chain: `a < b < c` is a
# syntax error.
BINARY_OPS: dict[str, tuple[int, str]] = {
    "<==>": (1, "left"), "==>": (2, "right"), "||": (3, "left"), "&&": (4, "left"),
    "==": (6, "none"), "!=": (6, "none"), "<": (6, "none"), "<=": (6, "none"),
    ">": (6, "none"), ">=": (6, "none"), "in": (6, "none"),
    "+": (7, "left"), "-": (7, "left"), "*": (8, "left"), "/": (8, "left"),
}
# quantifier domains are additive terms
DOMAIN_PREC = BINARY_OPS["+"][0]
_UNARY_PREC = 9
_POSTFIX_PREC = 10


def _decimal_str(v: Fraction) -> Optional[str]:
    """v as an exact decimal literal, or None when it has none."""
    # a denominator 2**a * 5**b divides 10**k for k = its bit length
    k = v.denominator.bit_length()
    if 10 ** k % v.denominator:
        return None
    digits = str(abs(v.numerator) * 10 ** k // v.denominator).rjust(k + 1, "0")
    sign = "-" if v < 0 else ""
    return f"{sign}{digits[:-k]}.{digits[-k:].rstrip('0') or '0'}"


def _num_str(v: Fraction, t: Type) -> str:
    # a real literal prints as a decimal, so it reads back as a real
    if isinstance(t, RealT):
        dec = _decimal_str(v)
        if dec is not None:
            return dec
    if v.denominator == 1:
        return str(v.numerator)
    return f"({v.numerator}/{v.denominator})"


def pretty_expr(e: Expr, prec: int = 0) -> str:
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BoolLit):
        return "true" if e.value else "false"
    if isinstance(e, NumLit):
        return _num_str(e.value, e.type)
    if isinstance(e, SetLit):
        return "{" + ", ".join(pretty_expr(x) for x in e.elems) + "}"
    if isinstance(e, BinOp):
        p, assoc = BINARY_OPS[e.op]
        left = pretty_expr(e.left, p if assoc == "left" else p + 1)
        s = f"{left} {e.op} {pretty_expr(e.right, p + 1)}"
        return f"({s})" if p < prec else s
    if isinstance(e, UnOp):
        s = f"{e.op}{pretty_expr(e.arg, _UNARY_PREC)}"
        return f"({s})" if prec > _UNARY_PREC else s
    if isinstance(e, Index):
        return f"{pretty_expr(e.arr, _POSTFIX_PREC)}[{pretty_expr(e.idx)}]"
    if isinstance(e, Store):
        return f"store({pretty_expr(e.arr)}, {pretty_expr(e.idx)}, {pretty_expr(e.value)})"
    if isinstance(e, FuncCall):
        return f"{e.name}(" + ", ".join(pretty_expr(a) for a in e.args) + ")"
    if isinstance(e, Quant):
        if isinstance(e.dom, SetDom):
            dom = f"in {pretty_expr(e.dom.set_expr, DOMAIN_PREC)}"
        elif isinstance(e.dom, RangeDom):
            # bounds print one level tighter than they parse: `1 .. (n - 1)`
            lo, hi = (pretty_expr(x, DOMAIN_PREC + 1) for x in (e.dom.lo, e.dom.hi))
            dom = f"in {lo} .. {hi}"
        else:
            dom = f": {e.dom.sort}"
        s = f"{e.kind} {e.var} {dom} . {pretty_expr(e.body)}"
        return f"({s})" if prec > 0 else s
    raise TypeError(f"unknown expression node: {e!r}")


def _pretty_cmd(c: Command, ind: str) -> list[str]:
    if isinstance(c, Skip):
        return [ind + "skip;"]
    if isinstance(c, Assign):
        return [f"{ind}{c.target} <- {pretty_expr(c.expr)};"]
    if isinstance(c, Sample):
        args = ", ".join(pretty_expr(a) for a in c.dist.args)
        return [f"{ind}{c.target} <$ {c.dist.name}({args});"]
    if isinstance(c, Seq):
        return _pretty_cmd(c.first, ind) + _pretty_cmd(c.second, ind)
    if isinstance(c, If):
        out = [f"{ind}if ({pretty_expr(c.guard)}) {{"]
        out += _pretty_cmd(c.then, ind + "  ")
        if isinstance(c.els, Skip):
            out.append(ind + "}")
        else:
            out.append(ind + "} else {")
            out += _pretty_cmd(c.els, ind + "  ")
            out.append(ind + "}")
        return out
    if isinstance(c, While):
        out = [f"{ind}while ({pretty_expr(c.guard)}) {{"]
        out += _pretty_cmd(c.body, ind + "  ")
        out.append(ind + "}")
        return out
    if isinstance(c, Call):
        return [f"{ind}{c.target} <- {c.proc}({pretty_expr(c.arg)});"]
    if isinstance(c, ExtCall):
        args = ", ".join(pretty_expr(a) for a in c.args)
        return [f"{ind}{c.target} <@ {c.ext}({args});"]
    if isinstance(c, Havoc):
        return [f"{ind}havoc {c.target};"]
    if isinstance(c, Assume):
        return [f"{ind}assume {pretty_expr(c.assertion)};"]
    if isinstance(c, GhostAdd):
        return [f"{ind}{c.ghost} <- {c.ghost} + {pretty_expr(c.amount)};"]
    raise TypeError(f"unknown command node: {c!r}")


def pretty_command(c: Command, indent: str = "") -> str:
    return "\n".join(_pretty_cmd(c, indent))


def pretty_program(p: Program) -> str:
    lines: list[str] = []
    for name, t in p.vars.items():
        lines.append(f"var {name} : {t};")
    for name, t in p.extvars.items():
        lines.append(f"extvar {name} : {t};")
    for ext in p.externs.values():
        args = ", ".join(str(t) for t in ext.arg_types)
        lines.append(f"extern {ext.name}({args}) : {ext.ret_type};")
    for proc in p.procs.values():
        lines.append("")
        lines.append(f"proc {proc.name}({proc.arg}) {{")
        lines.extend(_pretty_cmd(proc.body, "  "))
        lines.append(f"}} return {pretty_expr(proc.ret)}")
    return "\n".join(lines) + "\n"


def seq_of(cmds: list[Command]) -> Command:
    """Right-nested sequence of a statement list."""
    if not cmds:
        return Skip()
    out = cmds[-1]
    for c in reversed(cmds[:-1]):
        out = Seq(c, out)
    return out
