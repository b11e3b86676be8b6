"""SMT-LIB v2 export for obligations.

Each obligation becomes one deterministic script asserting the negation
of the claim; `unsat` from a solver certifies it. Queries, databases
and the synthetic-db operators are uninterpreted, arrays and integer
sets use native array theory, and `log` is an uninterpreted function
axiomatized by monotonicity plus certified interval bounds for the
ground arguments that actually occur.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ..lang.ast import (
    ArrayT, BinOp, BoolLit, BoolT, DbT, Expr, FuncCall, Index, IntT, NumLit,
    Quant, QueryT, RangeDom, RealT, SetDom, SetIntT, SortDom, Store, Type,
    UnOp, Var, free_vars, subterms,
)
from ..lang.typecheck import FUNC_SIGS, TypeEnv, UbhlTypeError, expr_type, func_sig
from .normform import ground_value
from .obligations import AxiomPremise, Implication, Obligation
from .prover import _ln_bounds


class Inexpressible(Exception):
    pass


def _sort_of(t: Type) -> str:
    if isinstance(t, BoolT):
        return "Bool"
    if isinstance(t, IntT):
        return "Int"
    if isinstance(t, RealT):
        return "Real"
    if isinstance(t, QueryT):
        return "UQuery"
    if isinstance(t, DbT):
        return "UDb"
    if isinstance(t, SetIntT):
        return "(Array Int Bool)"
    if isinstance(t, ArrayT):
        return f"(Array Int {_sort_of(t.elem)})"
    raise Inexpressible(f"no SMT sort for {t}")


def _num(v: Fraction, real: bool) -> str:
    if not real:
        if v.denominator != 1:
            raise Inexpressible(f"non-integral int literal {v}")
        n = v.numerator
        return str(n) if n >= 0 else f"(- {-n})"
    num, den = v.numerator, v.denominator
    sign = num < 0
    num = abs(num)
    body = f"(/ {num}.0 {den}.0)" if den != 1 else f"{num}.0"
    return f"(- {body})" if sign else body


class SmtEmitter:
    def __init__(self, env: TypeEnv):
        self.env = dict(env)
        self.used_funcs: set[str] = set()

    def _is_real(self, e: Expr) -> bool:
        try:
            return isinstance(expr_type(e, self.env, allow_quant=True), RealT)
        except UbhlTypeError:
            return True

    def term(self, e: Expr, reals: bool = False) -> str:
        """Translate; `reals` forces numeric literals and int subterms
        into Real (SMT has no implicit widening)."""
        if isinstance(e, Var):
            t = self.env.get(e.name)
            s = f"v_{e.name}"
            if reals and isinstance(t, IntT):
                return f"(to_real {s})"
            return s
        if isinstance(e, BoolLit):
            return "true" if e.value else "false"
        if isinstance(e, NumLit):
            return _num(e.value, reals or isinstance(e.type, RealT))
        if isinstance(e, UnOp):
            if e.op == "-":
                return f"(- {self.term(e.arg, reals)})"
            return f"(not {self.term(e.arg)})"
        if isinstance(e, BinOp):
            return self._binop(e, reals)
        if isinstance(e, Index):
            s = f"(select {self.term(e.arr)} {self.term(e.idx)})"
            if reals and not self._is_real(e):
                return f"(to_real {s})"
            return s
        if isinstance(e, Store):
            return (f"(store {self.term(e.arr)} {self.term(e.idx)}"
                    f" {self.term(e.value)})")
        if isinstance(e, FuncCall):
            return self._func(e, reals)
        if isinstance(e, Quant):
            return self._quant(e)
        raise Inexpressible(f"cannot translate {e!r}")

    def _numeric_pair(self, left: Expr, right: Expr) -> tuple[str, str]:
        reals = self._is_real(left) or self._is_real(right)
        return self.term(left, reals), self.term(right, reals)

    def _binop(self, e: BinOp, reals: bool) -> str:
        op = e.op
        if op in ("&&", "||", "==>", "<==>"):
            smt = {"&&": "and", "||": "or", "==>": "=>", "<==>": "="}[op]
            return f"({smt} {self.term(e.left)} {self.term(e.right)})"
        if op == "in":
            return f"(select {self.term(e.right)} {self.term(e.left)})"
        if op in ("+", "-", "*"):
            use_reals = reals or self._is_real(e)
            return f"({op} {self.term(e.left, use_reals)} {self.term(e.right, use_reals)})"
        if op == "/":
            return f"(/ {self.term(e.left, True)} {self.term(e.right, True)})"
        if op in ("<", "<=", ">", ">="):
            a, b = self._numeric_pair(e.left, e.right)
            return f"({op} {a} {b})"
        if op in ("==", "!="):
            try:
                a, b = self._numeric_pair(e.left, e.right)
            except Inexpressible:
                a, b = self.term(e.left), self.term(e.right)
            body = f"(= {a} {b})"
            return body if op == "==" else f"(not {body})"
        raise Inexpressible(f"operator {op!r}")

    def _func(self, e: FuncCall, reals: bool) -> str:
        name = e.name
        if name in ("abs", "min", "max"):
            # Int terms in an Int context, Real terms otherwise
            real = reals or self._is_real(e)
            args = [self.term(a, real) for a in e.args]
            if name == "abs":
                symbol = "absR" if real else "absI"
                self.used_funcs.add(symbol)
                return f"({symbol} {args[0]})"
            a, b = args
            return f"(ite ({'<' if name == 'min' else '>'} {a} {b}) {a} {b})"
        if name == "isempty":
            s = self.term(e.args[0])
            return f"(= {s} ((as const (Array Int Bool)) false))"
        if name == "remove":
            return f"(store {self.term(e.args[0])} {self.term(e.args[1])} false)"
        if name not in _SMT_NAMES:
            raise Inexpressible(f"function {name!r}")
        try:
            sig = func_sig(name, [expr_type(a, self.env, allow_quant=True)
                                  for a in e.args])
        except UbhlTypeError as exc:
            raise Inexpressible(str(exc)) from exc
        smt_name = _SMT_NAMES[name][FUNC_SIGS[name].index(sig)]
        self.used_funcs.add(smt_name)
        params, ret = sig
        # SMT has no implicit widening: Real slots take Real terms
        args = " ".join(self.term(a, isinstance(p, RealT))
                        for p, a in zip(params, e.args))
        out = f"({smt_name} {args})"
        return f"(to_real {out})" if reals and isinstance(ret, IntT) else out

    def _quant(self, e: Quant) -> str:
        inner_env = dict(self.env)
        if isinstance(e.dom, SortDom):
            t = e.dom.sort
        else:
            t = IntT()
        inner_env[e.var] = t
        sub = SmtEmitter(inner_env)
        sub.used_funcs = self.used_funcs
        body = sub.term(e.body)
        guards: list[str] = []
        if isinstance(e.dom, SetDom):
            guards.append(f"(select {self.term(e.dom.set_expr)} v_{e.var})")
        elif isinstance(e.dom, RangeDom):
            guards.append(f"(<= {self.term(e.dom.lo)} v_{e.var})")
            guards.append(f"(<= v_{e.var} {self.term(e.dom.hi)})")
        if guards:
            guard = guards[0] if len(guards) == 1 else f"(and {' '.join(guards)})"
            body = (f"(=> {guard} {body})" if e.kind == "forall"
                    else f"(and {guard} {body})")
        binder = "forall" if e.kind == "forall" else "exists"
        return f"({binder} ((v_{e.var} {_sort_of(t)})) {body})"


# the SMT symbol of each uninterpreted built-in, one per signature in
# FUNC_SIGS; its declaration is read off that signature
_SMT_NAMES = {
    "evalQ": ("uEvalQ",), "invQ": ("uInvQ",), "negQ": ("uNegQ",),
    "error": ("uErrorQ",), "size": ("uSize", "uSizeSet"), "pick": ("uPick",),
    "setdiff": ("setdiff",), "log": ("ln",), "mwInit": ("uMwInit",),
    "mwStep": ("uMwStep",), "potential": ("uPotential",),
}

_PRELUDE_FUNCS = {
    "absR": "(define-fun absR ((x Real)) Real (ite (>= x 0.0) x (- x)))",
    "absI": "(define-fun absI ((x Int)) Int (ite (>= x 0) x (- x)))",
    **{symbol: f"(declare-fun {symbol} ({' '.join(map(_sort_of, params))})"
               f" {_sort_of(ret)})"
       for name, symbols in _SMT_NAMES.items()
       for symbol, (params, ret) in zip(symbols, FUNC_SIGS[name])},
}

_AXIOMS = {
    "ln": ("(assert (forall ((a Real) (b Real))"
           " (=> (and (< 0.0 a) (<= a b)) (<= (ln a) (ln b)))))"),
    "uEvalQ": ("(assert (forall ((p UQuery) (e UDb))"
               " (= (uEvalQ (uInvQ p) e) (- (uEvalQ p e)))))"),
    "setdiff": ("(assert (forall ((a (Array Int Bool)) (b (Array Int Bool)) (i Int))"
                " (= (select (setdiff a b) i)"
                " (and (select a i) (not (select b i))))))"),
    "uSize": "(assert (forall ((e UDb)) (>= (uSize e) 0)))",
    "uSizeSet": "(assert (forall ((s (Array Int Bool))) (>= (uSizeSet s) 0)))",
}

# the other declared symbols each axiom mentions
_AXIOM_SYMBOLS = {
    name: sorted(set(axiom.replace("(", " ").replace(")", " ").split())
                 & (_PRELUDE_FUNCS.keys() - {name}))
    for name, axiom in _AXIOMS.items()
}


def emit_smtlib(ob: Obligation, env: TypeEnv) -> str:
    """Deterministic SMT-LIB v2 script; `unsat` certifies the claim."""
    if isinstance(ob, Implication):
        claim: Expr = BinOp("==>", ob.antecedent, ob.consequent)
    elif isinstance(ob, AxiomPremise):
        claim = ob.post if ob.post is not None else BoolLit(True)
    else:
        raise Inexpressible(f"unknown obligation kind {type(ob).__name__}")

    emitter = SmtEmitter(env)
    body = emitter.term(claim)

    lines = ["(set-logic ALL)", "(declare-sort UQuery 0)", "(declare-sort UDb 0)"]
    declared: set[str] = set()

    def declare(name: str) -> None:
        # each symbol once, and an axiom's symbols before the axiom
        if name in declared:
            return
        declared.add(name)
        lines.append(_PRELUDE_FUNCS[name])
        if name in _AXIOMS:
            for other in _AXIOM_SYMBOLS[name]:
                declare(other)
            lines.append(_AXIOMS[name])

    for name in sorted(emitter.used_funcs):
        declare(name)
    for name in sorted(free_vars(claim)):
        t = env.get(name)
        if t is None:
            raise Inexpressible(f"unsorted symbol {name!r}")
        lines.append(f"(declare-const v_{name} {_sort_of(t)})")
    # certified interval bounds for ground log arguments
    fragments = _ground_log_bounds(claim, env)
    lines.extend(fragments)
    lines.append(f"(assert (not {body}))")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


def _ground_log_bounds(claim: Expr, env: TypeEnv) -> list[str]:
    out: list[str] = []
    seen: set[Fraction] = set()

    for e in subterms(claim):
        if isinstance(e, FuncCall) and e.name == "log" and len(e.args) == 1:
            v = ground_value(e.args[0])
            if v is not None and v > 0 and v not in seen:
                seen.add(v)
                bounds = _ln_bounds(v)
                if bounds:
                    lo, hi = bounds
                    arg = _num(v, True)
                    out.append(f"(assert (<= {_num_approx(lo, down=True)} (ln {arg})))")
                    out.append(f"(assert (<= (ln {arg}) {_num_approx(hi, down=False)}))")
    return sorted(out)


def _num_approx(v: Fraction, down: bool) -> str:
    """Round to 12 decimals toward the safe side of the true value."""
    scaled = v * 10 ** 12
    n = math.floor(scaled) if down else math.ceil(scaled)
    return _num(Fraction(n, 10 ** 12), True)
