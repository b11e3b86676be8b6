"""Static checks: expression typing, command typing, store separation.

The formal argument of a procedure is an ordinary program variable; its
type may be pinned with a `var` declaration and defaults to int. A
static pass enforces that it appears only in its own procedure, and
that no procedure calls itself, directly or through others.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ast import (
    ArrayT, Assign, Assume, BinOp, BOOL, BoolLit, BoolT, Call, Command, DB,
    DistExpr, Expr, ExtCall, FuncCall, Havoc, If, Index, INT, IntT, LValue,
    NumLit, Program, Quant, QUERY, RangeDom, REAL, RealT, Sample, Seq, SetDom,
    SETINT, SetIntT, SetLit, Skip, Store, Type, UnOp, Var, While, command_parts,
    free_vars, is_numeric,
)


class UbhlTypeError(Exception):
    pass


class TypeMismatch(UbhlTypeError):
    pass


class UnboundVariable(UbhlTypeError):
    pass


class ExternalMemoryViolation(UbhlTypeError):
    pass


TypeEnv = dict[str, Type]

Sig = tuple[tuple[Type, ...], Type]

# Every built-in function's signatures: argument sorts, result sort.
# An overloaded call takes the first signature its arguments fit. This
# table is the one statement of the built-ins' sorts: the prover and
# the SMT export read it, and a test holds docs/grammar.md to it.
FUNC_SIGS: dict[str, tuple[Sig, ...]] = {
    "evalQ": (((QUERY, DB), REAL),),
    "invQ": (((QUERY,), QUERY),),
    "negQ": (((QUERY,), QUERY),),
    "error": (((QUERY, DB), QUERY),),
    "size": (((DB,), INT), ((SETINT,), INT)),
    "pick": (((SETINT,), INT),),
    "remove": (((SETINT, INT), SETINT),),
    "isempty": (((SETINT,), BOOL),),
    "setdiff": (((SETINT, SETINT), SETINT),),
    "abs": (((INT,), INT), ((REAL,), REAL)),
    "log": (((REAL,), REAL),),
    "min": (((INT, INT), INT), ((REAL, REAL), REAL)),
    "max": (((INT, INT), INT), ((REAL, REAL), REAL)),
    "mwInit": (((REAL, INT, INT), DB),),
    "mwStep": (((DB, QUERY, REAL, INT), DB),),
    "potential": (((DB, DB), REAL),),
}

# distribution constructors: parameter sorts, sort of the sampled value
DIST_SIGS: dict[str, Sig] = {
    "lap": ((REAL, REAL), REAL),
    "bern": ((REAL,), BOOL),
    "unifint": ((INT, INT), INT),
}


def compatible(expected: Type, actual: Type) -> bool:
    if expected == actual:
        return True
    # widening: int where real is expected
    return isinstance(expected, RealT) and isinstance(actual, IntT)


def join_numeric(a: Type, b: Type) -> Type:
    if isinstance(a, RealT) or isinstance(b, RealT):
        return REAL
    return INT


def expr_type(e: Expr, env: TypeEnv, allow_quant: bool = False) -> Type:
    """Infer the type of an expression; raises on failure."""
    if isinstance(e, Var):
        if e.name not in env:
            raise UnboundVariable(f"unbound variable {e.name!r}")
        return env[e.name]
    if isinstance(e, BoolLit):
        return BOOL
    if isinstance(e, NumLit):
        return e.type
    if isinstance(e, SetLit):
        for x in e.elems:
            t = expr_type(x, env, allow_quant)
            if not isinstance(t, IntT):
                raise TypeMismatch(f"set literal element must be int, got {t}")
        return SETINT
    if isinstance(e, UnOp):
        t = expr_type(e.arg, env, allow_quant)
        if e.op == "!":
            if not isinstance(t, BoolT):
                raise TypeMismatch(f"'!' needs bool, got {t}")
            return BOOL
        if e.op == "-":
            if not is_numeric(t):
                raise TypeMismatch(f"unary '-' needs a number, got {t}")
            return t
        raise TypeMismatch(f"unknown unary op {e.op!r}")
    if isinstance(e, BinOp):
        if e.op in ("&&", "||", "==>", "<==>"):
            for side in (e.left, e.right):
                t = expr_type(side, env, allow_quant)
                if not isinstance(t, BoolT):
                    raise TypeMismatch(f"{e.op!r} needs bool operands, got {t}")
            return BOOL
        if e.op == "in":
            t1 = expr_type(e.left, env, allow_quant)
            t2 = expr_type(e.right, env, allow_quant)
            if not isinstance(t1, IntT) or not isinstance(t2, SetIntT):
                raise TypeMismatch(f"'in' needs int and set<int>, got {t1}, {t2}")
            return BOOL
        t1 = expr_type(e.left, env, allow_quant)
        t2 = expr_type(e.right, env, allow_quant)
        if e.op in ("+", "-", "*", "/"):
            if not is_numeric(t1) or not is_numeric(t2):
                raise TypeMismatch(f"{e.op!r} needs numbers, got {t1}, {t2}")
            if e.op == "/":
                return REAL
            return join_numeric(t1, t2)
        if e.op in ("<", "<=", ">", ">="):
            if not is_numeric(t1) or not is_numeric(t2):
                raise TypeMismatch(f"{e.op!r} needs numbers, got {t1}, {t2}")
            return BOOL
        if e.op in ("==", "!="):
            if not (compatible(t1, t2) or compatible(t2, t1)):
                raise TypeMismatch(f"cannot compare {t1} with {t2}")
            return BOOL
        raise TypeMismatch(f"unknown operator {e.op!r}")
    if isinstance(e, Index):
        t_arr = expr_type(e.arr, env, allow_quant)
        if not isinstance(t_arr, ArrayT):
            raise TypeMismatch(f"indexing needs an array, got {t_arr}")
        t_idx = expr_type(e.idx, env, allow_quant)
        if not isinstance(t_idx, IntT):
            raise TypeMismatch(f"array index must be int, got {t_idx}")
        return t_arr.elem
    if isinstance(e, Store):
        t_arr = expr_type(e.arr, env, allow_quant)
        if not isinstance(t_arr, ArrayT):
            raise TypeMismatch(f"store needs an array, got {t_arr}")
        t_idx = expr_type(e.idx, env, allow_quant)
        if not isinstance(t_idx, IntT):
            raise TypeMismatch(f"store index must be int, got {t_idx}")
        t_val = expr_type(e.value, env, allow_quant)
        if not compatible(t_arr.elem, t_val):
            raise TypeMismatch(f"store value {t_val} does not fit {t_arr}")
        return t_arr
    if isinstance(e, FuncCall):
        return _func_type(e, env, allow_quant)
    if isinstance(e, Quant):
        if not allow_quant:
            raise TypeMismatch("quantifiers are not allowed in program code")
        if isinstance(e.dom, SetDom):
            t_dom = expr_type(e.dom.set_expr, env, allow_quant)
            if not isinstance(t_dom, SetIntT):
                raise TypeMismatch(f"quantifier domain must be set<int>, got {t_dom}")
            var_t: Type = INT
        elif isinstance(e.dom, RangeDom):
            for b in (e.dom.lo, e.dom.hi):
                t_b = expr_type(b, env, allow_quant)
                if not is_numeric(t_b):
                    raise TypeMismatch(f"range bound must be numeric, got {t_b}")
            var_t = INT
        else:
            var_t = e.dom.sort
        inner = dict(env)
        inner[e.var] = var_t
        t_body = expr_type(e.body, inner, allow_quant)
        if not isinstance(t_body, BoolT):
            raise TypeMismatch(f"quantifier body must be bool, got {t_body}")
        return BOOL
    raise UbhlTypeError(f"unknown expression node: {e!r}")


def _func_type(e: FuncCall, env: TypeEnv, allow_quant: bool) -> Type:
    arg_ts = [expr_type(a, env, allow_quant) for a in e.args]
    return func_sig(e.name, arg_ts)[1]


def func_sig(name: str, arg_ts: list[Type]) -> Sig:
    """The signature of built-in `name` that arguments of sorts `arg_ts`
    fit; raises if there is none."""
    sigs = FUNC_SIGS.get(name)
    if sigs is None:
        raise UnboundVariable(f"unknown function {name!r}")
    for params, ret in sigs:
        if len(params) == len(arg_ts) and all(map(compatible, params, arg_ts)):
            return params, ret
    shown = " or ".join(f"({', '.join(map(str, params))})" for params, _ in sigs)
    raise TypeMismatch(f"{name} takes {shown}, got ({', '.join(map(str, arg_ts))})")


def result_sort(name: str) -> Optional[Type]:
    """The result sort of built-in `name` when every signature agrees."""
    rets = {ret for _, ret in FUNC_SIGS.get(name, ())}
    return rets.pop() if len(rets) == 1 else None


def dist_sig(d: DistExpr) -> Sig:
    """Parameter types and result type of a distribution constructor."""
    sig = DIST_SIGS.get(d.name)
    if sig is None:
        raise UbhlTypeError(f"unknown distribution {d.name!r}")
    return sig


@dataclass
class TypedProgram:
    program: Program
    env: TypeEnv            # internal vars incl. procedure arguments
    ret_types: dict[str, Type]


def _lvalue_type(lv: LValue, env: TypeEnv) -> Type:
    if lv.base not in env:
        raise UnboundVariable(f"unbound variable {lv.base!r}")
    t = env[lv.base]
    if lv.idx is None:
        return t
    if not isinstance(t, ArrayT):
        raise TypeMismatch(f"{lv.base!r} is not an array")
    t_idx = expr_type(lv.idx, env)
    if not isinstance(t_idx, IntT):
        raise TypeMismatch(f"array index must be int, got {t_idx}")
    return t.elem


def _check_no_external(e: Expr, prog: Program) -> None:
    bad = free_vars(e) & set(prog.extvars)
    if bad:
        raise ExternalMemoryViolation(
            f"internal code touches external memory: {sorted(bad)}")


def typecheck(prog: Program) -> TypedProgram:
    """Check the whole program; raises the first error found."""
    env = prog.store_sorts()

    ret_types: dict[str, Type] = {}
    for proc in prog.procs.values():
        _check_no_external(proc.ret, prog)
        ret_types[proc.name] = expr_type(proc.ret, env)

    used, calls = procedure_uses(prog)
    # arg_f may appear only in the body (and return) of f
    for proc in prog.procs.values():
        if proc.arg in prog.vars:
            continue  # explicitly declared as an ordinary global
        for other in prog.procs.values():
            if other.name != proc.name and proc.arg in used[other.name]:
                raise UbhlTypeError(
                    f"argument {proc.arg!r} of {proc.name!r} used in {other.name!r}")

    for proc in prog.procs.values():
        _check_command(proc.body, prog, env, ret_types)
    reject_recursion(calls)
    return TypedProgram(prog, env, ret_types)


def procedure_uses(prog: Program) -> tuple[dict[str, set[str]], dict[str, set[str]]]:
    """One walk of each body: the names each procedure mentions, and the
    procedures it calls (unknown names included)."""
    used: dict[str, set[str]] = {}
    calls: dict[str, set[str]] = {}
    for proc in prog.procs.values():
        names, called, todo = free_vars(proc.ret), set(), [proc.body]
        while todo:
            c = todo.pop()
            writes, evaluated, subs = command_parts(c)
            names.update(lv.base for lv in writes)
            names.update(*map(free_vars, evaluated))
            if isinstance(c, Call):
                called.add(c.proc)
            todo.extend(subs)
        used[proc.name], calls[proc.name] = names, called
    return used, calls


def reject_recursion(calls: dict[str, set[str]]) -> None:
    """Raise on the first cycle of the call graph, naming it."""
    done: set[str] = set()

    def visit(path: list[str]) -> None:
        for callee in sorted(calls.get(path[-1], ())):
            if callee in path:
                cycle = " -> ".join(path[path.index(callee):] + [callee])
                raise UbhlTypeError(f"recursive procedure: {cycle}")
            if callee not in done:
                visit(path + [callee])
        done.add(path[-1])

    for name in calls:
        visit([name])


def _check_command(c: Command, prog: Program, env: TypeEnv,
                   ret_types: dict[str, Type]) -> None:
    writes, evaluated, subs = command_parts(c)
    for e in evaluated:
        _check_no_external(e, prog)
    for lv in writes:
        if lv.base in prog.extvars:
            raise ExternalMemoryViolation(
                f"internal code writes external variable {lv.base!r}")
    if isinstance(c, Assign):
        t_lv = _lvalue_type(c.target, env)
        t_rhs = expr_type(c.expr, env)
        if not compatible(t_lv, t_rhs):
            raise TypeMismatch(f"cannot assign {t_rhs} to {c.target} : {t_lv}")
    elif isinstance(c, Sample):
        t_lv = _lvalue_type(c.target, env)
        params, result = dist_sig(c.dist)
        if len(c.dist.args) != len(params):
            raise TypeMismatch(
                f"{c.dist.name} expects {len(params)} parameters, got {len(c.dist.args)}")
        for i, (p, a) in enumerate(zip(params, c.dist.args)):
            t_a = expr_type(a, env)
            if not compatible(p, t_a):
                raise TypeMismatch(f"{c.dist.name} parameter {i + 1}: expected {p}, got {t_a}")
        if not compatible(t_lv, result):
            raise TypeMismatch(f"cannot sample {result} into {c.target} : {t_lv}")
    elif isinstance(c, (If, While)):
        t_g = expr_type(c.guard, env)
        if not isinstance(t_g, BoolT):
            kind = "if" if isinstance(c, If) else "while"
            raise TypeMismatch(f"{kind} guard must be bool, got {t_g}")
    elif isinstance(c, Call):
        if c.proc not in prog.procs:
            raise UnboundVariable(f"unknown procedure {c.proc!r}")
        callee = prog.procs[c.proc]
        t_arg = expr_type(c.arg, env)
        if not compatible(env[callee.arg], t_arg):
            raise TypeMismatch(
                f"call {c.proc}: argument expects {env[callee.arg]}, got {t_arg}")
        t_lv = _lvalue_type(c.target, env)
        if not compatible(t_lv, ret_types[c.proc]):
            raise TypeMismatch(
                f"call {c.proc}: returns {ret_types[c.proc]}, target is {t_lv}")
    elif isinstance(c, ExtCall):
        if c.ext not in prog.externs:
            raise UnboundVariable(f"unknown external procedure {c.ext!r}")
        decl = prog.externs[c.ext]
        if len(c.args) != len(decl.arg_types):
            raise TypeMismatch(
                f"external {c.ext} expects {len(decl.arg_types)} arguments")
        for i, (p, a) in enumerate(zip(decl.arg_types, c.args)):
            t_a = expr_type(a, env)
            if not compatible(p, t_a):
                raise TypeMismatch(f"external {c.ext} argument {i + 1}: expected {p}, got {t_a}")
        t_lv = _lvalue_type(c.target, env)
        if not compatible(t_lv, decl.ret_type):
            raise TypeMismatch(
                f"external {c.ext} returns {decl.ret_type}, target is {t_lv}")
    elif isinstance(c, Havoc):
        _lvalue_type(c.target, env)
    elif isinstance(c, Assume):
        # the assumed fact is an assertion: quantifiers are allowed
        check_assertion(c.assertion, env)
    elif not isinstance(c, (Skip, Seq)):
        raise UbhlTypeError(f"unknown command node: {c!r}")
    for sub in subs:
        _check_command(sub, prog, env, ret_types)


def assertion_env(prog: Program, logicals: Optional[TypeEnv] = None) -> TypeEnv:
    """Typing environment for assertions: program vars + logical vars."""
    return {**prog.store_sorts(), **(logicals or {})}


def check_assertion(a: Expr, env: TypeEnv) -> None:
    t = expr_type(a, env, allow_quant=True)
    if not isinstance(t, BoolT):
        raise TypeMismatch(f"assertion must be bool, got {t}")
