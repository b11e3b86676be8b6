"""Exact sub-distribution semantics.

Commands push forward finitely-supported distributions over (internal
memory, external store) pairs with exact rational masses. Anything the
budget cannot enumerate (Laplace tails beyond the truncation radius,
loop iterations beyond the unrolling bound) accumulates in `residual`,
so `mass(E) + residual` always upper-bounds the true probability of E.
Runtime errors divert a path's mass to a sentinel error memory.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from ..dp.laplace import lap_masses_exact
from ..lang.ast import (
    Assign, Call, Command, DistExpr, Expr, ExtCall, If, LValue, Program,
    Sample, Seq, Skip, While,
)
from .evalexpr import (
    UbhlRuntimeError, compile_write, compiled_expr, dist_params, finite_support,
)
from .values import Memory, Value

ExtState = tuple[tuple[str, Value], ...]
DetAdversary = Callable[[dict[str, Value], tuple[Value, ...]], tuple[dict[str, Value], Value]]


@dataclass
class Budget:
    max_loop_iters: int = 64
    laplace_radius: int = 400


@dataclass
class SubDist:
    """Finite-support sub-distribution over memories."""
    support: dict[Memory, Fraction] = field(default_factory=dict)
    residual: Fraction = Fraction(0)

    def weight(self) -> Fraction:
        return sum(self.support.values(), Fraction(0))

    def add(self, m: Memory, mass: Fraction) -> None:
        if mass == 0:
            return
        self.support[m] = self.support.get(m, Fraction(0)) + mass

    def prob_upper(self, pred: Callable[[Memory], bool]) -> Fraction:
        """Upper bound on Pr[pred]: matching mass plus residual; error
        memories count as satisfying every predicate."""
        acc = self.residual
        for m, mass in self.support.items():
            if m.error or pred(m):
                acc += mass
        return acc


_ERROR = Memory.error_memory()

State = tuple[Memory, ExtState]
Dist = dict[State, Fraction]


class ExactEvaluator:
    def __init__(self, program: Program, budget: Optional[Budget] = None,
                 adversaries: Optional[dict[str, DetAdversary]] = None):
        self.program = program
        self.budget = budget or Budget()
        self.adversaries = adversaries or {}
        self.residual = Fraction(0)

    def _eval(self, e: Expr, mem: Memory) -> Value:
        """`e` over `mem`, compiled once per process."""
        return compiled_expr(e)(mem.to_dict())

    def _write(self, mem: Memory, lv: LValue, value: Value) -> Memory:
        store = mem.to_dict()
        compile_write(lv)(store, value)
        return Memory(store.items(), mem.error)

    def _dist_support(self, d: DistExpr, mem: Memory) -> tuple[list[tuple[Value, Fraction]], Fraction]:
        """Enumerate (value, mass) pairs and un-enumerated residual."""
        params = dist_params(d.name, [self._eval(a, mem) for a in d.args])
        if d.name != "lap":
            return finite_support(d.name, params), Fraction(0)
        eps, mean = params
        masses, residual = lap_masses_exact(eps, self.budget.laplace_radius)
        return [(mean + k, m) for k, m in sorted(masses.items())], residual

    def _loops(self, guard: Expr, st: State, w: Fraction, out: Dist) -> bool:
        """Whether a loop iterates again from `st`; if not, its mass goes
        to `out`, on the error memory when the guard fails."""
        m, e = st
        if m.error:
            _acc(out, st, w)
            return False
        try:
            g = self._eval(guard, m)
        except UbhlRuntimeError:
            _acc(out, (_ERROR, e), w)
            return False
        if not g:
            _acc(out, st, w)
        return bool(g)

    # each step maps one state to a distribution over states; errors
    # collapse to the sentinel

    def _step(self, c: Command, state: State, mass: Fraction, out: Dist) -> None:
        mem, ext = state
        if mem.error:
            _acc(out, state, mass)
            return
        try:
            self._step_inner(c, mem, ext, mass, out)
        except UbhlRuntimeError:
            _acc(out, (_ERROR, ext), mass)

    def _step_inner(self, c: Command, mem: Memory, ext: ExtState,
                    mass: Fraction, out: Dist) -> None:
        if isinstance(c, Skip):
            _acc(out, (mem, ext), mass)
            return
        if isinstance(c, Assign):
            value = self._eval(c.expr, mem)
            _acc(out, (self._write(mem, c.target, value), ext), mass)
            return
        if isinstance(c, Sample):
            pairs, residual = self._dist_support(c.dist, mem)
            self.residual += mass * residual
            for value, p in pairs:
                _acc(out, (self._write(mem, c.target, value), ext), mass * p)
            return
        if isinstance(c, Seq):
            mid: Dist = {}
            self._step(c.first, (mem, ext), mass, mid)
            for st, m in mid.items():
                self._step(c.second, st, m, out)
            return
        if isinstance(c, If):
            guard = self._eval(c.guard, mem)
            branch = c.then if guard else c.els
            self._step(branch, (mem, ext), mass, out)
            return
        if isinstance(c, While):
            active: Dist = {(mem, ext): mass}
            for _ in range(self.budget.max_loop_iters):
                if not active:
                    return
                nxt: Dist = {}
                for st, w in active.items():
                    if self._loops(c.guard, st, w, out):
                        self._step(c.body, st, w, nxt)
                active = nxt
            # guard-true mass that survived the unrolling budget
            for st, w in active.items():
                if self._loops(c.guard, st, w, out):
                    self.residual += w
            return
        if isinstance(c, Call):
            callee = self.program.procs.get(c.proc)
            if callee is None:
                raise UbhlRuntimeError(f"unknown procedure {c.proc!r}")
            entry = mem.set(callee.arg, self._eval(c.arg, mem))
            # the return is one more assignment after the body
            self._step(Seq(callee.body, Assign(c.target, callee.ret)), (entry, ext), mass, out)
            return
        if isinstance(c, ExtCall):
            strat = self.adversaries.get(c.ext)
            if strat is None:
                raise UbhlRuntimeError(f"no adversary bound for {c.ext!r}")
            args = tuple(self._eval(a, mem) for a in c.args)
            ext_dict = dict(ext)
            new_ext, value = strat(ext_dict, args)
            _acc(out, (self._write(mem, c.target, value), tuple(sorted(new_ext.items()))), mass)
            return
        raise UbhlRuntimeError(f"unsupported command in exact mode: {c!r}")


def _acc(d: Dist, st: State, m: Fraction) -> None:
    if m == 0:
        return
    d[st] = d.get(st, Fraction(0)) + m


def denote_exact(program: Program, command: Command, mem: Memory,
                 budget: Optional[Budget] = None,
                 adversaries: Optional[dict[str, DetAdversary]] = None,
                 ext: Optional[dict[str, Value]] = None) -> SubDist:
    """Exact pushforward of `command` from `mem`, projected to internal
    memories."""
    ev = ExactEvaluator(program, budget, adversaries)
    out: Dist = {}
    ext_state: ExtState = tuple(sorted((ext or {}).items()))
    ev._step(command, (mem, ext_state), Fraction(1), out)
    result = SubDist(residual=ev.residual)
    for (m, _e), w in out.items():
        result.add(m, w)
    return result


def initial_memory(program: Program, overrides: Optional[dict[str, Value]] = None) -> Memory:
    """All internal variables at their type defaults, then overrides."""
    from .values import default_value

    from ..lang.ast import INT

    store: dict[str, Value] = {}
    for name, t in program.vars.items():
        store[name] = default_value(t)
    for proc in program.procs.values():
        store.setdefault(proc.arg, default_value(INT))
    if overrides:
        store.update(overrides)
    return Memory(store.items())
