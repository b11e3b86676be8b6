"""Exact sub-distribution semantics.

Commands push forward finitely-supported distributions over (internal
memory, external store) pairs with exact rational masses. Anything the
budget cannot enumerate (Laplace tails beyond the truncation radius,
loop iterations beyond the unrolling bound) accumulates in `residual`,
so `mass(E) + residual` always upper-bounds the true probability of E.
Runtime errors divert a path's mass to a sentinel error memory.

`Enumeration` is the exact binding of the trials' command compiler
(`semantics.commands`): one program, two interpretations of sampling
(Ramsey & Pfeffer, POPL 2002). A sample runs the rest of the path once
per value of its support, on a copy of the store, with the mass times
the value's. Equal states merge only at loop heads, one frontier per
iteration, and at the end, where each final store becomes a `Memory`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Mapping, Optional

from ..dp.laplace import lap_masses_exact
from ..lang.ast import Command, ExtCall, Program, Sample, While
from .commands import AdversaryStrategy, Commands, SitePath, Step, StoreDict
from .commands import initial_memory  # noqa: F401  re-exported beside denote_exact
from .evalexpr import (
    UbhlRuntimeError, compile_expr, compile_write, dist_params, finite_support,
)
from .values import Memory, Value

ExtState = tuple[tuple[str, Value], ...]
# a path's external store and mass: what `run` carries during enumeration
Run = tuple[ExtState, Fraction]


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
        support = self.support
        support[m] = support[m] + mass if m in support else mass

    def prob_upper(self, pred: Callable[[Memory], bool]) -> Fraction:
        """Upper bound on Pr[pred]: matching mass plus residual. The
        error memory, and a memory on which `pred` raises a runtime
        error, count as satisfying every predicate, as a trial that
        fails at runtime counts as a failure."""
        acc = self.residual
        for m, mass in self.support.items():
            try:
                hit = m.error or pred(m)
            except UbhlRuntimeError:
                hit = True
            if hit:
                acc += mass
        return acc


_ERROR = Memory.error_memory()


class Enumeration(Commands):
    """Exact enumeration of one program under a budget and adversaries
    that do not draw (each is asked with rng=None). A path that ends
    adds its mass to the current sink (the frontier the running loop
    body feeds, or the final states), keyed by its store's items, `None`
    for the error sentinel, and external store. A runtime error moves
    the path's mass to the sentinel, caught where the path began: at the
    start, a sample's value, a loop's iteration or exit, or after an
    external call."""

    def __init__(self, program: Program, budget: Budget,
                 adversaries: Mapping[str, AdversaryStrategy]):
        super().__init__(program)
        self.budget, self.adversaries = budget, adversaries
        self.residual = Fraction(0)
        self._sink: dict = {}
        self._lap: dict[Fraction, tuple[list[tuple[int, Fraction]], Fraction]] = {}

    def outcomes(self, command: Command, mem: Memory,
                 ext: ExtState = ()) -> Iterator[tuple[Memory, ExtState, Fraction]]:
        """Every final (memory, external store, mass) of `command` from
        (`mem`, `ext`), in the order first reached; `residual` holds the
        un-enumerated mass once they are all out."""
        if mem.error:
            yield mem, ext, Fraction(1)
            return
        store, final = mem.to_dict(), {}
        seeded, self._sink = len(store), final
        self._branch(self.compile(command, (), self._emit), store, (ext, Fraction(1)))
        for (items, ext_out), mass in final.items():
            yield (_ERROR if items is None else Memory.of_written(items, seeded),
                   ext_out, mass)

    def _add(self, items: Optional[tuple], run: Run) -> None:
        key, sink = (items, run[0]), self._sink
        prior = sink.get(key)
        sink[key] = run[1] if prior is None else prior + run[1]

    def _emit(self, store: StoreDict, run: Run) -> None:
        self._add(tuple(store.items()), run)

    def _branch(self, step: Step, store: StoreDict, run: Run) -> None:
        try:
            step(store, run)
        except UbhlRuntimeError:
            self._add(None, run)

    def _support(self, name: str, params: tuple, mass: Fraction) -> list[tuple[Value, Fraction]]:
        """(value, probability) pairs of one sample, Laplace masses
        computed once per scale; the tail beyond the radius goes to the
        residual."""
        if name != "lap":
            return finite_support(name, params)
        eps, mean = params
        if eps not in self._lap:
            masses, residual = lap_masses_exact(eps, self.budget.laplace_radius)
            self._lap[eps] = sorted(masses.items()), residual
        offsets, residual = self._lap[eps]
        self.residual += mass * residual
        return [(mean + k, p) for k, p in offsets]

    def _sample(self, c: Sample, path: SitePath, k: Step) -> Step:
        args, name = [compile_expr(a) for a in c.dist.args], c.dist.name
        write = compile_write(c.target)

        def sample(store, run):
            ext, mass = run
            for value, p in self._support(name, dist_params(name, [f(store) for f in args]), mass):
                if p:
                    branch = dict(store)
                    write(branch, value)
                    self._branch(k, branch, (ext, mass * p))
        return sample

    def _while(self, c: While, path: SitePath, k: Step) -> Step:
        guard, body = compile_expr(c.guard), self.compile(c.body, path + ("b",), self._emit)
        iters = self.budget.max_loop_iters

        def loop(store, run):
            outer, active = self._sink, {(tuple(store.items()), run[0]): run[1]}
            try:
                for i in range(iters + 1):
                    frontier: dict = {}
                    for (items, ext), mass in active.items():
                        self._sink, run = outer, (ext, mass)
                        try:
                            again = items is not None and guard(store := dict(items))
                        except UbhlRuntimeError:
                            items = None
                        if items is None:  # an error state, or its guard failed
                            self._add(None, run)
                        elif not again:
                            self._branch(k, store, run)
                        elif i == iters:
                            self.residual += mass  # still looping when the budget ran out
                        else:
                            self._sink = frontier
                            self._branch(body, store, run)
                    active = frontier
            finally:
                self._sink = outer
        return loop

    def _ext_call(self, c: ExtCall, path: SitePath, k: Step) -> Step:
        args, write, name = [compile_expr(a) for a in c.args], compile_write(c.target), c.ext

        def ext_call(store, run):
            strat = self.adversaries.get(name)
            if strat is None:
                raise UbhlRuntimeError(f"no adversary bound for {name!r}")
            new_ext, value = strat.respond(dict(run[0]), tuple(f(store) for f in args), None)
            write(store, value)
            self._branch(k, store, (tuple(sorted(new_ext.items())), run[1]))
        return ext_call


def denote_exact(program: Program, command: Command, mem: Memory,
                 budget: Optional[Budget] = None,
                 adversaries: Optional[Mapping[str, AdversaryStrategy]] = None,
                 ext: Optional[dict[str, Value]] = None) -> SubDist:
    """Exact pushforward of `command` from `mem`, projected to internal
    memories."""
    enum = Enumeration(program, budget or Budget(), adversaries or {})
    result = SubDist()
    for m, _ext, mass in enum.outcomes(command, mem, tuple(sorted((ext or {}).items()))):
        result.add(m, mass)
    result.residual = enum.residual
    return result
