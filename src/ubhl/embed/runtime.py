"""Runtime interpretation of instrumented programs.

Samples still draw from their original distributions, the ghost
accumulates each executed site's index, and a failed assume marks the
trial filtered (the axiom's failure mass). Used to test ghost
conservation: on every unfiltered path, the final ghost equals the sum
of the indices at executed sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional

from ..lang.ast import Command, Program, Sample, Seq, While
from ..semantics.evalexpr import eval_expr
from ..semantics.rng import TrialRng
from ..semantics.trial import AdversaryStrategy, TrialAborted, TrialInterpreter
from ..semantics.exact import initial_memory
from ..semantics.values import Memory, Value
from .instrument import SitePath, SiteSpec


@dataclass
class GhostTrial:
    memory: Memory
    ghost: Fraction
    executed_sites: list[SitePath]
    filtered: bool          # an assumed site postcondition failed


class _GhostInterpreter(TrialInterpreter):
    def __init__(self, program: Program, adversaries, rng: TrialRng,
                 sites: Mapping[SitePath, SiteSpec], logical_env: Mapping[str, Value]):
        super().__init__(program, adversaries, rng)
        self.sites = dict(sites)
        self.logical_env = dict(logical_env)
        self.ghost = Fraction(0)
        self.executed: list[SitePath] = []
        self.filtered = False
        self._path: tuple[str, ...] = ()

    def run(self, store, c: Command) -> None:
        if isinstance(c, Sample):
            super().run(store, c)
            spec = self.sites.get(self._path)
            if spec is not None:
                scope = dict(self.logical_env)
                scope.update(store)
                self.ghost += Fraction(eval_expr(spec.index, scope))
                self.executed.append(self._path)
                if not bool(eval_expr(spec.post, scope)):
                    self.filtered = True
            return
        if isinstance(c, Seq):
            outer = self._path
            self._path = outer + ("1",)
            self.run(store, c.first)
            self._path = outer + ("2",)
            self.run(store, c.second)
            self._path = outer
            return
        if isinstance(c, While):
            outer = self._path
            iters = 0
            while eval_expr(c.guard, store):
                self._path = outer + ("b",)
                self.run(store, c.body)
                iters += 1
                if iters >= self.loop_cap:
                    raise TrialAborted(f"loop exceeded {self.loop_cap} iterations")
            self._path = outer
            return
        from ..lang.ast import Call, If
        if isinstance(c, If):
            outer = self._path
            branch = eval_expr(c.guard, store)
            self._path = outer + ("t" if branch else "e",)
            self.run(store, c.then if branch else c.els)
            self._path = outer
            return
        if isinstance(c, Call):
            callee = self.program.procs[c.proc]
            store[callee.arg] = eval_expr(c.arg, store)
            # call sites share the caller's path, matching the proof walk
            self.run(store, callee.body)
            self._write(store, c, eval_expr(callee.ret, store))
            return
        super().run(store, c)


def run_ghost_trial(program: Program, entry: str, arg: Value,
                    sites: Mapping[SitePath, SiteSpec],
                    logical_env: Mapping[str, Value], seed: int, trial: int = 0,
                    adversaries: Optional[Mapping[str, AdversaryStrategy]] = None,
                    overrides: Optional[dict[str, Value]] = None,
                    result_var: str = "res") -> GhostTrial:
    proc = program.procs[entry]
    rng = TrialRng(seed, trial)
    interp = _GhostInterpreter(program, adversaries or {}, rng, sites, logical_env)
    store = initial_memory(program, overrides).to_dict()
    store[proc.arg] = arg
    interp.run(store, proc.body)
    store[result_var] = eval_expr(proc.ret, store)
    return GhostTrial(memory=Memory(store.items()), ghost=interp.ghost,
                      executed_sites=interp.executed, filtered=interp.filtered)
