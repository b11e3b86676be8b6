"""One command compiler, two bindings of sampling.

`Commands` compiles each command once, with the step that runs after
it, into a closure `step(store, run)` that writes a dict store in place
and ends by calling that continuation, so a sequence is composition.
Skip, assignment, conditional and procedure call compile alike for both
bindings; a binding supplies sampling, loops and external calls: a
trial (`trial.CompiledProgram`) draws one value, exact enumeration
(`exact.Enumeration`) runs the continuation once per value.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Optional

from ..lang.ast import (
    Assign, Call, Command, ExtCall, If, Program, Sample, Seq, Skip, While,
)
from .evalexpr import UbhlRuntimeError, compile_expr, compile_write
from .values import Memory, Value, default_value

if TYPE_CHECKING:
    from .rng import TrialRng

StoreDict = dict[str, Value]
SitePath = tuple[str, ...]
Step = Callable[[StoreDict, Any], None]


def initial_memory(program: Program, overrides: Optional[dict[str, Value]] = None) -> Memory:
    """All internal variables at their type defaults, then overrides."""
    store = {name: default_value(t) for name, t in program.store_sorts().items()}
    if overrides:
        store.update(overrides)
    return Memory(store.items())


class AdversaryStrategy:
    """An external procedure: maps its own store `ext` and the call's
    arguments to its new store and its answer. A trial passes its RNG
    stream as `rng`; exact enumeration passes None, so a strategy used
    there must not draw."""

    def respond(self, ext: dict[str, Value], args: tuple[Value, ...],
                rng: Optional[TrialRng]) -> tuple[dict[str, Value], Value]:
        raise NotImplementedError


class Commands:
    """The compiler; a subclass binds `_sample`, `_while` and
    `_ext_call`. Each node compiler takes the command, its site path
    (`1`/`2` into a sequence, `t`/`e` into a branch, `b` into a loop
    body; a called procedure's body is compiled under its caller's
    path) and its continuation `k`."""

    def __init__(self, program: Program):
        self.program = program

    def compile(self, c: Command, path: SitePath, k: Step) -> Step:
        make = _COMMANDS.get(type(c))
        if make is None:
            def unsupported(store, run):
                raise UbhlRuntimeError(f"unsupported command: {c!r}")
            return unsupported
        return make(self, c, path, k)

    def _seq(self, c: Seq, path: SitePath, k: Step) -> Step:
        return self.compile(c.first, path + ("1",), self.compile(c.second, path + ("2",), k))

    def _assign(self, c: Assign, path: SitePath, k: Step) -> Step:
        e, write = compile_expr(c.expr), compile_write(c.target)

        def assign(store, run):
            write(store, e(store))
            k(store, run)
        return assign

    def _if(self, c: If, path: SitePath, k: Step) -> Step:
        guard = compile_expr(c.guard)
        then = self.compile(c.then, path + ("t",), k)
        els = self.compile(c.els, path + ("e",), k)
        return lambda store, run: (then if guard(store) else els)(store, run)

    def _call(self, c: Call, path: SitePath, k: Step) -> Step:
        arg, write, name = compile_expr(c.arg), compile_write(c.target), c.proc
        # compiled on first run: a call that never runs compiles nothing,
        # and a recursive program that bypassed typecheck does not loop
        # the compiler
        callee: list[tuple[str, Step]] = []

        def call(store, run):
            if not callee:
                callee.append(self._callee(name, path, write, k))
            param, body = callee[0]
            store[param] = arg(store)
            body(store, run)
        return call

    def _callee(self, name: str, path: SitePath, write: Callable, k: Step) -> tuple[str, Step]:
        """A procedure's parameter and its body, compiled to store the
        return value at the call's target and go on with `k`."""
        proc = self.program.procs.get(name)
        if proc is None:
            raise UbhlRuntimeError(f"unknown procedure {name!r}")
        ret = compile_expr(proc.ret)

        def returns(store, run):
            write(store, ret(store))
            k(store, run)
        return proc.arg, self.compile(proc.body, path, returns)


_COMMANDS: dict[type, Callable[[Commands, Any, SitePath, Step], Step]] = {
    Skip: lambda self, c, path, k: k,
    Seq: Commands._seq, Assign: Commands._assign, If: Commands._if, Call: Commands._call,
    Sample: lambda self, c, path, k: self._sample(c, path, k),
    While: lambda self, c, path, k: self._while(c, path, k),
    ExtCall: lambda self, c, path, k: self._ext_call(c, path, k),
}
