"""Ghost-code embedding into standard Hoare logic.

Every sampling site `x <$ d(e)` becomes `havoc x; assume post;
ghost += iota`, the demonic reading of its axiom instance, and a fresh
real ghost variable accumulates the failure budget. A judgment with
index b embeds into the triple
    pre and ghost == 0   ==>   post and ghost <= b.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..lang.ast import (
    Assign, Assume, BinOp, Call, Command, Expr, GhostAdd, Havoc, If, LValue,
    NumLit, Program, Sample, Seq, Var, While, fresh_name,
)


class MissingAxiomAssignment(Exception):
    pass


SitePath = tuple[str, ...]


@dataclass
class SiteSpec:
    post: Expr          # assumed fact about the sampled value
    index: Expr         # failure budget charged at this site


@dataclass
class HoareTriple:
    pre: Expr
    command: Command
    post: Expr
    index: Expr
    ghost: str

    def pre_full(self) -> Expr:
        return BinOp("&&", self.pre, BinOp("==", Var(self.ghost), NumLit(Fraction(0))))

    def post_full(self) -> Expr:
        return BinOp("&&", self.post, BinOp("<=", Var(self.ghost), self.index))


def embed(command: Command, sites: dict[SitePath, SiteSpec], pre: Expr,
          post: Expr, index: Expr, program: Optional[Program] = None,
          ghost: Optional[str] = None) -> tuple[Command, HoareTriple]:
    """Replace sampling with havoc/assume/ghost-add instrumentation."""
    avoid = set() if program is None else program.store_sorts().keys() | program.extvars.keys()
    ghost_var = ghost or fresh_name("x_beta", avoid)

    def walk(c: Command, path: SitePath) -> Command:
        if isinstance(c, Sample):
            spec = sites.get(path)
            if spec is None:
                raise MissingAxiomAssignment(f"no axiom assignment for site {path}")
            return Seq(Havoc(c.target),
                       Seq(Assume(spec.post), GhostAdd(ghost_var, spec.index)))
        if isinstance(c, Seq):
            return Seq(walk(c.first, path + ("1",)), walk(c.second, path + ("2",)))
        if isinstance(c, If):
            return If(c.guard, walk(c.then, path + ("t",)), walk(c.els, path + ("e",)))
        if isinstance(c, While):
            return While(c.guard, walk(c.body, path + ("b",)))
        if isinstance(c, Call) and program is not None:
            # procedures are non-recursive and share the global store,
            # so a call is exactly argument assignment, body, return
            callee = program.procs[c.proc]
            body = walk(callee.body, path)
            return Seq(Assign(LValue(callee.arg), c.arg),
                       Seq(body, Assign(c.target, callee.ret)))
        return c

    instrumented = walk(command, ())
    triple = HoareTriple(pre=pre, command=instrumented, post=post,
                         index=index, ghost=ghost_var)
    return instrumented, triple
