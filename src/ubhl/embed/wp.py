"""Weakest preconditions over instrumented commands.

Classical partial-correctness WP: havoc quantifies universally, assume
becomes an implication, ghost addition substitutes, and annotated loops
contribute initiation, preservation and exit obligations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..assertions.obligations import Implication, Obligation
from ..assertions.prover import neg
from ..checker.kernel import lvalue_sort
from ..lang.ast import (
    Assign, Assume, BinOp, Command, Expr, ExtCall, GhostAdd, Havoc, If,
    Quant, Sample, Seq, Skip, SortDom, Var, While, free_vars,
    fresh_name, subst_expr, subst_lvalue,
)
from ..lang.typecheck import TypeEnv


class MissingInvariant(Exception):
    pass


@dataclass
class WpResult:
    pre: Expr
    obligations: list[Obligation] = field(default_factory=list)


def wp(command: Command, post: Expr, env: TypeEnv,
       invariants: Optional[dict[tuple[str, ...], Expr]] = None,
       path: tuple[str, ...] = ()) -> WpResult:
    """Weakest precondition; While nodes need an invariant annotation
    keyed by their tree path."""
    obs: list[Obligation] = []

    def go(c: Command, q: Expr, p: tuple[str, ...]) -> Expr:
        if isinstance(c, Skip):
            return q
        if isinstance(c, Assign):
            return subst_lvalue(q, c.target, c.expr)
        if isinstance(c, Havoc):
            t = lvalue_sort(env, c.target)
            fresh = fresh_name("v", free_vars(q) | set(env))
            return Quant("forall", fresh, SortDom(t),
                         subst_lvalue(q, c.target, Var(fresh)))
        if isinstance(c, ExtCall):
            t = lvalue_sort(env, c.target)
            fresh = fresh_name("v", free_vars(q) | set(env))
            return Quant("forall", fresh, SortDom(t),
                         subst_lvalue(q, c.target, Var(fresh)))
        if isinstance(c, Assume):
            return BinOp("==>", c.assertion, q)
        if isinstance(c, GhostAdd):
            return subst_expr(q, c.ghost, BinOp("+", Var(c.ghost), c.amount))
        if isinstance(c, Seq):
            after = go(c.second, q, p + ("2",))
            return go(c.first, after, p + ("1",))
        if isinstance(c, If):
            then_wp = go(c.then, q, p + ("t",))
            else_wp = go(c.els, q, p + ("e",))
            return BinOp("&&", BinOp("==>", c.guard, then_wp),
                         BinOp("==>", neg(c.guard), else_wp))
        if isinstance(c, While):
            inv = (invariants or {}).get(p)
            if inv is None:
                raise MissingInvariant(f"loop at {p} has no invariant annotation")
            body_wp = go(c.body, inv, p + ("b",))
            obs.append(Implication(
                rule="wp-while", path=p, note="invariant preservation",
                antecedent=BinOp("&&", inv, c.guard), consequent=body_wp))
            obs.append(Implication(
                rule="wp-while", path=p, note="invariant implies post at exit",
                antecedent=BinOp("&&", inv, neg(c.guard)), consequent=q))
            return inv
        if isinstance(c, Sample):
            raise MissingInvariant("wp runs on instrumented commands only")
        raise MissingInvariant(f"unsupported command {c!r}")

    pre = go(command, post, path)
    return WpResult(pre=pre, obligations=obs)
