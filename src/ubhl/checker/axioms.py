"""Axiom schemas for the sampling rule.

A schema turns a sampling site into a postcondition template and a
failure index. Schemas are the trusted base of the kernel; each carries
a numeric validation hook that is exercised in CI.

Shipped schemas:
  lap_acc      |x - e| <= (1/eps) * log(1/iota) + 1  at index iota
  finite_exact exact enumeration for closed finite-support sites; the
               premise Pr[not post] <= iota is decided, not trusted
  true_post    trivial postcondition at index 0 for any site

The paper's Laplace radius (1/eps) * log(1/iota) is exact for
continuous noise, but the sampled noise lives on the integer lattice,
where the tail at that radius can reach 2*iota/(1 + e^-eps) > iota.
`lap_acc` adds one lattice step: the exact radius
`ubhl.dp.lap_acc_threshold` is always below it, and its hook checks so.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from ..dp.laplace import lap_acc_threshold
from ..lang.ast import REAL, BinOp, DistExpr, Expr, FuncCall, NumLit, TRUE
from ..semantics.evalexpr import UbhlRuntimeError, dist_params, eval_expr


class SchemaMismatch(Exception):
    pass


@dataclass
class AxiomSchema:
    name: str
    dist_family: Optional[str]           # None accepts any constructor
    # (sample-target-as-expr, dist, site index) -> postcondition
    post_template: Callable[[Expr, DistExpr, Expr], Expr]
    index_template: Callable[[Expr], Expr]
    # numeric spot check Pr[not post] <= index at concrete parameters
    validate: Callable[..., bool]


def _lap_radius(eps: Expr, iota: Expr) -> Expr:
    one = NumLit(Fraction(1))
    paper = BinOp("*", BinOp("/", one, eps),
                  FuncCall("log", (BinOp("/", one, iota),)))
    return BinOp("+", paper, one)


def _lap_post(target: Expr, dist: DistExpr, iota: Expr) -> Expr:
    eps, mean = dist.args
    return BinOp("<=", FuncCall("abs", (BinOp("-", target, mean),)),
                 _lap_radius(eps, iota))


def _lap_validate(eps: float, beta: float) -> bool:
    stated = _lap_radius(NumLit(Fraction(eps), REAL), NumLit(Fraction(beta), REAL))
    return lap_acc_threshold(eps, beta) <= eval_expr(stated, {})


def _top_post(target: Expr, dist: DistExpr, iota: Expr) -> Expr:
    return TRUE


LAP_ACC = AxiomSchema(
    name="lap_acc",
    dist_family="lap",
    post_template=_lap_post,
    index_template=lambda iota: iota,
    validate=_lap_validate,
)

TRUE_POST = AxiomSchema(
    name="true_post",
    dist_family=None,
    post_template=_top_post,
    index_template=lambda iota: NumLit(Fraction(0)),
    validate=lambda *a: True,
)

FINITE_EXACT = AxiomSchema(
    name="finite_exact",
    dist_family=None,   # bern / unifint, checked at application time
    post_template=lambda target, dist, iota: TRUE,  # post is free-form
    index_template=lambda iota: iota,
    validate=lambda *a: True,
)


class AxiomRegistry:
    def __init__(self) -> None:
        self.schemas: dict[str, AxiomSchema] = {}

    def register(self, schema: AxiomSchema) -> None:
        self.schemas[schema.name] = schema

    def get(self, name: str) -> AxiomSchema:
        if name not in self.schemas:
            raise SchemaMismatch(f"unknown axiom schema {name!r}")
        return self.schemas[name]


def default_registry() -> AxiomRegistry:
    reg = AxiomRegistry()
    reg.register(LAP_ACC)
    reg.register(TRUE_POST)
    reg.register(FINITE_EXACT)
    return reg


def instantiate_axiom(reg: AxiomRegistry, schema_id: str, target: Expr,
                      dist: DistExpr, iota: Expr) -> tuple[Expr, Expr]:
    """Postcondition and index for a sampling site."""
    schema = reg.get(schema_id)
    if schema.dist_family is not None and dist.name != schema.dist_family:
        raise SchemaMismatch(
            f"schema {schema_id!r} expects {schema.dist_family!r}, site uses {dist.name!r}")
    return schema.post_template(target, dist, iota), schema.index_template(iota)


def finite_site_failure(dist: DistExpr, target_name: str, post: Expr,
                        store: dict) -> Fraction:
    """Exact Pr[not post] for a closed finite-support site; the `post`
    may only constrain the sampled variable."""
    if dist.name not in ("bern", "unifint"):
        raise SchemaMismatch(f"finite_exact does not cover {dist.name!r}")
    try:
        params = dist_params(dist.name, [eval_expr(a, store) for a in dist.args])
    except UbhlRuntimeError as exc:
        raise SchemaMismatch(str(exc)) from exc
    support: list[tuple[object, Fraction]]
    if dist.name == "bern":
        p, = params
        support = [(True, p), (False, 1 - p)]
    else:
        lo, hi = params
        w = Fraction(1, hi - lo + 1)
        support = [(v, w) for v in range(lo, hi + 1)]
    fail = Fraction(0)
    for value, mass in support:
        local = dict(store)
        local[target_name] = value
        if not bool(eval_expr(post, local)):
            fail += mass
    return fail
