"""Axiom schemas for the sampling rule.

A schema turns a sampling site into a postcondition and a failure
index. Schemas are the trusted base of the kernel, and
`instantiate_axiom` is the one place they are stated: the kernel's rand
rule and the embedding's `collect_sites` both call it.

Shipped schemas:
  lap_acc      |x - e| <= (1/eps) * log(1/iota) + 1  at index iota
  finite_exact the script's site postcondition at index iota, for closed
               finite-support sites; the premise Pr[not post] <= iota is
               decided by `finite_site_failure`, not trusted
  true_post    trivial postcondition at index 0 for any site

The paper's Laplace radius (1/eps) * log(1/iota) is exact for
continuous noise, but the sampled noise lives on the integer lattice,
where the tail at that radius can reach 2*iota/(1 + e^-eps) > iota.
`lap_acc` adds one lattice step: the exact radius
`ubhl.dp.lap_acc_threshold` is always below it, which `lap_acc_covers`
checks.

Only `finite_site_failure` and `lap_acc_covers` evaluate anything; they
import the evaluator and the noise tables themselves, so loading the
kernel does not load the semantics.
"""

from __future__ import annotations

from fractions import Fraction

from ..lang.ast import REAL, BinOp, DistExpr, Expr, FuncCall, NumLit, TRUE


class SchemaMismatch(Exception):
    pass


def _lap_radius(eps: Expr, iota: Expr) -> Expr:
    one = NumLit(Fraction(1))
    paper = BinOp("*", BinOp("/", one, eps),
                  FuncCall("log", (BinOp("/", one, iota),)))
    return BinOp("+", paper, one)


def instantiate_axiom(schema: str, target: Expr, dist: DistExpr, iota: Expr,
                      site_post: Expr) -> tuple[Expr, Expr]:
    """Postcondition and index of the site `target <$ dist` under
    `schema` at site index `iota`; `site_post` is the script's own
    postcondition, which only finite_exact takes."""
    if schema == "lap_acc":
        if dist.name != "lap":
            raise SchemaMismatch(f"schema 'lap_acc' expects 'lap', site uses {dist.name!r}")
        eps, mean = dist.args
        return BinOp("<=", FuncCall("abs", (BinOp("-", target, mean),)),
                     _lap_radius(eps, iota)), iota
    if schema == "true_post":
        return TRUE, NumLit(Fraction(0))
    if schema == "finite_exact":
        return site_post, iota
    raise SchemaMismatch(f"unknown axiom schema {schema!r}")


def lap_acc_covers(eps: float, beta: float) -> bool:
    """Whether lap_acc's radius at (eps, beta) covers the exact discrete
    radius, so Pr[not post] <= beta holds at these parameters."""
    from ..dp.laplace import lap_acc_threshold
    from ..semantics.evalexpr import eval_expr

    stated = _lap_radius(NumLit(Fraction(eps), REAL), NumLit(Fraction(beta), REAL))
    return lap_acc_threshold(eps, beta) <= eval_expr(stated, {})


def finite_site_failure(dist: DistExpr, target_name: str, post: Expr,
                        store: dict) -> Fraction:
    """Exact Pr[not post] for a closed finite-support site; the `post`
    may only constrain the sampled variable. A value at which the post
    raises a runtime error counts as failing, as in
    `SubDist.prob_upper`."""
    from ..semantics.evalexpr import UbhlRuntimeError, dist_params, eval_expr, finite_support

    if dist.name not in ("bern", "unifint"):
        raise SchemaMismatch(f"finite_exact does not cover {dist.name!r}")
    try:
        params = dist_params(dist.name, [eval_expr(a, store) for a in dist.args])
    except UbhlRuntimeError as exc:
        raise SchemaMismatch(str(exc)) from exc
    fail = Fraction(0)
    for value, mass in finite_support(dist.name, params):
        local = dict(store)
        local[target_name] = value
        try:
            holds = bool(eval_expr(post, local))
        except UbhlRuntimeError:
            holds = False
        if not holds:
            fail += mass
    return fail
