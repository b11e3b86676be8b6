"""Judgment indices: symbolic equality, ordering and evaluation.

Indices are real expressions over logical variables (plus log terms and
set sizes). Equality is decided by the shared rational-function normal
form. `index_leq` decides an order only when the two indices differ by
a constant; any other order is the kernel's to prove under the weak
node's pre. Only `index_eval` runs the evaluator, and it imports it
itself, so the kernel does not load it.
"""

from __future__ import annotations

from typing import Mapping, Optional

from ..assertions.normform import (
    NonNumeric, canon_term, rf_const_value, rf_equal, rf_sub,
)
from ..lang.ast import Expr


class NegativeIndex(Exception):
    pass


def index_equal(a: Expr, b: Expr) -> bool:
    """Equal up to the normal form. An index with no numeric form equals
    none, itself included; one that divides by a literal zero equals
    itself."""
    try:
        return rf_equal(canon_term(a), canon_term(b))
    except NonNumeric:
        return False
    except ZeroDivisionError:
        return a == b


def index_leq(a: Expr, b: Expr) -> Optional[bool]:
    """Whether a <= b when b - a is a constant; None otherwise."""
    try:
        diff = rf_const_value(rf_sub(canon_term(b), canon_term(a)))
    except (NonNumeric, ZeroDivisionError):
        return None
    return None if diff is None else diff >= 0


def index_eval(e: Expr, env: Mapping) -> float:
    """Numeric value of an index expression; NegativeIndex if < 0."""
    from ..semantics.evalexpr import UbhlRuntimeError, eval_expr

    try:
        v = eval_expr(e, dict(env))
    except UbhlRuntimeError as exc:
        raise NegativeIndex(f"cannot evaluate index: {exc}") from exc
    out = float(v)
    if out < 0:
        raise NegativeIndex(f"index evaluates to {out}")
    return out
