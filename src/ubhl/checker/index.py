"""Judgment indices: symbolic equality, ordering and evaluation.

Indices are nonnegative real expressions over logical variables (plus
log terms and set sizes). Equality is decided by the shared
rational-function normal form; ordering falls back to a coefficient
heuristic under the convention that logical index variables are
positive, and otherwise becomes an obligation. Only `index_eval` runs
the evaluator, and it imports it itself, so the kernel does not load it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional

from ..assertions.normform import (
    NonNumeric, canon_term, rf_const_value, rf_equal, rf_from_key, rf_linear,
    rf_sub,
)
from ..lang.ast import Expr


class NegativeIndex(Exception):
    pass


def index_equal(a: Expr, b: Expr) -> bool:
    try:
        return rf_equal(canon_term(a), canon_term(b))
    except (NonNumeric, ZeroDivisionError):
        return False


def index_leq(a: Expr, b: Expr) -> Optional[bool]:
    """True when b - a is provably nonnegative under the positivity
    convention; None when undecided (becomes an obligation)."""
    try:
        diff = rf_sub(canon_term(b), canon_term(a))
    except (NonNumeric, ZeroDivisionError):
        return None
    cv = rf_const_value(diff)
    if cv is not None:
        return cv >= 0
    lin = rf_linear(diff)
    if lin is not None and all(c >= 0 for c in lin.values()) \
            and all(_positive_mono(m) for m in lin):
        return True
    # ratio form: nonneg numerator over positive denominator
    num, den = diff
    if all(c >= 0 for c in num.values()) and all(_positive_mono(m) for m in num) \
            and all(c > 0 for c in den.values()) and all(_positive_mono(m) for m in den):
        return True
    return None


def _positive_mono(mono) -> bool:
    """Positive under the convention that index variables and set sizes
    are positive; log atoms are sign-unknown unless ground."""
    for key, _exp in mono:
        if key[0] == "var":
            continue
        if key[0] == "func" and key[1] == "size":
            continue
        if key[0] == "log":
            cv = rf_const_value(rf_from_key(key[1]))
            if cv is not None and cv >= 1:
                continue
            return False
        return False
    return True


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


def index_ground_value(e: Expr) -> Optional[Fraction]:
    try:
        return rf_const_value(canon_term(e))
    except (NonNumeric, ZeroDivisionError):
        return None
