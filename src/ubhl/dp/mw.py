"""Multiplicative-weights synthetic database and its potential.

The synthetic database is a `Database` of fractional counts at scale n,
the same type the program and its queries use. The potential is the KL
divergence between the normalized true database and the normalized
synthetic one, which is nonnegative, at most ln(X) from the uniform
start, and drops by at least eta*(evalQ(up,x)-evalQ(up,d))/n - eta^2
per update. The exact definition is a reconstruction; the three
properties above are the contract.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Union

from .queries import Database, NotLinear, Query, eval_query

Num = Union[int, float, Fraction]


def mw_init(eta: Num, universe: int, n: int) -> Database:
    """The uniform start: n/X of every element."""
    if universe < 2:
        raise ValueError("universe must have at least 2 elements")
    if n < 1:
        raise ValueError("database size must be at least 1")
    del eta  # the learning rate does not affect the uniform start
    return Database((n * Fraction(1, universe),) * universe)


def mw_step(x: Database, up: Query, eta: Num, n: int) -> Database:
    """Multiplicatively shrink weight on elements the update query
    over-weights, then renormalize to n."""
    size = x.size()
    if size == 0:
        raise ValueError("MW update of a synthetic database whose counts sum to 0")
    weights = [c / size for c in x.counts]
    if not up.is_linear():
        raise NotLinear("MW update requires a linear query")
    if len(up.weights) != len(weights):
        raise ValueError("query dimension does not match synthetic database")
    eta_f = float(eta)
    scaled = [w * Fraction(math.exp(-eta_f * float(u))) for w, u in zip(weights, up.weights)]
    total = sum(scaled, Fraction(0))
    return Database(tuple(n * (s / total) for s in scaled))


def potential(x: Database, d: Database) -> float:
    """KL(normalized d || normalized x); terms with zero true mass
    contribute 0, and every other term needs a synthetic count of its
    true count's sign, so that its log is defined."""
    x_size = x.size()
    if x_size <= 0:
        raise ValueError("potential of an empty synthetic database")
    size = d.size()
    if size <= 0:
        raise ValueError("potential needs a nonempty true database")
    if len(d.counts) != len(x.counts):
        raise ValueError(f"potential of a synthetic database over {len(x.counts)}"
                         f" elements against a true one over {len(d.counts)}")
    acc = 0.0
    for c, xc in zip(d.counts, x.counts):
        if c == 0:
            continue
        if c * xc <= 0:
            raise ValueError("potential needs every synthetic count to have"
                             " the sign of its nonzero true count")
        dh = float(c / size)
        acc += dh * math.log(dh / float(xc / x_size))
    return acc


def step_decrease_bound(x: Database, up: Query, d: Database, eta: Num, n: int) -> float:
    """Lower bound the per-step potential drop is required to meet."""
    gap = float(eval_query(up, x) - eval_query(up, d))
    eta_f = float(eta)
    return eta_f * gap / n - eta_f * eta_f


def mw_alpha_formulas(alpha: float, eps: float, queries: int, universe: int,
                      n: int, beta: float) -> tuple[float, float, float]:
    """(gamma, alpha_sv, alpha_lap) at a given alpha: the one numeric
    copy of the accuracy premise that mwsv's proof states symbolically
    (the pre of `mwsv_theorem` in `cases/proofs.py`)."""
    gamma = 4 * n * n * math.log(universe) / (alpha * alpha)
    alpha_sv = (24 * gamma / eps) * math.log(2 * (queries + 1) / beta)
    alpha_lap = (4 * gamma / eps) * math.log(2 * gamma / beta)
    return gamma, alpha_sv, alpha_lap


def solve_feasible_alpha(eps: float, queries: int, universe: int, n: int,
                         beta: float) -> float:
    """Smallest alpha with alpha >= max(alpha_sv, alpha_lap).

    Both requirement curves decrease in alpha, so f(alpha) =
    max(alpha_sv, alpha_lap) - alpha is strictly decreasing; bisect its
    unique root and round up a hair to keep the precondition strict.
    """

    def excess(alpha: float) -> float:
        _, a_sv, a_lap = mw_alpha_formulas(alpha, eps, queries, universe, n, beta)
        return max(a_sv, a_lap) - alpha

    lo, hi = 1e-6, 1.0
    while excess(hi) > 0:
        hi *= 2
        if hi > 1e12:
            raise ValueError("no feasible alpha below 1e12")
    for _ in range(200):
        mid = (lo + hi) / 2
        if excess(mid) > 0:
            lo = mid
        else:
            hi = mid
    return hi * (1 + 1e-9)
