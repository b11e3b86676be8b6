"""Discrete Laplace analytics and sampling.

The distribution over integer offsets k has mass
    Pr[k] = ((1 - q) / (1 + q)) * q^|k|,   q = exp(-eps),
the two-sided geometric. Tail and threshold formulas use natural log;
the log-base convention is global to the toolkit.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Union

Num = Union[int, float, Fraction]


class DomainError(Exception):
    pass


def lap_pmf(eps: float, k: int) -> float:
    """Pr[offset = k]."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    q = math.exp(-eps)
    return (1 - q) / (1 + q) * q ** abs(k)


def lap_tail(eps: float, t: float) -> float:
    """Exact Pr[|sample - mean| > t] for t >= 0.

    The event |k| > t coincides with |k| >= floor(t)+1 on the integer
    support, so this is `lap_tail_closed` at m = floor(t)+1.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    if t < 0:
        return 1.0
    return lap_tail_closed(eps, math.floor(t) + 1)


def lap_tail_closed(eps: float, m: int) -> float:
    """Pr[|k| >= m] = 2*q^m/(1+q) for integer m >= 1."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    if m <= 0:
        return 1.0
    q = math.exp(-eps)
    return 2 * q ** m / (1 + q)


def lap_acc_threshold(eps: float, beta: float) -> float:
    """Accuracy radius: the least t >= (1/eps) * log(1/beta), natural
    log, with lap_tail(eps, t) < beta.

    The paper's radius t0 = (1/eps) * log(1/beta) is exact for
    continuous Laplace noise. On the integer lattice the tail at t0 is
    2*beta*q^(1 - frac(t0))/(1 + q), above beta when t0 sits just under
    an integer (at eps = 1 only ~0.462 of the mass is at 0, so no
    radius-log(2) ball holds half of it). The tail is below beta exactly
    from the integer m = floor((1/eps) * log(2/(beta*(1 + q)))) on, so
    the radius is max(t0, m); it is always less than t0 + 1.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    if not 0 < beta <= 1:
        raise DomainError("beta must lie in (0, 1]")
    q = math.exp(-eps)
    lattice = math.floor(math.log(2.0 / (beta * (1 + q))) / eps)
    return max(math.log(1.0 / beta) / eps, float(lattice))


def lap_sample(eps: float, mean: Num, rng) -> Fraction:
    """mean + k with k from the two-sided geometric; exact value."""
    if eps <= 0:
        raise DomainError("eps must be positive")
    k = rng.laplace_offset(float(eps))
    return (mean if type(mean) is Fraction else Fraction(mean)) + k


def lap_masses_exact(eps: Fraction, radius: int) -> tuple[dict[int, Fraction], Fraction]:
    """Certified under-approximating masses for |k| <= radius.

    Each returned mass is <= the true mass (high-precision decimals,
    then an absolute 1e-50 haircut), so `1 - sum(masses)` soundly
    over-approximates all un-enumerated probability.
    """
    if eps <= 0:
        raise DomainError("eps must be positive")
    masses: dict[int, Fraction] = {}
    with localcontext() as ctx:
        ctx.prec = 60
        e = Decimal(eps.numerator) / Decimal(eps.denominator)
        q = (-e).exp()
        c = (1 - q) / (1 + q)
        slop = Decimal(10) ** -50
        power = Decimal(1)
        for k in range(0, radius + 1):
            m = c * power - slop
            power *= q
            if m <= 0:
                continue
            frac = Fraction(m)
            masses[k] = frac
            if k > 0:
                masses[-k] = frac
    total = sum(masses.values(), Fraction(0))
    residual = 1 - total
    return masses, residual
