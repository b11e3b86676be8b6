"""Count-vector databases and affine queries, with the query algebra.

The algebra satisfies, in exact rational arithmetic:
    evalQ(invQ(q), d)        = -evalQ(q, d)
    evalQ(negQ(q), d)        = size(d) - evalQ(q, d)      (q linear)
    evalQ(error(q, d1), d2)  = evalQ(q, d1) - evalQ(q, d2)

Each query and database computes its integer form once, when first
evaluated: the lcm D of its denominators and its entries times D. Then
`eval_query` is one integer dot product and one division. The form is a
cached attribute, not a field, and is left out of pickles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Sequence, Union

Num = Union[int, Fraction]


class DimensionMismatch(Exception):
    pass


class NotLinear(Exception):
    pass


def _scaled(xs: tuple[Fraction, ...]) -> tuple[int, tuple[int, ...]]:
    """(D, xs scaled by D to integers), D the lcm of the denominators."""
    ratios = [x.as_integer_ratio() for x in xs]
    den = math.lcm(*[d for _, d in ratios])
    return den, tuple([n * (den // d) for n, d in ratios])


def _unscaled_state(obj) -> dict:
    """Pickled state: the fields without the cached integer form."""
    return {k: v for k, v in vars(obj).items() if k != "scaled"}


@dataclass(frozen=True)
class Query:
    """Affine query over a universe of size X: offset + <weights, counts>."""
    offset: Fraction
    weights: tuple[Fraction, ...]

    def is_linear(self) -> bool:
        return self.offset == 0 and all(0 <= w <= 1 for w in self.weights)

    scaled = cached_property(lambda self: _scaled(self.weights))
    __getstate__ = _unscaled_state


@dataclass(frozen=True)
class Database:
    """Count vector over {1..X}; synthetic databases may carry
    fractional counts."""
    counts: tuple[Fraction, ...]

    def size(self) -> Fraction:
        return sum(self.counts, Fraction(0))

    scaled = cached_property(lambda self: _scaled(self.counts))
    __getstate__ = _unscaled_state


def make_query(weights: Sequence[Num], offset: Num = 0) -> Query:
    return Query(Fraction(offset), tuple(Fraction(w) for w in weights))


def make_db(counts: Sequence[Num]) -> Database:
    return Database(tuple(Fraction(c) for c in counts))


def db_zero(universe: int) -> Database:
    return Database((Fraction(0),) * universe)


def db_add(a: Database, b: Database) -> Database:
    if len(a.counts) != len(b.counts):
        raise DimensionMismatch("database universes differ")
    return Database(tuple(x + y for x, y in zip(a.counts, b.counts)))


def db_size(d: Database) -> Fraction:
    return d.size()


def eval_query(q: Query, d: Database) -> Fraction:
    """offset + <weights, counts>, equal in value and type to the plain
    Fraction fold: the integer forms' dot product over their common
    denominator, plus the offset, divided once."""
    if len(q.weights) != len(d.counts):
        raise DimensionMismatch(
            f"query dimension {len(q.weights)} vs database {len(d.counts)}")
    (qd, qn), (dd, dn) = q.scaled, d.scaled
    on, od = q.offset.as_integer_ratio()
    den = qd * dd
    return Fraction(on * den + sum(map(mul, qn, dn)) * od, od * den)


def inv_query(q: Query) -> Query:
    return Query(-q.offset, tuple(-w for w in q.weights))


def neg_query(q: Query) -> Query:
    if not q.is_linear():
        raise NotLinear("negQ requires a linear query (offset 0, weights in [0,1])")
    return Query(Fraction(0), tuple(1 - w for w in q.weights))


def error_query(q: Query, d1: Database) -> Query:
    # offset is the first evaluation with q's own offset removed, so the
    # third axiom holds for affine queries as well as linear ones
    if len(q.weights) != len(d1.counts):
        raise DimensionMismatch("query dimension does not match database")
    return Query(eval_query(q, d1) - q.offset, tuple(-w for w in q.weights))

