"""Adversary strategies for the interactive case studies.

Each strategy owns only its external store and draws randomness from
the trial's stream, so runs stay reproducible. Queries are linear
(offset 0, weights in [0, 1]) over the case's universe.
"""

from __future__ import annotations

from fractions import Fraction
from ..dp.queries import Query
from ..semantics.rng import TrialRng
from ..semantics.commands import AdversaryStrategy
from ..semantics.values import Value

GRAIN = 16  # weight granularity: multiples of 1/16 keep values exact
_GRID = tuple(Fraction(k, GRAIN) for k in range(GRAIN + 1))
_ZERO, _HALF, _ONE = _GRID[0], _GRID[GRAIN // 2], _GRID[GRAIN]


def _unit_weights(rng: TrialRng, universe: int) -> tuple[Fraction, ...]:
    return tuple([_GRID[rng.unif_int(0, GRAIN)] for _ in range(universe)])


class FixedSequenceAdversary(AdversaryStrategy):
    """Replays a fixed list of queries, cycling when exhausted."""

    def __init__(self, queries: list[Query]):
        if not queries:
            raise ValueError("need at least one query")
        self.queries = queries

    def respond(self, ext, args, rng):
        i = ext.get("step", 0)
        ext = dict(ext)
        ext["step"] = i + 1
        return ext, self.queries[i % len(self.queries)]


class RandomQueryAdversary(AdversaryStrategy):
    """Uniformly random linear queries."""

    def __init__(self, universe: int):
        self.universe = universe

    def respond(self, ext, args, rng):
        if rng is None:
            raise ValueError("random adversary needs a randomness stream")
        return ext, Query(_ZERO, _unit_weights(rng, self.universe))


class AdaptiveThresholdAdversary(AdversaryStrategy):
    """Conditions each query on previous answers, walking the query
    magnitude toward the release threshold to force near-ties."""

    def __init__(self, universe: int, step: Fraction = Fraction(1, GRAIN)):
        self.universe = universe
        self.step = step

    def respond(self, ext, args, rng):
        ext = dict(ext)
        level = ext.get("level", _HALF)
        prev = args[0] if args else False
        # above threshold: back off; below: push up
        if isinstance(prev, bool):
            level = level - self.step if prev else level + self.step
        level = min(_ONE, max(_ZERO, level))
        ext["level"] = level
        return ext, Query(_ZERO, (level,) * self.universe)


class SyntheticGapAdversary(AdversaryStrategy):
    """Targets the bucket the synthetic database currently weights
    heaviest, probing where the released model is most committed. The
    probe for bucket i is built once; past the universe it is all zero."""

    def __init__(self, universe: int):
        self.universe = universe
        self.probes = tuple(Query(_ZERO, tuple(_ONE if i == top else _ZERO
                                               for i in range(universe)))
                            for top in range(universe + 1))

    def respond(self, ext, args, rng):
        mwdb = args[1] if len(args) > 1 else None
        if mwdb is not None and getattr(mwdb, "counts", None):
            top = max(range(len(mwdb.counts)), key=lambda i: mwdb.counts[i])
        else:
            top = 0
        return ext, self.probes[min(top, self.universe)]


def sv_menu(universe: int, db_counts: tuple[Fraction, ...]) -> dict[str, AdversaryStrategy]:
    # the fixed list straddles the threshold region of the shipped database
    fixed = [
        Query(Fraction(0), tuple(Fraction(1) for _ in range(universe))),
        Query(Fraction(0), tuple(Fraction(0) for _ in range(universe))),
        Query(Fraction(0), tuple(Fraction(1, 2) for _ in range(universe))),
        Query(Fraction(0), tuple(Fraction(1) if i % 2 == 0 else Fraction(0)
                                 for i in range(universe))),
    ]
    return {
        "fixed": FixedSequenceAdversary(fixed),
        "random": RandomQueryAdversary(universe),
        "adaptive": AdaptiveThresholdAdversary(universe),
    }


def mwsv_menu(universe: int) -> dict[str, AdversaryStrategy]:
    fixed = [
        Query(Fraction(0), tuple(Fraction(1) if i == j % universe else Fraction(0)
                                 for i in range(universe)))
        for j in range(universe)
    ]
    return {
        "fixed": FixedSequenceAdversary(fixed),
        "random": RandomQueryAdversary(universe),
        "adaptive": SyntheticGapAdversary(universe),
    }
