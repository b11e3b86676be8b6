"""Fourier-Motzkin elimination keeps its verdicts and node counts.

`_reference_fm_core` and `_reference_tighten` are the `Fraction`-row
elimination as it stood before the rows became integer: every row a
dict of `Fraction` coefficients, a `Fraction` constant and a strictness
flag, a strict row over integer monomials tightened by clearing its
denominators and adding one. `Prover._fm_core` must give the same
verdict and the same node count on generated systems: int- and
real-sorted monomials, strict and non-strict rows, coefficients with
denominators 1 to 12, and systems that pass the 400-product and the
2 500-row cutoffs.
"""

import math
import random
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from ubhl.assertions.prover import LinCon, Prover
from ubhl.lang.ast import INT, REAL

SORTS = {"i": INT, "j": INT, "k": INT, "x": REAL, "y": REAL}

I, J, K, X, Y = (("var", n) for n in ("i", "j", "k", "x", "y"))
MONOS = [((I, 1),), ((J, 1),), ((K, 1),), ((X, 1),), ((Y, 1),),
         ((I, 1), (J, 1)), ((I, 1), (X, 1)), ((I, -1),), ((J, 2),)]


def _reference_fm_core(prover, cons):
    if not prover._tick():
        return False
    rows = []
    for c in cons:
        rows.append((dict(c.coeffs), c.const, c.strict))
    rows = [_reference_tighten(prover, r) for r in rows]
    monos = set()
    for coeffs, _, _ in rows:
        monos.update(coeffs)
    for mono in sorted(monos, key=repr):
        pos = [r for r in rows if r[0].get(mono, 0) > 0]
        negs = [r for r in rows if r[0].get(mono, 0) < 0]
        keep = [r for r in rows if r[0].get(mono, 0) == 0]
        new_rows = keep
        if len(pos) * len(negs) <= 400:
            for p in pos:
                for n in negs:
                    cp, cn = p[0][mono], -n[0][mono]
                    coeffs = {}
                    for m, c in p[0].items():
                        coeffs[m] = coeffs.get(m, Fraction(0)) + c * cn
                    for m, c in n[0].items():
                        coeffs[m] = coeffs.get(m, Fraction(0)) + c * cp
                    coeffs = {m: c for m, c in coeffs.items() if c != 0 and m != mono}
                    const = p[1] * cn + n[1] * cp
                    new_rows.append(_reference_tighten(prover, (coeffs, const, p[2] or n[2])))
        rows = new_rows
        for coeffs, const, strict in rows:
            if not coeffs:
                if const > 0 or (strict and const == 0):
                    return True
        rows = [r for r in rows if r[0]]
        if len(rows) > 2500:
            return False
    for coeffs, const, strict in rows:
        if not coeffs and (const > 0 or (strict and const == 0)):
            return True
    return False


def _reference_tighten(prover, row):
    coeffs, const, strict = row
    if not strict or not coeffs or not all(prover._int_mono(m) for m in coeffs):
        return row
    denom = math.lcm(const.denominator, *(c.denominator for c in coeffs.values()))
    return ({m: c * denom for m, c in coeffs.items()}, const * denom + 1, False)


def _both(cons, budget=20000):
    """(verdict, nodes) of the prover's elimination and of the reference,
    each on a fresh prover, run twice so a second call's count shows."""
    out = []
    for core in (lambda p, c: p._fm_core(c), _reference_fm_core):
        prover = Prover(SORTS, budget=budget)
        out.append([(core(prover, cons), prover.nodes) for _ in range(2)])
    return out


COEFFS = st.builds(Fraction, st.integers(-12, 12).filter(bool), st.integers(1, 12))
CONSTS = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))


@st.composite
def _rows(draw, monos=MONOS, min_size=0, max_size=4):
    picked = draw(st.lists(st.sampled_from(monos), min_size=min_size,
                           max_size=max_size, unique=True))
    return LinCon(tuple((m, draw(COEFFS)) for m in picked), draw(CONSTS),
                  draw(st.booleans()))


@st.composite
def _integer_gap(draw):
    """lo < c*m < hi for an integer monomial m, with hi - lo small, so
    whether it is refuted can rest on tightening."""
    m = draw(st.sampled_from(MONOS[:3] + [MONOS[5], MONOS[8]]))
    c, lo = draw(COEFFS), draw(CONSTS)
    hi = lo + draw(st.builds(Fraction, st.integers(0, 3), st.integers(1, 12)))
    return [LinCon(((m, -c),), lo, draw(st.booleans())),
            LinCon(((m, c),), -hi, draw(st.booleans()))]


@st.composite
def _systems(draw):
    cons = draw(st.lists(_rows(), min_size=1, max_size=10))
    for _ in range(draw(st.integers(0, 2))):
        cons += draw(_integer_gap())
    if draw(st.booleans()):
        # a scaled negation of one row, shifted: often infeasible
        row = draw(st.sampled_from(cons))
        s = draw(COEFFS.map(abs))
        cons.append(LinCon(tuple((m, -s * c) for m, c in row.coeffs),
                           -s * row.const + draw(CONSTS), draw(st.booleans())))
    return draw(st.permutations(cons))


@settings(max_examples=500, deadline=None)
@given(_systems(), st.sampled_from([0, 1, 20000]))
def test_integer_rows_match_fraction_rows(cons, budget):
    ours, reference = _both(cons, budget)
    assert ours == reference


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_past_the_product_cutoff(data):
    # 21 rows above and 20 below i, which is eliminated first: 420
    # products, so i's rows are dropped
    rest = [m for m in MONOS if I not in dict(m)]
    pos = [LinCon(((((I, 1),), data.draw(COEFFS.map(abs))),) + row.coeffs,
                  row.const, row.strict)
           for row in data.draw(st.lists(_rows(rest, max_size=2), min_size=21, max_size=21))]
    negs = [LinCon(((((I, 1),), -data.draw(COEFFS.map(abs))),) + row.coeffs,
                   row.const, row.strict)
            for row in data.draw(st.lists(_rows(rest, max_size=2), min_size=20, max_size=20))]
    others = data.draw(st.lists(_rows(rest), max_size=6))
    cons = data.draw(st.permutations(pos + negs + others))
    ours, reference = _both(cons)
    assert ours == reference


@settings(max_examples=5, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_past_the_row_cutoff(seed):
    # 20 x 20 products on i (within the product cutoff), each keeping x,
    # beside 2 101 rows on j alone: 2 501 rows after the first step, so
    # the elimination gives up although j's last two rows contradict
    rnd = random.Random(seed)

    def frac(lo, hi):
        return Fraction(rnd.choice([n for n in range(lo, hi + 1) if n]), rnd.randint(1, 12))

    j_rows = [LinCon(((((J, 1),), frac(-12, 12)),), frac(-40, 40), rnd.random() < 0.5)
              for _ in range(2099)]
    j_rows += [LinCon(((((J, 1),), Fraction(-1)),), Fraction(1), False),   # j >= 1
               LinCon(((((J, 1),), Fraction(1)),), Fraction(0), False)]    # j <= 0
    pos = [LinCon(((((I, 1),), frac(1, 12)), (((X, 1),), Fraction(1))), frac(-40, 40), True)
           for _ in range(20)]
    negs = [LinCon(((((I, 1),), frac(-12, -1)),), frac(-40, 40), False) for _ in range(20)]
    cons = pos + negs + j_rows
    rnd.shuffle(cons)
    ours, reference = _both(cons)
    assert ours == reference
    assert ours == [(False, 1), (False, 2)]
