import math
import pickle
import random
from fractions import Fraction

import pytest

from ubhl.dp.laplace import (
    DomainError, lap_acc_threshold, lap_masses_exact, lap_pmf, lap_sample,
    lap_tail,
)
from ubhl.dp.mw import (
    mw_alpha_formulas, mw_init, mw_step, potential,
    solve_feasible_alpha, step_decrease_bound,
)
from ubhl.dp.queries import (
    Database, NotLinear, db_add, db_size, db_zero, error_query, eval_query,
    inv_query, make_db, make_query, neg_query,
)
from ubhl.semantics.rng import TrialRng


# ── discrete noise analytics ──


def brute_tail(eps: float, t: float, radius: int = 4000) -> float:
    q = math.exp(-eps)
    norm = 1 + 2 * sum(q ** k for k in range(1, radius))
    mass = sum(q ** abs(k) for k in range(-radius, radius + 1) if abs(k) > t)
    return mass / norm


def test_pmf_at_zero():
    assert abs(lap_pmf(1.0, 0) - 0.462117) < 1e-6


def test_tail_at_zero():
    assert abs(lap_tail(1.0, 0.0) - 0.537883) < 1e-6


@pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 2.0, 4.0])
@pytest.mark.parametrize("t", [0.0, 0.7, 1.0, 2.5, 7.3])
def test_tail_matches_brute_force(eps, t):
    assert abs(lap_tail(eps, t) - brute_tail(eps, t)) < 1e-12


def test_tail_vanishes_at_extreme_radius():
    assert lap_tail(1.0, 1000.0) == 0.0
    assert lap_tail(0.1, 1.0) > lap_tail(0.1, 50.0) > lap_tail(0.1, 500.0)


def test_closed_ball_companion():
    from ubhl.dp.laplace import lap_tail_closed

    for eps in (0.5, 1.0, 2.0):
        for m in (1, 2, 5):
            want = brute_tail(eps, m - 0.5)  # |k| >= m equals |k| > m - 1/2
            assert abs(lap_tail_closed(eps, m) - want) < 1e-12
    assert lap_tail_closed(1.0, 0) == 1.0


def test_acc_threshold_values():
    assert abs(lap_acc_threshold(1.0, 0.1) - math.log(10)) < 1e-12
    assert abs(lap_acc_threshold(2.0, 0.1) - math.log(10) / 2) < 1e-12
    assert lap_acc_threshold(1.0, 1.0) == 0.0
    # the paper's radius leaves the discrete tail at or above beta here
    assert lap_acc_threshold(1.0, 0.5) == 1.0
    assert lap_acc_threshold(0.1, 0.5) == 7.0
    with pytest.raises(DomainError):
        lap_acc_threshold(-1.0, 0.5)


def test_exact_masses_certified():
    masses, residual = lap_masses_exact(Fraction(1), 60)
    total = sum(masses.values(), Fraction(0))
    assert total + residual == 1
    assert residual >= 0
    # each mass under-approximates the true mass
    q = math.exp(-1)
    for k, m in masses.items():
        true = (1 - q) / (1 + q) * q ** abs(k)
        assert float(m) <= true + 1e-30


def test_normalization_within_1e9():
    for eps in (0.1, 1.0, 4.0):
        radius = int(200 / eps) + 1
        masses, residual = lap_masses_exact(Fraction(eps).limit_denominator(10), radius)
        assert abs(float(sum(masses.values())) - 1.0) < 1e-9


def test_sampler_matches_pmf():
    rng = TrialRng(5, 0)
    n = 60000
    counts = {}
    for _ in range(n):
        k = rng.laplace_offset(1.0)
        counts[k] = counts.get(k, 0) + 1
    for k in (-2, -1, 0, 1, 2):
        assert abs(counts.get(k, 0) / n - lap_pmf(1.0, k)) < 0.01


def test_sample_mean_is_center():
    rng = TrialRng(6, 0)
    n = 100000
    total = sum(lap_sample(1.0, Fraction(7), rng) for _ in range(n))
    assert abs(float(total) / n - 7) < 0.05


def test_sample_values_exact_lattice():
    rng = TrialRng(7, 0)
    for _ in range(100):
        v = lap_sample(0.5, Fraction(3, 2), rng)
        assert (v - Fraction(3, 2)).denominator == 1


# ── query algebra ──


def random_pair(rng: random.Random, universe: int):
    q = make_query([Fraction(rng.randint(0, 8), 8) for _ in range(universe)],
                   offset=Fraction(rng.randint(-5, 5)))
    d = make_db([rng.randint(0, 9) for _ in range(universe)])
    return q, d


def test_query_axioms_exact():
    rng = random.Random(13)
    for _ in range(1000):
        x = rng.randint(1, 6)
        q, d1 = random_pair(rng, x)
        _, d2 = random_pair(rng, x)
        lin = make_query([Fraction(rng.randint(0, 8), 8) for _ in range(x)])
        assert eval_query(inv_query(q), d1) == -eval_query(q, d1)
        assert eval_query(neg_query(lin), d1) == db_size(d1) - eval_query(lin, d1)
        assert eval_query(error_query(q, d1), d2) == \
            eval_query(q, d1) - eval_query(q, d2)


def test_query_examples():
    d = make_db([2, 0, 1])
    ones = make_query([1, 1, 1])
    assert eval_query(ones, d) == db_size(d) == 3
    const = make_query([0, 0, 0], offset=5)
    assert eval_query(const, d) == 5
    q = make_query([Fraction(1, 5), 0, 0])
    assert inv_query(inv_query(q)) == q
    with pytest.raises(NotLinear):
        neg_query(make_query([2, 0, 0]))


def test_linear_query_additivity():
    rng = random.Random(3)
    for _ in range(200):
        x = rng.randint(1, 5)
        lin = make_query([Fraction(rng.randint(0, 8), 8) for _ in range(x)])
        d1 = make_db([rng.randint(0, 9) for _ in range(x)])
        d2 = make_db([rng.randint(0, 9) for _ in range(x)])
        assert eval_query(lin, db_add(d1, d2)) == \
            eval_query(lin, d1) + eval_query(lin, d2)
        assert eval_query(lin, db_zero(x)) == 0


# ── multiplicative weights ──


def test_mw_init_uniform_and_bounds():
    x = mw_init(0.5, 4, 6)
    assert x.counts == (Fraction(6, 4),) * 4
    uniform_d = make_db([1, 1, 1, 1])
    assert abs(potential(x, uniform_d)) < 1e-12
    point = make_db([4, 0, 0, 0])
    assert abs(potential(x, point) - math.log(4)) < 1e-12
    for counts in ([2, 1, 1, 0], [0, 0, 5, 1], [1, 1, 1, 1]):
        assert potential(x, make_db(counts)) <= math.log(4) + 1e-12


def test_mw_step_example():
    x = Database((Fraction(1), Fraction(1)))
    up = make_query([1, 0])
    x2 = mw_step(x, up, 0.1, 2)
    w = [float(c / 2) for c in x2.counts]
    assert abs(w[0] - 0.475021) < 1e-6
    assert abs(w[1] - 0.524979) < 1e-6
    assert sum(x2.counts) == 2


def test_mw_step_noop_at_zero_rate():
    x = Database((Fraction(1, 2), Fraction(3, 2)))
    x2 = mw_step(x, make_query([1, 0]), 0.0, 2)
    assert x2.counts == x.counts


def test_potential_example():
    x = Database((Fraction(1, 2), Fraction(3, 2)))
    d = make_db([2, 0])
    assert abs(potential(x, d) - math.log(4)) < 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: mw_step(Database((Fraction(1), Fraction(-1))), make_query([1, 0]), 0.1, 2),
     "MW update of a synthetic database whose counts sum to 0"),
    (lambda: potential(Database((Fraction(2), Fraction(0))), make_db([1, 1])),
     "potential needs every synthetic count to have the sign of its nonzero true count"),
    (lambda: potential(Database((Fraction(3), Fraction(-1))), make_db([1, 1])),
     "potential needs every synthetic count to have the sign of its nonzero true count"),
], ids=["step-zero-sum", "potential-zero-count", "potential-negative-count"])
def test_mw_domain_errors_name_their_condition(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_mw_property_suite():
    """Nonnegativity, initial bound, per-step decrease on random data."""
    rng = random.Random(99)
    violations = 0
    for _ in range(1000):
        universe = rng.randint(2, 6)
        counts = [rng.randint(0, 5) for _ in range(universe)]
        if sum(counts) == 0:
            counts[0] = 1
        n = sum(counts)  # the decrease bound is stated at the true scale
        d = make_db(counts)
        raw = [Fraction(rng.randint(1, 16), 16) for _ in range(universe)]
        total = sum(raw)
        x = Database(tuple(n * (w / total) for w in raw))
        eta = rng.random() * 0.5
        up = make_query([Fraction(rng.randint(0, 8), 8) for _ in range(universe)])
        pot = potential(x, d)
        if pot < -1e-12:
            violations += 1
        x2 = mw_step(x, up, eta, n)
        drop = pot - potential(x2, d)
        need = step_decrease_bound(x, up, d, eta, n)
        if drop < need - 1e-9:
            violations += 1
        init_pot = potential(mw_init(eta, universe, n), d)
        if init_pot > math.log(universe) + 1e-12:
            violations += 1
    assert violations == 0


def test_feasible_alpha_fixpoint():
    alpha = solve_feasible_alpha(40.0, 10, 8, 6, 0.25)
    gamma, a_sv, a_lap = mw_alpha_formulas(alpha, 40.0, 10, 8, 6, 0.25)
    assert alpha >= max(a_sv, a_lap)
    assert alpha <= max(a_sv, a_lap) * (1 + 1e-6)
    assert abs(alpha - 9.30) < 0.05


# ── eval_query against the plain Fraction fold ──

from hypothesis import given, settings, strategies as st  # noqa: E402

from ubhl.dp.queries import DimensionMismatch, Query  # noqa: E402


def _plain_fold(q, d):
    acc = q.offset
    for w, c in zip(q.weights, d.counts):
        acc += w * c
    return acc


_rationals = st.one_of(
    st.just(Fraction(0)),
    st.just(0),
    st.integers(-20, 20),
    st.fractions(max_denominator=16),
    st.builds(Fraction, st.integers(-2 ** 53, 2 ** 53),
              st.integers(2 ** 50, 2 ** 54)),
)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 9), _rationals.map(Fraction))
def test_eval_query_matches_fraction_fold(data, dim, offset):
    weights = tuple(data.draw(st.lists(_rationals, min_size=dim, max_size=dim)))
    counts = tuple(data.draw(st.lists(_rationals, min_size=dim, max_size=dim)))
    q, d = Query(offset, weights), Database(counts)
    got, want = eval_query(q, d), _plain_fold(q, d)
    assert got == want
    assert type(got) is type(want)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 6), st.integers(0, 6))
def test_eval_query_dimension_mismatch(nq, nd):
    q = make_query([Fraction(1, 2)] * nq, offset=3)
    d = make_db([1] * nd)
    if nq == nd:
        assert eval_query(q, d) == 3 + Fraction(nq, 2)
    else:
        with pytest.raises(DimensionMismatch):
            eval_query(q, d)


# ── eval_query's integer form on derived queries ──

_WEIGHTS01 = st.one_of(st.just(0), st.just(1), st.fractions(0, 1, max_denominator=16))


def _derived(q, d1, steps):
    """q after a chain of invQ, negQ (when q is linear) and error(., d1)."""
    out = [q]
    for step in steps:
        if step == "inv":
            q = inv_query(q)
        elif step == "neg" and q.is_linear():
            q = neg_query(q)
        elif step == "error":
            q = error_query(q, d1)
        out.append(q)
    return out


@settings(max_examples=150, deadline=None)
@given(st.data(), st.integers(1, 6),
       st.lists(st.sampled_from(["inv", "neg", "error"]), max_size=5))
def test_eval_query_on_derived_queries_matches_the_fold(data, dim, steps):
    """Before the integer forms are cached, after, and after a pickle
    round trip, which leaves the cached form out."""
    weights = tuple(map(Fraction, data.draw(st.lists(_WEIGHTS01, min_size=dim, max_size=dim))))
    d1, d2 = (Database(tuple(data.draw(st.lists(_rationals.map(Fraction),
                                                 min_size=dim, max_size=dim))))
              for _ in range(2))
    for q in _derived(Query(Fraction(0), weights), d1, steps):
        for d in (d1, d2, d1):
            got, want = eval_query(q, d), _plain_fold(q, d)
            assert got == want and type(got) is type(want)
        assert pickle.dumps(q) == pickle.dumps(Query(q.offset, q.weights))
        q2, d3 = pickle.loads(pickle.dumps(q)), pickle.loads(pickle.dumps(d1))
        assert "scaled" not in vars(q2) and "scaled" not in vars(d3)
        assert q2 == q and hash(q2) == hash(q) and repr(q2) == repr(q)
        assert eval_query(q2, d3) == _plain_fold(q, d1)
