"""Acceptance criteria, one test per criterion, each printing a
PASS/FAIL line with its measured runtime.

Criterion 2's middle clause (the noise-tail bound beaten strictly by
its own budget across the whole grid) is implemented exactly as stated.
The paper's radius log(1/beta)/eps alone would fail it at the two
coarsest grid points: the discrete two-sided geometric places only
~0.462 mass at zero when the rate is 1, so no radius-log(2) ball can
capture half of it; the ratio of tail to budget peaks at 2/(1+e^-eps)
> 1 whenever the radius sits just under an integer. `lap_acc_threshold`
widens the radius to the lattice there, and the kernel's `lap_acc`
schema is validated against it. Run with
`pytest -s tests/test_acceptance.py` to see every criterion's line.
"""

import math
import time
from fractions import Fraction

import pytest

from ubhl.assertions.prover import neg
from ubhl.checker.index import index_eval
from ubhl.checker.kernel import check
from ubhl.dp.laplace import lap_acc_threshold, lap_masses_exact, lap_tail
from ubhl.dp.mw import mw_init, mw_step, potential, step_decrease_bound
from ubhl.dp.queries import (
    Database, db_size, error_query, eval_query, inv_query, make_db, make_query,
    neg_query,
)
from ubhl.lang.ast import Call, LValue, NumLit
from ubhl.lang.parser import parse_expr
from ubhl.lang.typecheck import typecheck
from ubhl.semantics.evalexpr import eval_in_memory
from ubhl.semantics.exact import denote_exact, initial_memory
from ubhl.semantics.rng import TrialRng

from corpus import generate_corpus


def report(criterion: int, ok: bool, elapsed: float, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {criterion}] {verdict} ({elapsed:.1f}s)"
    if detail:
        line += f" {detail}"
    print(line)


def test_criterion_1_kernel_soundness_suite():
    t0 = time.time()
    corpus = generate_corpus()
    assert len(corpus) >= 20
    worst = 0.0
    for program, script, params in corpus:
        typecheck(program)
        res = check(program, script)
        assert res.accepted and res.fully_proved, res.summary()
        beta = index_eval(parse_expr(script.root.index), {})
        cmd = Call(LValue("res"), "main", NumLit(Fraction(0)))
        dist = denote_exact(program, cmd, initial_memory(program).set("res", 0))
        bad = neg(parse_expr(params["post"]))
        mass = float(dist.prob_upper(lambda m: bool(eval_in_memory(bad, m))))
        assert mass <= beta + 1e-9, f"mass {mass} > beta {beta}"
        worst = max(worst, mass - beta)
    elapsed = time.time() - t0
    ok = elapsed < 30
    report(1, ok, elapsed, f"{len(corpus)} programs, worst slack {worst:.2e}")
    assert ok, f"runtime {elapsed:.1f}s exceeds 30s"


def test_criterion_2_laplace_analytics():
    t0 = time.time()
    failures = []

    # normalization within 1e-9 at radius 200/eps
    for eps in (Fraction(1, 10), Fraction(1), Fraction(4)):
        radius = int(200 / eps) + 1
        masses, _ = lap_masses_exact(eps, radius)
        if abs(float(sum(masses.values())) - 1.0) >= 1e-9:
            failures.append(f"normalization at eps={eps}")

    # the accuracy radius beats its budget strictly across the grid
    grid_bad = []
    for eps in (0.1, 1.0, 4.0):
        for beta in (0.5, 0.1, 0.01):
            tail = lap_tail(eps, lap_acc_threshold(eps, beta))
            if not tail < beta:
                grid_bad.append((eps, beta, tail))
    if grid_bad:
        failures.append("strict tail bound fails at "
                        + ", ".join(f"(eps={e}, beta={b}: tail={t:.6f})"
                                    for e, b, t in grid_bad))

    # Monte Carlo tail within 0.01 of the closed form at N = 1e5
    rng = TrialRng(2024, 0)
    n = 100000
    t_radius = 2.0
    hits = sum(abs(rng.laplace_offset(1.0)) > t_radius for _ in range(n))
    if abs(hits / n - lap_tail(1.0, t_radius)) >= 0.01:
        failures.append("Monte Carlo tail drift")

    elapsed = time.time() - t0
    ok = not failures and elapsed < 20
    report(2, ok, elapsed, "; ".join(failures) or "all clauses hold")
    assert ok, ("criterion 2 fails as stated: " + "; ".join(failures)
                + " (see this module's docstring)")


def test_criterion_3_proof_checking_and_mutations():
    from test_mutations import BUILDERS, PROGRAMS
    import test_mutations as tm

    t0 = time.time()
    for name, builder in BUILDERS.items():
        res = check(PROGRAMS[name], builder())
        assert res.accepted, f"{name}: {res.summary()}"
        if name in ("rnm", "sv"):
            assert res.fully_proved
    mutations = [getattr(tm, f) for f in dir(tm)
                 if f.startswith("test_") and "_m" in f]
    assert len(mutations) >= 15
    for fn in mutations:
        fn()
    elapsed = time.time() - t0
    ok = elapsed < 10
    report(3, ok, elapsed, f"3 proofs accepted, {len(mutations)} mutations detected")
    assert ok, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_4_rnm_validation():
    from ubhl.cases.registry import rnm_analytic_bound, validate_case

    t0 = time.time()
    r = validate_case("rnm", {"size": 10, "eps": 1.0, "beta": 0.2},
                      trials=5000, seed=2024)
    analytic = rnm_analytic_bound({"size": 10, "eps": 1.0, "beta": 0.2})
    rate = r.estimate.failure_rate
    elapsed = time.time() - t0
    ok = rate <= 0.2 and rate <= analytic and elapsed < 60
    report(4, ok, elapsed, f"rate {rate:.4f} <= 0.2 and <= analytic {analytic:.4f}")
    assert rate <= 0.2 and rate <= analytic
    assert elapsed < 60


def test_criterion_5_sv_validation_all_adversaries():
    from ubhl.cases.registry import validate_case

    t0 = time.time()
    rates = {}
    for adv in ("fixed", "random", "adaptive"):
        r = validate_case("sv", {"Q": 20, "eps": 1.0, "beta": 0.2},
                          trials=5000, seed=2024, adversary=adv)
        rates[adv] = r.estimate.failure_rate
        assert r.estimate.failure_rate <= 0.2, f"{adv}: {r.estimate.failure_rate}"
    elapsed = time.time() - t0
    ok = elapsed < 120
    report(5, ok, elapsed,
           " ".join(f"{k}={v:.4f}" for k, v in rates.items()) + " (all <= 0.2)")
    assert ok, f"runtime {elapsed:.1f}s exceeds 120s"


def test_criterion_6_mwsv_validation():
    from ubhl.cases.registry import validate_case

    t0 = time.time()
    r = validate_case("mwsv", {"universe": 8, "n": 6, "Q": 10, "beta": 0.25,
                               "eps": 40.0}, trials=500, seed=2024,
                      adversary="adaptive")
    rate = r.estimate.failure_rate
    budget_violations = r.extras["update_budget_violations"]
    elapsed = time.time() - t0
    ok = (r.estimate.failures == 0 and rate <= 0.25
          and budget_violations == 0 and elapsed < 180)
    report(6, ok, elapsed,
           f"alpha={r.params['alpha']:.3f}, every answer within alpha,"
           f" rate {rate:.4f} <= 0.25, update budget violations {budget_violations}/500")
    assert r.estimate.failures == 0
    assert rate <= 0.25
    assert budget_violations == 0
    assert elapsed < 180


def test_criterion_7_mw_property_suite():
    import random

    t0 = time.time()
    rng = random.Random(77)
    violations = 0
    for _ in range(1000):
        universe = rng.randint(2, 8)
        counts = [rng.randint(0, 6) for _ in range(universe)]
        if sum(counts) == 0:
            counts[0] = 1
        n = sum(counts)
        d = make_db(counts)
        raw = [Fraction(rng.randint(1, 16), 16) for _ in range(universe)]
        total = sum(raw)
        x = Database(tuple(n * (w / total) for w in raw))
        eta = rng.random() * 0.5
        up = make_query([Fraction(rng.randint(0, 8), 8) for _ in range(universe)])
        pot = potential(x, d)
        x2 = mw_step(x, up, eta, n)
        init_pot = potential(mw_init(eta, universe, n), d)
        if pot < -1e-12:
            violations += 1
        if init_pot > math.log(universe) + 1e-12:
            violations += 1
        if pot - potential(x2, d) < step_decrease_bound(x, up, d, eta, n) - 1e-9:
            violations += 1
    elapsed = time.time() - t0
    ok = violations == 0 and elapsed < 10
    report(7, ok, elapsed, f"0 violations in 1000 instances" if ok else
           f"{violations} violations")
    assert violations == 0
    assert elapsed < 10


def test_criterion_8_embedding_cross_check():
    from test_embed import ONE_LAP, ONE_LAP_SCRIPT, TWO_LAP, TWO_LAP_SCRIPT
    from ubhl.embed.crosscheck import collect_sites, crosscheck
    from ubhl.embed.runtime import run_ghost_trial
    from ubhl.semantics.trial import CompiledProgram

    t0 = time.time()
    # straight-line generated corpus plus the one- and two-sample toys
    pairs = []
    for program, script, _ in generate_corpus()[:6]:
        pairs.append((program, script))
    pairs += [(ONE_LAP, ONE_LAP_SCRIPT), (TWO_LAP, TWO_LAP_SCRIPT)]
    for program, script in pairs:
        res = check(program, script)
        if not res.accepted:
            continue
        rep = crosscheck(program, script, res)
        assert rep.consistent
        assert rep.wp_all_proved == res.fully_proved
    # final ghost equals the root index on every path
    for program, script in ((ONE_LAP, ONE_LAP_SCRIPT), (TWO_LAP, TWO_LAP_SCRIPT)):
        sites, _ = collect_sites(script, program,
                                 program.procs["main"].body, "x_beta")
        beta = index_eval(parse_expr(script.root.index), {})
        core = CompiledProgram(program, sites, {})
        for trial in range(40):
            out = run_ghost_trial(core, "main", 0, sites, {}, seed=8, trial=trial)
            assert float(out.ghost) == pytest.approx(beta)
    elapsed = time.time() - t0
    ok = elapsed < 10
    report(8, ok, elapsed, f"{len(pairs)} programs, pipelines agree,"
                           " ghost equals the root index")
    assert ok, f"runtime {elapsed:.1f}s exceeds 10s"


def test_criterion_9_query_algebra_exact():
    import random

    t0 = time.time()
    rng = random.Random(2024)
    for _ in range(1000):
        x = rng.randint(1, 8)
        q = make_query([Fraction(rng.randint(0, 16), 16) for _ in range(x)],
                       offset=Fraction(rng.randint(-8, 8), 4))
        lin = make_query([Fraction(rng.randint(0, 16), 16) for _ in range(x)])
        d1 = make_db([rng.randint(0, 9) for _ in range(x)])
        d2 = make_db([rng.randint(0, 9) for _ in range(x)])
        assert eval_query(inv_query(q), d1) == -eval_query(q, d1)
        assert eval_query(neg_query(lin), d1) == db_size(d1) - eval_query(lin, d1)
        assert eval_query(error_query(q, d1), d2) == \
            eval_query(q, d1) - eval_query(q, d2)
    elapsed = time.time() - t0
    ok = elapsed < 5
    report(9, ok, elapsed, "three axioms exact on 1000 random instances")
    assert ok, f"runtime {elapsed:.1f}s exceeds 5s"
