"""The prover's per-term indexes and rewrite memos change no search.

The site walks read a per-term site list instead of walking
`subterms`, and `_equalities` keeps one equation map per ordered tuple
of equalities, under which `_apply_eqs` keeps each term's rewrite. Both
are checked against the plain walks on generated terms: quantifiers
with range and set domains, stores and indexes, subterms with no
numeric form (NonNumeric) or a zero divisor, and equation maps built by
`_equalities`. The memo must answer as the walk does, and give each
equation map its own rewrite. Two last checks run the rnm
cross-check: its calls made in turn on one prover answer as on fresh
ones, and the cross-check run twice in one process, around an sv check,
gets the same verdict and node count from every prover call both times.
"""

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

from hypothesis import given, settings, strategies as st

import ubhl
from ubhl.assertions import prover as P
from ubhl.assertions.normform import NonNumeric, canon_struct
from ubhl.cases.registry import case_proof, case_source
from ubhl.embed.crosscheck import crosscheck
from ubhl.lang.ast import (
    INT, REAL, SETINT, ArrayT, BinOp, BoolLit, FuncCall, Index, NumLit, Quant,
    RangeDom, SetDom, SetLit, Store, Var, map_children, subterms,
)
from ubhl.lang.parser import parse_program
from ubhl.lang.typecheck import typecheck

SORTS = {"i": INT, "j": INT, "k": INT, "x": REAL, "S": SETINT, "R": SETINT,
         "arr": ArrayT(INT)}

_LEAVES = st.sampled_from([
    Var("i"), Var("j"), Var("k"), Var("x"), Var("S"), Var("R"), Var("arr"),
    NumLit(Fraction(0)), NumLit(Fraction(1)), NumLit(Fraction(2)), BoolLit(True),
    SetLit((Var("i"), NumLit(Fraction(1)))),
])


def _compound(kids):
    return st.one_of(
        st.builds(BinOp, st.sampled_from(["+", "-", "*", "/", "==", "<=", "&&", "in"]),
                  kids, kids),
        st.builds(Index, kids, kids),
        st.builds(Store, kids, kids, kids),
        st.builds(lambda f, a: FuncCall(f, (a,)),
                  st.sampled_from(["size", "pick", "abs", "log"]), kids),
        st.builds(lambda s, a: FuncCall("remove", (s, a)), kids, kids),
        st.builds(Quant, st.sampled_from(["forall", "exists"]), st.sampled_from(["i", "k"]),
                  st.one_of(st.builds(RangeDom, kids, kids), st.builds(SetDom, kids)),
                  kids),
    )


TERMS = st.recursive(_LEAVES, _compound, max_leaves=14)


@st.composite
def _term_and_equations(draw):
    """A term, and equalities whose sides are mostly its own subterms,
    so the equation keys occur in it (often only in one place)."""
    e = draw(TERMS)
    subs = list(subterms(e))
    eqs = []
    for _ in range(draw(st.integers(1, 4))):
        left = draw(st.sampled_from(subs)) if draw(st.booleans()) else draw(TERMS)
        right = draw(st.one_of(_LEAVES, TERMS))
        eqs.append(BinOp("==", left, right) if draw(st.booleans())
                   else BinOp("==", right, left))
    return e, eqs


def _reference_apply_eqs(e, eqs):
    """`_apply_eqs` without its memo: a canon_struct lookup at every
    subterm, up to three rounds."""
    for _ in range(3):
        changed = False

        def walk(x):
            nonlocal changed
            try:
                k = canon_struct(x)
                if k in eqs:
                    changed = True
                    return eqs[k][1]
            except (NonNumeric, ZeroDivisionError):
                pass
            return map_children(x, walk)

        e = walk(e)
        if not changed:
            break
    return e


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (NonNumeric, ZeroDivisionError) as exc:
        return type(exc)


def _is_site(x) -> bool:
    return isinstance(x, (Var, Index)) or (isinstance(x, FuncCall)
                                           and x.name in ("pick", "size"))


@settings(max_examples=200, deadline=None)
@given(TERMS, st.lists(TERMS, max_size=3))
def test_site_readers_equal_a_filter_over_subterms(goal, hyps):
    for e in (goal, *hyps):
        assert P._sites(e) == tuple(x for x in subterms(e) if _is_site(x))
    prover = P.Prover(SORTS)

    def readers():
        view = P._Hyps(prover, hyps)
        return (_outcome(prover._candidates, hyps, goal),
                _outcome(prover._size_remove_facts, hyps, goal),
                _outcome(prover._find_store_select, goal, view))

    indexed = readers()
    with mock.patch.object(P, "_sites", lambda e: tuple(subterms(e))):
        assert readers() == indexed


@settings(max_examples=300, deadline=None)
@given(_term_and_equations())
def test_memoized_rewrite_equals_the_plain_walk(case):
    e, hyps = case
    prover = P.Prover(SORTS)
    eqs = _outcome(prover._equalities, hyps)
    if not isinstance(eqs, dict):
        return
    assert prover._equalities(list(hyps)) is eqs  # one map per equality tuple
    want = _outcome(_reference_apply_eqs, e, eqs)
    assert _outcome(prover._apply_eqs, e, eqs) == want
    # answered from the memo, for the same term and for an equal copy
    assert _outcome(prover._apply_eqs, e, eqs) == want
    assert _outcome(prover._apply_eqs, copy.deepcopy(e), eqs) == want


@settings(max_examples=300, deadline=None)
@given(_term_and_equations(), st.lists(TERMS, min_size=1, max_size=3))
def test_each_equality_set_keeps_its_own_rewrites(case, others):
    e, hyps = case
    second = [BinOp("==", x, NumLit(Fraction(7))) for x in others] + hyps[:1]

    def rewrite(prover, h):
        eqs = _outcome(prover._equalities, h)
        return _outcome(prover._apply_eqs, e, eqs) if isinstance(eqs, dict) else eqs

    prover = P.Prover(SORTS)
    got = [rewrite(prover, h) for h in (hyps, second, hyps)]
    assert got == [rewrite(P.Prover(SORTS), h) for h in (hyps, second, hyps)]


def test_one_term_under_two_equality_sets():
    prover = P.Prover(SORTS)
    e = BinOp("<=", BinOp("+", Var("j"), NumLit(Fraction(1))), Var("k"))
    three, four = ([BinOp("==", Var("j"), NumLit(Fraction(n)))] for n in (3, 4))
    for _ in range(2):
        assert prover._apply_eqs(e, prover._equalities(three)) == BinOp(
            "<=", BinOp("+", NumLit(Fraction(3)), NumLit(Fraction(1))), Var("k"))
        assert prover._apply_eqs(e, prover._equalities(four)) == BinOp(
            "<=", BinOp("+", NumLit(Fraction(4)), NumLit(Fraction(1))), Var("k"))


def test_a_prover_that_has_run_answers_like_a_fresh_one():
    """Every prove_implication call of the rnm cross-check, made in turn
    on one prover, gets the verdict and node count a fresh prover gets.
    The fresh one starts at the same Skolem counter, so both name their
    fresh constants alike."""
    calls = []
    prove = P.Prover.prove_implication

    def recorded(self, antecedent, consequent):
        calls.append((dict(self.sorts), self.budget, antecedent, consequent))
        return prove(self, antecedent, consequent)

    program = parse_program(case_source("rnm"))
    typecheck(program)
    with mock.patch.object(P.Prover, "prove_implication", recorded):
        crosscheck(program, case_proof("rnm"))
    assert len(calls) > 3
    shared = P.Prover(calls[0][0])
    for sorts, budget, antecedent, consequent in calls:
        shared.sorts.update(sorts)
        shared.budget = budget
        fresh = P.Prover(shared.sorts, budget)
        fresh._sk = shared._sk
        assert ((shared.prove_implication(antecedent, consequent), shared.nodes)
                == (fresh.prove_implication(antecedent, consequent), fresh.nodes))


_WARM_SCRIPT = """
import json
from ubhl.assertions.prover import Prover
from ubhl.cases.registry import case_proof, case_source, check_case
from ubhl.embed.crosscheck import crosscheck
from ubhl.lang.parser import parse_program
from ubhl.lang.typecheck import typecheck

calls = []
prove = Prover.prove_implication


def recorded(self, antecedent, consequent):
    verdict = prove(self, antecedent, consequent)
    calls.append((verdict, self.nodes))
    return verdict


def rnm_crosscheck():
    calls.clear()
    program = parse_program(case_source("rnm"))
    typecheck(program)
    crosscheck(program, case_proof("rnm"))
    return list(calls)


Prover.prove_implication = recorded
cold = rnm_crosscheck()
check_case("sv")
print(json.dumps([cold, rnm_crosscheck()]))
"""


def test_warm_memos_keep_every_prover_call():
    src = str(Path(ubhl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _WARM_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    cold, warm = json.loads(done.stdout)
    assert cold and warm == cold
