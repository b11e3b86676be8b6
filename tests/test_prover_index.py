"""The prover's per-term indexes change no search.

`_apply_eqs` skips a subterm whose key mask shares no bit with the
equations' keys, and the site walks read a per-term site list instead
of walking `subterms`. Both are checked against the walks they replace
on generated terms: quantifiers with range and set domains, stores and
indexes, subterms with no numeric form (NonNumeric) or a zero divisor,
and equation maps built by `_equalities`. A last check runs the rnm
cross-check twice in one process, around an sv check, and wants the same
verdict and node count from every prover call both times.
"""

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
from ubhl.lang.ast import (
    INT, REAL, SETINT, ArrayT, BinOp, BoolLit, FuncCall, Index, NumLit, Quant,
    RangeDom, SetDom, SetLit, Store, Var, map_children, subterms,
)

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
    """`_apply_eqs` as it was before the key masks: a canon_struct lookup
    at every subterm, up to three rounds."""
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


@settings(max_examples=400, deadline=None)
@given(_term_and_equations())
def test_masked_rewrite_equals_the_full_walk(case):
    e, hyps = case
    prover = P.Prover(SORTS)
    eqs = _outcome(prover._equalities, hyps)
    if not isinstance(eqs, dict):
        return  # the prover gives up on such hypotheses before rewriting
    assert _outcome(prover._apply_eqs, e, eqs) == _outcome(_reference_apply_eqs, e, eqs)


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


_WARM_SCRIPT = """
import json
from ubhl.assertions.prover import Prover
from ubhl.cases.registry import case_proof, case_source, check_case
from ubhl.checker.kernel import _implies
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
    _implies.cache_clear()  # the kernel's verdicts, so every call is made again
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
