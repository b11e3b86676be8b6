"""The normal-form caches look terms up by structure."""

import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

import ubhl
from ubhl.assertions import normform
from ubhl.assertions.normform import (
    NonNumeric, _negate_key, canon_assertion, canon_struct, canon_term, rf_from_key,
    rf_key,
)
from ubhl.assertions.prover import Prover
from ubhl.cases.registry import case_proof, check_case
from ubhl.lang.ast import (
    BinOp, FuncCall, Index, NumLit, Quant, RangeDom, SetDom, SetLit, Store,
    UnOp, Var, map_children,
)
from ubhl.lang.parser import parse_expr

from corpus import generate_corpus
from test_fuzz import _rand_assert, _rand_term

SRC = str(Path(ubhl.__file__).resolve().parent.parent)

TEXT = "forall j in 0 .. n_cache - 1 . a_cache[j] + 2 * k_cache <= log(7 / m_cache)"


def _sizes():
    return (len(normform._TERM_CACHE), len(normform._STRUCT_CACHE),
            len(normform._ASSERT_CACHE))


def test_reparsed_assertion_hits_the_cache():
    term = parse_expr(TEXT)
    first = canon_assertion(term)
    before = _sizes()
    # parse_expr shares parses of one string; respacing gives a new tree
    again = parse_expr(TEXT.replace(" ", "  "))
    assert again == term and again is not term
    assert canon_assertion(again) is first
    assert _sizes() == before


def test_kept_hash_is_not_pickled():
    term = parse_expr(TEXT)
    here = hash(term)
    data = pickle.dumps(term)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    code = (
        "import pickle, sys\n"
        "from ubhl.lang.parser import parse_expr\n"
        "term = pickle.loads(sys.stdin.buffer.read())\n"
        f"fresh = parse_expr({TEXT!r})\n"
        "assert term == fresh\n"
        "assert hash(term) == hash(fresh), (hash(term), hash(fresh))\n"
        "print(hash(fresh))\n"
    )
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], input=data, env=env,
                         capture_output=True, timeout=60)
    assert out.returncode == 0, out.stderr.decode()
    # the child's string hashes differ, so a pickled hash would be stale
    assert int(out.stdout) != here


# ── canonical keys compare like their repr ──────────────────────────
#
# The prover and kernel key sets and caches by canonical keys, which
# is sound only while key equality draws the same line as repr
# equality: a key holding, say, 1 where another holds True or
# Fraction(1) would make distinct reprs compare equal.


def _subterms(e, out):
    """Append e and every subterm of it to out."""
    def visit(x):
        out.append(x)
        return map_children(x, visit)
    visit(e)
    return out


def _keys(exprs):
    """canon_assertion, its negation, and canon_struct of every
    expression for which they are defined."""
    keys = []
    for e in exprs:
        for canon in (canon_assertion, canon_struct):
            try:
                k = canon(e)
            except (NonNumeric, ZeroDivisionError):
                continue
            keys.append(k)
            if canon is canon_assertion:
                keys.append(_negate_key(k))
    return keys


def _assert_equalities_agree(keys):
    # equal partitions: each repr class is one key class and back
    by_key, by_repr = {}, {}
    for k in keys:
        by_key.setdefault(k, set()).add(repr(k))
        by_repr.setdefault(repr(k), []).append(k)
    assert all(len(reprs) == 1 for reprs in by_key.values())
    assert all(all(k == ks[0] for k in ks) for ks in by_repr.values())


def _proof_texts(scripts):
    texts = set()
    stack = [script.root for script in scripts]
    while stack:
        n = stack.pop()
        texts.update((n.pre, n.post, n.index))
        texts.update(v for k, v in n.annotations.items()
                     if k in ("site_post", "site_index", "callee_pre", "callee_post",
                              "frame", "invariant", "variant", "bound", "iter_index"))
        stack.extend(n.children)
    return sorted(texts)


def _corpus_texts():
    return _proof_texts(script for _, script, _ in generate_corpus())


def test_log_and_abs_keys_rebuild_their_argument():
    # the prover and the index order read a log or abs argument back
    # from the atom's key alone
    atoms = set()
    for text in _proof_texts(case_proof(name) for name in ("rnm", "sv", "mwsv")):
        for e in _subterms(parse_expr(text), []):
            if isinstance(e, FuncCall) and e.name in ("log", "abs"):
                (mono, _), = canon_term(e)[0].items()
                atoms.add(mono[0][0])
    assert {k[0] for k in atoms} == {"log", "abs"}
    assert len(atoms) > 10
    for k in atoms:
        assert rf_key(rf_from_key(k[1])) == k[1]


def test_corpus_keys_compare_like_their_repr():
    exprs = []
    for text in _corpus_texts():
        _subterms(parse_expr(text), exprs)
    keys = _keys(exprs)
    assert len(keys) > 500
    # not vacuous: distinct expressions share keys
    distinct = set(exprs)
    assert len(set(_keys(distinct))) < len(_keys(distinct))
    _assert_equalities_agree(keys)


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_fuzz_keys_compare_like_their_repr(rng):
    exprs = []
    for _ in range(6):
        _subterms(_rand_assert(rng), exprs)
        _subterms(_rand_term(rng), exprs)
    _assert_equalities_agree(_keys(exprs))


def test_unchanged_walks_return_the_same_term():
    i, j, v, a = Var("i"), Var("j"), Var("v"), Var("a")
    body = BinOp("&&", UnOp("!", BinOp("==", Index(Store(a, i, v), j), v)),
                 BinOp("in", Var("s"), SetLit((i, NumLit(Fraction(2))))))
    terms = [Quant("forall", "s", SetDom(FuncCall("remove", (Var("R"), i))), body),
             Quant("exists", "t", RangeDom(i, j), body)]
    for x in _subterms(terms[0], []) + terms[1:]:
        assert map_children(x, lambda y: y) is x
    eqs = Prover()._equalities([parse_expr("y == 3")])
    assert eqs  # an equality that applies nowhere in the terms
    for e in terms + [parse_expr(TEXT)]:
        assert Prover()._apply_eqs(e, eqs) is e
    # a rewrite that fires still rebuilds
    rewritten = Prover()._apply_eqs(parse_expr("y + 1 <= k"), eqs)
    assert rewritten == parse_expr("3 + 1 <= k")


def test_cached_non_numeric_keeps_no_frames():
    """A remembered NonNumeric carries no traceback, so the cache does
    not keep alive the frames, and their locals, it was raised through."""
    check_case("rnm")
    cached = [v for cache in (normform._TERM_CACHE, normform._STRUCT_CACHE,
                              normform._ASSERT_CACHE)
              for v in cache.values() if isinstance(v, NonNumeric)]
    assert cached
    assert all(exc.__traceback__ is None for exc in cached)
