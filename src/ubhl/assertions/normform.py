"""Canonical forms for terms and assertions.

Numeric terms normalize to rational functions over "atoms" (variables,
array reads, function applications, log/abs terms), represented as
Laurent polynomials with exact rational coefficients. Assertions
normalize to an NNF tree with sorted, flattened connectives and
scale-normalized comparisons. Two assertions with equal canonical keys
are semantically equal; unequal keys decide nothing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Optional

from ..lang.ast import (
    BinOp, BoolLit, Expr, FuncCall, Index, NumLit, Quant, RangeDom, SetDom,
    SetLit, SortDom, Store, UnOp, Var,
)

# Monomial: sorted tuple of (atom_key, nonzero int exponent)
Mono = tuple
Poly = dict
RF = tuple  # (num: Poly, den: Poly)


class NonNumeric(Exception):
    pass


# Sort key. Canonical keys mix str, int, bool and nested tuples, which
# do not order against each other, so keys sort by repr. The prover
# orders by repr too (rewrite direction, elimination order), tests
# containment in it (occurs check), and `_candidates` keys a canon_term
# pair of dicts by repr, which is stricter than rf_key. Equality and
# membership use the keys themselves: they hold no Fraction, so tuple
# equality is repr equality. Cached: repr is hot.
_skey = lru_cache(maxsize=400000)(repr)


# ── polynomial arithmetic ───────────────────────────────────────────


def p_const(c: Fraction) -> Poly:
    return {(): Fraction(c)} if c != 0 else {}


def p_atom(key) -> Poly:
    return {((key, 1),): Fraction(1)}


def p_add(a: Poly, b: Poly) -> Poly:
    out = dict(a)
    for m, c in b.items():
        nc = out.get(m, Fraction(0)) + c
        if nc == 0:
            out.pop(m, None)
        else:
            out[m] = nc
    return out


def p_neg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    exps: dict = {}
    for k, e in list(m1) + list(m2):
        exps[k] = exps.get(k, 0) + e
    items = [(k, e) for k, e in exps.items() if e != 0]
    items.sort(key=_skey)
    return tuple(items)


def p_mul(a: Poly, b: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            nc = out.get(m, Fraction(0)) + c1 * c2
            if nc == 0:
                out.pop(m, None)
            else:
                out[m] = nc
    return out


def p_scale(a: Poly, c: Fraction) -> Poly:
    if c == 0:
        return {}
    return {m: x * c for m, x in a.items()}


def p_is_const(a: Poly) -> Optional[Fraction]:
    if not a:
        return Fraction(0)
    if len(a) == 1 and () in a:
        return a[()]
    return None


def p_is_mono(a: Poly) -> Optional[tuple[Mono, Fraction]]:
    if len(a) == 1:
        (m, c), = a.items()
        return m, c
    return None


def _mono_inv(m: Mono) -> Mono:
    return tuple((k, -e) for k, e in m)


def p_key(a: Poly):
    # hashable key with plain-int coefficient pairs (Fraction.__hash__
    # is costly and these keys get hashed constantly)
    return tuple(sorted(((m, (c.numerator, c.denominator)) for m, c in a.items()),
                        key=_skey))


# ── rational functions ──────────────────────────────────────────────


def rf_const(c) -> RF:
    return (p_const(Fraction(c)), p_const(Fraction(1)))


def rf_atom(key) -> RF:
    return (p_atom(key), p_const(Fraction(1)))


def _rf_norm(num: Poly, den: Poly) -> RF:
    if not den:
        raise ZeroDivisionError("division by a zero expression")
    if not num:
        return ({}, p_const(Fraction(1)))
    dc = p_is_const(den)
    if dc is not None:
        return (p_scale(num, 1 / dc), p_const(Fraction(1)))
    dm = p_is_mono(den)
    if dm is not None:
        m, c = dm
        inv = {_mono_inv(m): 1 / c}
        return (p_mul(num, inv), p_const(Fraction(1)))
    # multi-term denominator: scale so den's least monomial coeff is 1
    lead = min(den.items(), key=_skey)
    c = lead[1]
    return (p_scale(num, 1 / c), p_scale(den, 1 / c))


def rf_add(a: RF, b: RF) -> RF:
    n1, d1 = a
    n2, d2 = b
    return _rf_norm(p_add(p_mul(n1, d2), p_mul(n2, d1)), p_mul(d1, d2))


def rf_neg(a: RF) -> RF:
    return (p_neg(a[0]), a[1])


def rf_sub(a: RF, b: RF) -> RF:
    return rf_add(a, rf_neg(b))


def rf_mul(a: RF, b: RF) -> RF:
    return _rf_norm(p_mul(a[0], b[0]), p_mul(a[1], b[1]))


def rf_div(a: RF, b: RF) -> RF:
    if not b[0]:
        raise ZeroDivisionError("division by a zero expression")
    return _rf_norm(p_mul(a[0], b[1]), p_mul(a[1], b[0]))


def rf_equal(a: RF, b: RF) -> bool:
    # cross-multiplication handles unreduced common factors
    return p_key(p_mul(a[0], b[1])) == p_key(p_mul(b[0], a[1]))


def rf_key(a: RF):
    return (p_key(a[0]), p_key(a[1]))


def rf_from_key(k) -> RF:
    """The rational function whose rf_key is k; a log or abs atom's
    key holds its argument this way."""
    return tuple({m: Fraction(n, d) for m, (n, d) in p} for p in k)


def rf_const_value(a: RF) -> Optional[Fraction]:
    nc = p_is_const(a[0])
    dc = p_is_const(a[1])
    if nc is None or dc is None or dc == 0:
        return None
    return nc / dc


def ground_value(e: Expr) -> Optional[Fraction]:
    """The rational value of a term; None when it is not a defined
    numeric constant."""
    try:
        return rf_const_value(canon_term(e))
    except (NonNumeric, ZeroDivisionError):
        return None


def rf_linear(a: RF) -> Optional[dict]:
    """Monomial->coeff map when the denominator is constant; the ()
    monomial carries the constant term."""
    dc = p_is_const(a[1])
    if dc is None:
        return None
    return {m: c / dc for m, c in a[0].items()}


# ── term canonicalization ───────────────────────────────────────────

_TERM_CACHE: dict = {}
_STRUCT_CACHE: dict = {}
_ASSERT_CACHE: dict = {}


def _cache_key(e: Expr, bound: dict):
    # terms compare by structure, so equal rebuilt terms share entries
    if not bound:
        return e
    return (e, tuple(sorted(bound.items(), key=repr)))


def _memo(cache: dict, key, raw, *args):
    """raw(*args), remembered under key. NonNumeric is remembered too,
    as a copy: the raised one's traceback would keep every frame it
    passed through alive, with their locals."""
    hit = cache.get(key)
    if hit is not None:
        if isinstance(hit, NonNumeric):
            raise NonNumeric(*hit.args)
        return hit
    try:
        out = raw(*args)
    except NonNumeric as exc:
        if len(cache) < 400000:
            cache[key] = NonNumeric(*exc.args)
        raise
    if len(cache) < 400000:
        cache[key] = out
    return out


def canon_term(e: Expr, bound: Optional[dict] = None) -> RF:
    """Numeric term -> rational function; raises NonNumeric otherwise."""
    bound = bound or {}
    return _memo(_TERM_CACHE, _cache_key(e, bound), _canon_term_raw, e, bound)


def _canon_term_raw(e: Expr, bound: dict) -> RF:
    if isinstance(e, NumLit):
        return rf_const(e.value)
    if isinstance(e, Var):
        if e.name in bound:
            return rf_atom(bound[e.name])
        return rf_atom(("var", e.name))
    if isinstance(e, UnOp):
        if e.op == "-":
            return rf_neg(canon_term(e.arg, bound))
        raise NonNumeric(e)
    if isinstance(e, BinOp):
        if e.op in ("+", "-", "*", "/"):
            left = canon_term(e.left, bound)
            right = canon_term(e.right, bound)
            if e.op == "+":
                return rf_add(left, right)
            if e.op == "-":
                return rf_sub(left, right)
            if e.op == "*":
                return rf_mul(left, right)
            return rf_div(left, right)
        raise NonNumeric(e)
    if isinstance(e, Index):
        arr = _reduce_select(e, bound)
        if arr is not None:
            return canon_term(arr, bound)
        return rf_atom(("idx", canon_struct(e.arr, bound), canon_struct(e.idx, bound)))
    if isinstance(e, FuncCall):
        if e.name == "log":
            return rf_atom(("log", rf_key(canon_term(e.args[0], bound))))
        if e.name == "abs":
            arg = canon_term(e.args[0], bound)
            # abs is even: normalize the argument's sign by its least
            # monomial coefficient
            if arg[0]:
                lead = min(arg[0].items(), key=_skey)
                if lead[1] < 0:
                    arg = rf_neg(arg)
            return rf_atom(("abs", rf_key(arg)))
        return rf_atom(("func", e.name, tuple(canon_struct(a, bound) for a in e.args)))
    raise NonNumeric(e)


def _reduce_select(e: Index, bound: Optional[dict]):
    """select(store(A,i,v), j): i == j (canonically) -> v; ground and
    distinct -> select(A, j). Context-dependent cases stay put."""
    if not isinstance(e.arr, Store):
        return None
    st = e.arr
    try:
        ki = canon_term(st.idx, bound)
        kj = canon_term(e.idx, bound)
    except NonNumeric:
        return None
    if rf_equal(ki, kj):
        return st.value
    ci, cj = rf_const_value(ki), rf_const_value(kj)
    if ci is not None and cj is not None and ci != cj:
        return Index(st.arr, e.idx)
    return None


def canon_struct(e: Expr, bound: Optional[dict] = None):
    """Structural key for a term of any sort."""
    bound = bound or {}
    return _memo(_STRUCT_CACHE, _cache_key(e, bound), _canon_struct_raw, e, bound)


def _canon_struct_raw(e: Expr, bound: dict):
    try:
        return ("rf", rf_key(canon_term(e, bound)))
    except NonNumeric:
        pass
    if isinstance(e, Var):
        if e.name in bound:
            return bound[e.name]
        return ("var", e.name)
    if isinstance(e, BoolLit):
        return ("blit", e.value)
    if isinstance(e, SetLit):
        return ("setlit", tuple(sorted((canon_struct(x, bound) for x in e.elems), key=_skey)))
    if isinstance(e, Index):
        red = _reduce_select(e, bound)
        if red is not None:
            return canon_struct(red, bound)
        return ("idx", canon_struct(e.arr, bound), canon_struct(e.idx, bound))
    if isinstance(e, Store):
        return ("store", canon_struct(e.arr, bound), canon_struct(e.idx, bound),
                canon_struct(e.value, bound))
    if isinstance(e, FuncCall):
        return ("func", e.name, tuple(canon_struct(a, bound) for a in e.args))
    if isinstance(e, (BinOp, UnOp, Quant)):
        return ("assert", canon_assertion(e, bound))
    raise NonNumeric(e)


# ── assertion canonicalization ──────────────────────────────────────

TRUE_KEY = ("true",)
FALSE_KEY = ("false",)

_CMP_FLIP = {">": "<", ">=": "<=", "<": ">", "<=": ">="}


def _canon_cmp(op: str, left: Expr, right: Expr, bound: dict):
    """Comparisons normalize to (op', lhs-rhs) with op' in {lt, le, eq,
    ne}, then the difference is scaled by a positive rational so any
    positive multiple has the same key."""
    if op in (">", ">="):
        left, right = right, left
        op = _CMP_FLIP[op]
    diff = rf_sub(canon_term(left, bound), canon_term(right, bound))
    cv = rf_const_value(diff)
    tag = {"<": "lt", "<=": "le", "==": "eq", "!=": "ne"}[op]
    if cv is not None:
        holds = {"lt": cv < 0, "le": cv <= 0, "eq": cv == 0, "ne": cv != 0}[tag]
        return TRUE_KEY if holds else FALSE_KEY
    num, den = diff
    lead = min(num.items(), key=_skey)[1]
    scale = 1 / abs(lead)
    num = p_scale(num, scale)
    den_scaled = den
    if tag in ("eq", "ne") and min(num.items(), key=_skey)[1] < 0:
        num = p_neg(num)
    return ("cmp", tag, p_key(num), p_key(den_scaled))


def _negate_key(k):
    if k == TRUE_KEY:
        return FALSE_KEY
    if k == FALSE_KEY:
        return TRUE_KEY
    if k[0] == "and":
        return ("or", tuple(sorted((_negate_key(x) for x in k[1]), key=_skey)))
    if k[0] == "or":
        return ("and", tuple(sorted((_negate_key(x) for x in k[1]), key=_skey)))
    if k[0] == "not":
        return k[1]
    if k[0] == "cmp":
        tag, num, den = k[1], k[2], k[3]
        if tag == "eq":
            return ("cmp", "ne", num, den)
        if tag == "ne":
            return ("cmp", "eq", num, den)
        # not(f < 0) == (-f <= 0); not(f <= 0) == (-f < 0)
        neg_num = tuple(sorted(((m, (-c[0], c[1])) for m, c in num), key=_skey))
        return ("cmp", "le" if tag == "lt" else "lt", neg_num, den)
    if k[0] == "forall":
        return ("exists", k[1], _negate_key(k[2]))
    if k[0] == "exists":
        return ("forall", k[1], _negate_key(k[2]))
    return ("not", k)


def _mk_and(keys):
    flat = []
    for k in keys:
        if k == TRUE_KEY:
            continue
        if k == FALSE_KEY:
            return FALSE_KEY
        if k[0] == "and":
            flat.extend(k[1])
        else:
            flat.append(k)
    uniq = sorted(set(flat), key=_skey)
    if not uniq:
        return TRUE_KEY
    if len(uniq) == 1:
        return uniq[0]
    return ("and", tuple(uniq))


def _mk_or(keys):
    flat = []
    for k in keys:
        if k == FALSE_KEY:
            continue
        if k == TRUE_KEY:
            return TRUE_KEY
        if k[0] == "or":
            flat.extend(k[1])
        else:
            flat.append(k)
    uniq = sorted(set(flat), key=_skey)
    if not uniq:
        return FALSE_KEY
    if len(uniq) == 1:
        return uniq[0]
    return ("or", tuple(uniq))


def canon_assertion(e: Expr, bound: Optional[dict] = None, depth: int = 0):
    """Canonical key of a boolean expression."""
    bound = bound or {}
    return _memo(_ASSERT_CACHE, (_cache_key(e, bound), depth),
                 _canon_assertion_raw, e, bound, depth)


def _canon_assertion_raw(e: Expr, bound: dict, depth: int):
    if isinstance(e, BoolLit):
        return TRUE_KEY if e.value else FALSE_KEY
    if isinstance(e, UnOp) and e.op == "!":
        return _negate_key(canon_assertion(e.arg, bound, depth))
    if isinstance(e, BinOp):
        if e.op == "&&":
            return _mk_and([canon_assertion(e.left, bound, depth),
                            canon_assertion(e.right, bound, depth)])
        if e.op == "||":
            return _mk_or([canon_assertion(e.left, bound, depth),
                           canon_assertion(e.right, bound, depth)])
        if e.op == "==>":
            return _mk_or([_negate_key(canon_assertion(e.left, bound, depth)),
                           canon_assertion(e.right, bound, depth)])
        if e.op == "<==>":
            a = canon_assertion(e.left, bound, depth)
            b = canon_assertion(e.right, bound, depth)
            return _mk_and([_mk_or([_negate_key(a), b]), _mk_or([_negate_key(b), a])])
        if e.op in ("<", "<=", ">", ">="):
            return _canon_cmp(e.op, e.left, e.right, bound)
        if e.op in ("==", "!="):
            # boolean equality: fold to iff; numeric: comparison key;
            # other sorts: symmetric structural equality
            try:
                return _canon_cmp(e.op, e.left, e.right, bound)
            except NonNumeric:
                pass
            lb = _try_bool(e.left, bound, depth)
            rb = _try_bool(e.right, bound, depth)
            if lb is not None and rb is not None:
                iff = _mk_and([_mk_or([_negate_key(lb), rb]),
                               _mk_or([_negate_key(rb), lb])])
                return iff if e.op == "==" else _negate_key(iff)
            k1 = canon_struct(e.left, bound)
            k2 = canon_struct(e.right, bound)
            if k1 == k2:
                return TRUE_KEY if e.op == "==" else FALSE_KEY
            base = ("eqv",) + tuple(sorted((k1, k2), key=_skey))
            return base if e.op == "==" else ("not", base)
        if e.op == "in":
            return _canon_member(e.left, e.right, bound, depth)
        raise NonNumeric(e)
    if isinstance(e, FuncCall) and e.name == "isempty":
        return ("empty", canon_struct(e.args[0], bound))
    if isinstance(e, Quant):
        var_key = ("bvar", depth)
        inner = dict(bound)
        inner[e.var] = var_key
        if isinstance(e.dom, SetDom):
            dom = ("set", canon_struct(e.dom.set_expr, bound))
        elif isinstance(e.dom, RangeDom):
            dom = ("range", rf_key(canon_term(e.dom.lo, bound)),
                   rf_key(canon_term(e.dom.hi, bound)))
        else:
            dom = ("sort", str(e.dom.sort))
        body = canon_assertion(e.body, inner, depth + 1)
        if isinstance(e.dom, SortDom) and not _mentions_bvar(body, depth):
            return body  # sorts are nonempty, unused binders drop
        return (e.kind, dom, body)
    # bool-valued atoms: variables, array reads, other func calls
    b = _try_bool_atom(e, bound)
    if b is not None:
        return b
    raise NonNumeric(e)


def _try_bool(e: Expr, bound: dict, depth: int):
    try:
        return canon_assertion(e, bound, depth)
    except NonNumeric:
        return None


def _try_bool_atom(e: Expr, bound: dict):
    if isinstance(e, (Var, Index, FuncCall)):
        return ("batom", canon_struct(e, bound))
    return None


def _canon_member(elem: Expr, set_e: Expr, bound: dict, depth: int):
    if isinstance(set_e, FuncCall) and set_e.name == "remove":
        inner = _canon_member(elem, set_e.args[0], bound, depth)
        neq = canon_assertion(BinOp("!=", elem, set_e.args[1]), bound, depth)
        return _mk_and([inner, neq])
    if isinstance(set_e, FuncCall) and set_e.name == "setdiff":
        inner = _canon_member(elem, set_e.args[0], bound, depth)
        outer = _canon_member(elem, set_e.args[1], bound, depth)
        return _mk_and([inner, _negate_key(outer)])
    if isinstance(set_e, SetLit):
        return _mk_or([canon_assertion(BinOp("==", elem, x), bound, depth)
                       for x in set_e.elems])
    return ("member", rf_key(canon_term(elem, bound)), canon_struct(set_e, bound))


def _mentions_bvar(key, depth: int) -> bool:
    target = ("bvar", depth)
    stack = [key]
    while stack:
        k = stack.pop()
        if k == target:
            return True
        if isinstance(k, tuple):
            stack.extend(k)
    return False


def assertions_equal(a: Expr, b: Expr) -> bool:
    """Equal up to the normal form. An assertion with no numeric form
    equals none, itself included; one that divides by a literal zero
    equals itself."""
    try:
        return canon_assertion(a) == canon_assertion(b)
    except NonNumeric:
        return False
    except ZeroDivisionError:
        return a == b


def terms_equal(a: Expr, b: Expr) -> bool:
    try:
        return rf_equal(canon_term(a), canon_term(b))
    except (NonNumeric, ZeroDivisionError):
        try:
            return canon_struct(a) == canon_struct(b)
        except NonNumeric:
            return False
