"""Built-in obligation prover.

A small, sound-by-construction tableau: conjunction and quantifier
introduction, disjunction case analysis, congruence rewriting from
equality hypotheses, select-of-store reduction, set-membership
expansion, and Fourier-Motzkin elimination (with abs-splits, integer
tightening and certified interval bounds for ground logs) over Laurent
monomials. Anything it cannot close is Unknown, never refuted.

A disjunction is proved by proving one disjunct with the negations of
the others as hypotheses. A cheap pass (no quantifier instantiation, no
case splits) tries the disjuncts in order; the full pass tries them
from the last to the first. `nnf` writes `A ==> C` as `!A || C`, so the
full pass first assumes `A` and proves the consequent `C`; trying to
refute `A` from `!C` first spends most of the nodes of the largest
shipped obligations (732 against 206 for rnm's invariant preservation
under WP). Right-implication is invertible, so this order loses no
proof, and every disjunct is still tried.

Its caches, each keyed by structure, so none can change a verdict:
- `nnf`, `_linearize`: a term's negation normal form, a comparison's
  Fourier-Motzkin rows;
- `_sites`: per term, the subterms the site walks read (`_candidates`,
  `_find_store_select`, `_size_remove_facts`);
- `Prover._eq_rules`: per equality hypothesis, its rewrite rule (it
  reads the prover's sorts); for one `prove_implication` call,
  `Prover._eq_sets`: per ordered tuple of equality hypotheses, its
  equation map (`_EqSet`), which keeps each term's rewrite under it, and
  `Prover._fm_cache`: per node view's order-free constraint key and
  extra rows, the FM verdict. `_saturate` keys each hypothesis once;
  `_fm_core` eliminates over integer rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

from ..lang.ast import (
    ArrayT, BinOp, BoolLit, BoolT, DbT, Expr, FuncCall, Index, IntT, NumLit,
    Quant, QueryT, RangeDom, SetDom, SetIntT, SetLit, SortDom, Store, Type,
    UnOp, Var, free_vars, map_children, subst_expr, subterms,
)
from ..lang.typecheck import UbhlTypeError, expr_type, result_sort
from .normform import (
    NonNumeric, _negate_key, canon_assertion, canon_struct, canon_term,
    p_const, p_is_const, p_mul, rf_const_value, rf_equal, rf_from_key,
    rf_linear, rf_sub,
)

_CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")


def neg(e: Expr) -> Expr:
    if isinstance(e, BoolLit):
        return BoolLit(not e.value)
    if isinstance(e, UnOp) and e.op == "!":
        return e.arg
    if isinstance(e, BinOp):
        if e.op == "&&":
            return BinOp("||", neg(e.left), neg(e.right))
        if e.op == "||":
            return BinOp("&&", neg(e.left), neg(e.right))
        if e.op == "==>":
            return BinOp("&&", e.left, neg(e.right))
        flip = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}
        if e.op in flip:
            return BinOp(flip[e.op], e.left, e.right)
    if isinstance(e, Quant):
        kind = "exists" if e.kind == "forall" else "forall"
        return Quant(kind, e.var, e.dom, neg(e.body))
    return UnOp("!", e)


@lru_cache(maxsize=400000)
def nnf(e: Expr) -> Expr:
    """Negation normal form over &&, ||; expands ==> and <==> and
    set-membership structure. Memoized by structure: saturation
    re-normalizes the same hypotheses constantly, often rebuilt."""
    if isinstance(e, UnOp) and e.op == "!":
        return _nnf_neg(e.arg)
    if isinstance(e, BinOp):
        if e.op == "&&":
            return BinOp("&&", nnf(e.left), nnf(e.right))
        if e.op == "||":
            return BinOp("||", nnf(e.left), nnf(e.right))
        if e.op == "==>":
            return BinOp("||", _nnf_neg(e.left), nnf(e.right))
        if e.op == "<==>":
            return BinOp("&&",
                         BinOp("||", _nnf_neg(e.left), nnf(e.right)),
                         BinOp("||", _nnf_neg(e.right), nnf(e.left)))
        if e.op == "in":
            return _expand_member(e.left, e.right)
        if e.op in ("==", "!=") and isinstance(e.right, BoolLit):
            return nnf(e.left) if e.right.value == (e.op == "==") else _nnf_neg(e.left)
        if e.op in ("==", "!=") and isinstance(e.left, BoolLit):
            return nnf(e.right) if e.left.value == (e.op == "==") else _nnf_neg(e.right)
        return e
    if isinstance(e, Quant):
        return Quant(e.kind, e.var, e.dom, nnf(e.body))
    return e


def _nnf_neg(e: Expr) -> Expr:
    n = neg(e)
    if isinstance(n, UnOp) and n.op == "!":
        inner = nnf(n.arg)
        if isinstance(inner, (BinOp, Quant)) and not _is_atom(inner):
            return nnf(neg(inner))
        return UnOp("!", inner)
    return nnf(n)


def _is_atom(e: Expr) -> bool:
    if isinstance(e, BinOp):
        return e.op in _CMP_OPS or e.op == "in"
    return not isinstance(e, Quant)


def _expand_member(x: Expr, s: Expr) -> Expr:
    if isinstance(s, FuncCall) and s.name == "remove":
        return BinOp("&&", _expand_member(x, s.args[0]), BinOp("!=", x, s.args[1]))
    if isinstance(s, FuncCall) and s.name == "setdiff":
        return BinOp("&&", _expand_member(x, s.args[0]),
                     _nnf_neg(_expand_member(x, s.args[1])))
    if isinstance(s, SetLit):
        if not s.elems:
            return BoolLit(False)
        out: Expr = BinOp("==", x, s.elems[0])
        for el in s.elems[1:]:
            out = BinOp("||", out, BinOp("==", x, el))
        return out
    return BinOp("in", x, s)


def conjuncts(e: Expr) -> list[Expr]:
    if isinstance(e, BinOp) and e.op == "&&":
        return conjuncts(e.left) + conjuncts(e.right)
    return [e]


def disjuncts(e: Expr) -> list[Expr]:
    if isinstance(e, BinOp) and e.op == "||":
        return disjuncts(e.left) + disjuncts(e.right)
    return [e]


# ── linear constraints for Fourier-Motzkin ──────────────────────────


@dataclass(frozen=True)
class LinCon:
    """sum(coeffs[m] * m) + const  (<|<=)  0."""
    coeffs: tuple
    const: Fraction
    strict: bool


def _linear_form(rf) -> Optional[tuple[tuple, Fraction]]:
    """A linear rational function as its (monomial, coefficient) items
    in a fixed order, then its constant; None when it is not linear."""
    lin = rf_linear(rf)
    if lin is None:
        return None
    const = lin.pop((), Fraction(0))
    return tuple(sorted(lin.items(), key=repr)), const


def _linear_diff(e: BinOp) -> Optional[tuple[tuple, Fraction]]:
    """_linear_form of left - right. A difference num/den whose den is
    not constant is linearized as num*den: the normal form already
    assumes every denominator nonzero, and then num*den has the sign of
    num/den, so each comparison with 0 keeps its truth."""
    try:
        num, den = rf_sub(canon_term(e.left), canon_term(e.right))
    except (NonNumeric, ZeroDivisionError):
        return None
    if p_is_const(den) is None:
        num, den = p_mul(num, den), p_const(Fraction(1))
    return _linear_form((num, den))


@lru_cache(maxsize=200000)
def _linearize(e: Expr) -> Optional[tuple[LinCon, ...]]:
    """Comparison -> constraints; None when not linearizable."""
    if not (isinstance(e, BinOp) and e.op in _CMP_OPS):
        return None
    form = _linear_diff(e)
    if form is None:
        return None
    items, const = form
    flipped = tuple((m, -c) for m, c in items), -const
    if e.op in ("<", "<="):
        return (LinCon(items, const, e.op == "<"),)
    if e.op in (">", ">="):
        return (LinCon(*flipped, e.op == ">"),)
    if e.op == "==":
        return (LinCon(items, const, False), LinCon(*flipped, False))
    return None  # '!=' is handled by case splits, not FM


def _ln_bounds(c: Fraction) -> Optional[tuple[Fraction, Fraction]]:
    """An interval around ln(c). `Decimal.ln` rounds half-even under any
    context rounding, so its one result is padded by ten units in its
    last place at 45 digits, never by less than 1e-40; the pad also
    covers the rounded quotient it is taken of."""
    if c <= 0:
        return None
    with localcontext() as ctx:
        ctx.prec = 45
        r = (Decimal(c.numerator) / Decimal(c.denominator)).ln()
    pad = max(Fraction(1, 10 ** 40), Fraction(10) ** (r.adjusted() - 43))
    return Fraction(r) - pad, Fraction(r) + pad


def _key(e: Expr):
    """Canonical key of an assertion; None when it has none."""
    try:
        return canon_assertion(e)
    except (NonNumeric, ZeroDivisionError):
        return None


@lru_cache(maxsize=100000)
def _sites(e: Expr) -> tuple[Expr, ...]:
    """The variables, indexes, pick(...) and size(...) among e's
    subterms, in `subterms` order: what the site walks look for."""
    return tuple(x for x in subterms(e) if isinstance(x, (Var, Index))
                 or (isinstance(x, FuncCall) and x.name in ("pick", "size")))


class _EqSet(dict):
    """Equation key -> (src, dst) for one ordered tuple of equality
    hypotheses (`Prover._equalities`), with the rewrites `_apply_eqs`
    has made under it."""

    def __init__(self, eqs: dict):
        super().__init__(eqs)
        self.done: dict = {}


class _Hyps:
    """One proof node's hypotheses and what the strategies read off
    them, each derived on first use and then shared."""

    def __init__(self, prover: "Prover", items: list[Expr]):
        self.prover = prover
        self.items = items

    @cached_property
    def keys(self) -> frozenset:
        return frozenset(k for k in map(_key, self.items) if k is not None)

    @cached_property
    def cons(self) -> list[LinCon]:
        return [c for h in self.items for c in _linearize(h) or ()]

    @cached_property
    def diseqs(self) -> list:
        return self.prover._collect_int_diseqs(self.items)

    @cached_property
    def fm_key(self) -> tuple:
        # order-free: equal constraints from different hypotheses share it
        return (tuple(sorted(self.cons, key=hash)),
                tuple(sorted(repr(d) for d in self.diseqs)))

    def holds(self, goal: Expr) -> bool:
        """goal is trivially true or one of the hypotheses."""
        k = _key(goal)
        return k is not None and (k == ("true",) or k in self.keys)


class Prover:
    def __init__(self, sorts: Optional[dict[str, Type]] = None, budget: int = 20000):
        self.sorts = dict(sorts or {})
        self.budget = budget
        self.nodes = 0
        self._sk = 0
        self._fm_cache: dict = {}
        self._eq_rules: dict = {}
        self._eq_sets: dict = {}

    # ── public API ──

    def prove_implication(self, antecedent: Expr, consequent: Expr) -> bool:
        # FM verdicts and rewrites are kept for one call: a kept verdict
        # skips FM's node, so a prover that has run would count fewer
        self.nodes = 0
        self._fm_cache.clear()
        self._eq_sets.clear()
        try:
            hyps = [nnf(h) for h in conjuncts(antecedent)]
            return self._prove(hyps, nnf(consequent), depth=0, splits=0,
                               quick=False, memo=frozenset())
        except (NonNumeric, ZeroDivisionError, RecursionError):
            return False

    def prove(self, goal: Expr) -> bool:
        return self.prove_implication(BoolLit(True), goal)

    # ── sort bookkeeping ──

    def _sort(self, e: Expr) -> Optional[Type]:
        try:
            return expr_type(e, self.sorts, allow_quant=True)
        except UbhlTypeError:
            return None

    def _is_int_term(self, e: Expr) -> bool:
        if isinstance(e, NumLit):
            return e.value.denominator == 1 and isinstance(e.type, IntT)
        return isinstance(self._sort(e), IntT)

    def _int_mono(self, mono) -> bool:
        """Every atom in the monomial is integer-sorted with positive
        exponent, so the monomial denotes an integer."""
        return all(exp >= 0 and self._int_atom(key) for key, exp in mono)

    def _int_atom(self, key) -> bool:
        if key[0] == "var":
            return isinstance(self.sorts.get(key[1]), IntT)
        if key[0] == "func":
            return isinstance(result_sort(key[1]), IntT)
        if key[0] == "idx":
            base = key[1]
            while base[0] == "store":
                base = base[1]
            if base[0] == "var":
                t = self.sorts.get(base[1])
                return isinstance(t, ArrayT) and isinstance(t.elem, IntT)
        return False

    # ── main tableau ──

    def _tick(self) -> bool:
        self.nodes += 1
        return self.nodes <= self.budget

    def _prove(self, hyps: list[Expr], goal: Expr, depth: int, splits: int,
               quick: bool, memo: frozenset = frozenset()) -> bool:
        if not self._tick() or depth > 300:
            return False

        hyps, contradiction = self._saturate(hyps)
        if contradiction:
            return True
        view = _Hyps(self, hyps + self._size_remove_facts(hyps, goal))
        goal = self._rewrite(goal, view)

        if isinstance(goal, BoolLit):
            return goal.value or self._hyps_inconsistent(view)

        if isinstance(goal, BinOp) and goal.op == "&&":
            return all(self._prove(view.items, g, depth + 1, splits, quick, memo)
                       for g in conjuncts(goal))

        if isinstance(goal, Quant) and goal.kind == "forall":
            return self._prove_forall(view.items, goal, depth, splits, quick, memo)

        if isinstance(goal, BinOp) and goal.op == "||":
            parts = disjuncts(goal)
            negated = [nnf(neg(p)) for p in parts]
            # cheap pass first, in order; the full pass from the last
            # disjunct (see the module docstring)
            for cheap in (True,) if quick else (True, False):
                for i in range(len(parts)) if cheap else reversed(range(len(parts))):
                    extra = negated[:i] + negated[i + 1:]
                    if self._prove(view.items + extra, parts[i], depth + 1, splits,
                                   cheap, memo):
                        return True
            return not quick and self._stuck_splits(view, goal, depth, splits, memo)

        # atomic goals
        if view.holds(goal):
            return True
        if isinstance(goal, BinOp) and goal.op in _CMP_OPS and goal.op != "!=":
            if self._fm_entails(view, goal):
                return True
        if isinstance(goal, BinOp) and goal.op == "!=":
            # x != y from FM strict separation either way
            lt = BinOp("<", goal.left, goal.right)
            gt = BinOp(">", goal.left, goal.right)
            if self._fm_entails(view, lt) or self._fm_entails(view, gt):
                return True
        if isinstance(goal, FuncCall) and goal.name == "isempty":
            size_le = BinOp("<=", FuncCall("size", (goal.args[0],)), NumLit(Fraction(0)))
            if self._fm_entails(view, size_le):
                return True
        if self._hyps_inconsistent(view):
            return True
        if quick:
            return False
        if isinstance(goal, Quant) and goal.kind == "exists":
            if self._prove_exists(view, goal, depth, splits, memo):
                return True

        # quantified-hypothesis instantiation, then retry
        inst, keys = self._instantiations(view, goal, memo)
        if inst:
            return self._prove(view.items + inst, goal, depth + 1, splits, quick,
                               memo | keys)
        return self._stuck_splits(view, goal, depth, splits, memo)

    # ── saturation ──

    def _saturate(self, hyps: list[Expr]) -> tuple[list[Expr], bool]:
        # each kept hypothesis is (term, its key, clause): a disjunction's
        # clause lists its (part, key) pairs, a literal's clause is None
        out: list[tuple] = []
        seen: set = set()
        queue = list(hyps)
        empties: set = set()

        def key_of(h: Expr):
            k = _key(h)
            return ("opaque", repr(h)) if k is None else k

        while queue:
            h = nnf(queue.pop(0))
            if isinstance(h, BoolLit):
                if not h.value:
                    return [], True
                continue
            if isinstance(h, BinOp) and h.op == "&&":
                queue.extend(conjuncts(h))
                continue
            if isinstance(h, Quant) and h.kind == "exists":
                queue.append(self._skolemize(h))
                continue
            if isinstance(h, UnOp) and h.op == "!" and isinstance(h.arg, FuncCall) \
                    and h.arg.name == "isempty":
                s = h.arg.args[0]
                try:
                    wkey = ("witness", canon_struct(s))
                except NonNumeric:
                    wkey = ("witness", repr(s))
                if wkey not in seen:
                    seen.add(wkey)
                    w = self._fresh("w", IntT())
                    queue.append(BinOp("in", w, s))
                    queue.append(BinOp("in", FuncCall("pick", (s,)), s))
                k = key_of(h)
                out.append((h, k, None))
                seen.add(k)
                continue
            if isinstance(h, FuncCall) and h.name == "isempty":
                try:
                    empties.add(canon_struct(h.args[0]))
                except NonNumeric:
                    pass
            k = key_of(h)
            if k in seen:
                continue
            seen.add(k)
            clause = None
            if isinstance(h, BinOp) and h.op == "||":
                clause = [(p, key_of(p)) for p in disjuncts(h)]
            out.append((h, k, clause))

        # unit propagation over disjunctive hypotheses, to fixpoint
        for _ in range(6):
            changed = False
            keys = {k for _, k, clause in out if clause is None}
            new_out: list[tuple] = []
            for h, k, clause in out:
                if clause is None:
                    new_out.append((h, k, clause))
                    continue
                if any(pk in keys for _, pk in clause):
                    changed = True  # subsumed by an established literal
                    continue
                kept = [(p, pk) for p, pk in clause if _negate_key(pk) not in keys]
                if len(kept) == len(clause):
                    new_out.append((h, k, clause))
                    continue
                changed = True
                if not kept:
                    return [], True
                rebuilt: Expr = kept[0][0]
                for p, _ in kept[1:]:
                    rebuilt = BinOp("||", rebuilt, p)
                new_out.append((rebuilt, key_of(rebuilt), kept if len(kept) > 1 else None))
            out = new_out
            if not changed:
                break

        # pairwise contradiction on canonical keys
        all_keys = {k for _, k, _ in out}
        if any(_negate_key(k) in all_keys for _, k, _ in out):
            return [], True

        # equality propagation: rewrite every hypothesis, but keep the
        # original equalities so recursive passes can rebuild the map
        # and so goals rewritten the same way still find their match
        hyps = [h for h, _, _ in out]
        eqs = self._equalities(hyps)
        if eqs:
            rewritten = []
            seen_rw: set = set()
            for h, k, _ in out:
                r = self._apply_eqs(h, eqs)
                rk = k if r is h else key_of(r)
                if rk not in seen_rw:
                    seen_rw.add(rk)
                    rewritten.append(r)
            for h, k, _ in out:
                if isinstance(h, BinOp) and h.op == "==" and k not in seen_rw:
                    seen_rw.add(k)
                    rewritten.append(h)
            hyps = rewritten
        # membership in a known-empty set is absurd
        if empties:
            for h in hyps:
                if isinstance(h, BinOp) and h.op == "in":
                    try:
                        if canon_struct(h.right) in empties:
                            return hyps, True
                    except NonNumeric:
                        pass
        return hyps, False

    def _is_structural_sort(self, e: Expr) -> bool:
        return isinstance(self._sort(e), (SetIntT, ArrayT, QueryT, DbT, BoolT))

    def _equalities(self, hyps: list[Expr]) -> "_EqSet":
        """Equation key -> (src, dst), from each equality's rule in order:
        a structural rule overwrites, a numeric one keeps the first. One
        map per ordered tuple of equalities, so its rewrites are kept."""
        key = tuple(h for h in hyps if isinstance(h, BinOp) and h.op == "==")
        hit = self._eq_sets.get(key)
        if hit is not None:
            return hit
        eqs: dict = {}
        for h in key:
            rule = self._eq_rules.get(h)
            if rule is None:
                rule = self._eq_rules[h] = self._eq_rule(h)
            if rule and (rule[0] or rule[1] not in eqs):
                eqs[rule[1]] = rule[2]
        hit = _EqSet(eqs)
        if len(self._eq_sets) < 20000:
            self._eq_sets[key] = hit
        return hit

    def _eq_rule(self, h: BinOp) -> tuple:
        """(overwrite, key, (src, dst)) of the equality h; () if none."""
        if self._is_structural_sort(h.left) or self._is_structural_sort(h.right):
            try:
                k1, k2 = canon_struct(h.left), canon_struct(h.right)
            except NonNumeric:
                return ()
            if k1 == k2:
                return ()
            # deterministic direction: larger key rewrites to smaller
            if repr(k1) < repr(k2):
                return True, k2, (h.right, h.left)
            return True, k1, (h.left, h.right)
        # numeric equality with a variable or function-atom side:
        # substitute so that opaque atom positions (array indexes,
        # abs args, product monomials) line up; FM keeps the
        # equality as well
        left, right = h.left, h.right
        if isinstance(left, Var) and isinstance(right, Var):
            src, dst = (left, right) if left.name > right.name else (right, left)
        elif isinstance(left, Var) and left.name not in free_vars(right):
            src, dst = left, right
        elif isinstance(right, Var) and right.name not in free_vars(left):
            src, dst = right, left
        elif isinstance(left, (FuncCall, Index)):
            src, dst = left, right
        elif isinstance(right, (FuncCall, Index)):
            src, dst = right, left
        else:
            return ()
        try:
            skey = canon_struct(src)
            # avoid divergent self-referential rewrites
            if not isinstance(src, Var) and repr(skey) in repr(canon_struct(dst)):
                return ()
        except (NonNumeric, ZeroDivisionError):
            return ()
        return False, skey, (src, dst)

    def _apply_eqs(self, e: Expr, eqs: "_EqSet") -> Expr:
        hit = eqs.done.get(e)
        if hit is not None:
            return hit
        term = e
        for _ in range(3):
            changed = False

            def walk(x: Expr) -> Expr:
                nonlocal changed
                try:
                    k = canon_struct(x)
                    if k in eqs:
                        src, dst = eqs[k]
                        changed = True
                        return dst
                except (NonNumeric, ZeroDivisionError):
                    pass
                return map_children(x, walk)

            e = walk(e)
            if not changed:
                break
        if len(eqs.done) < 20000:
            eqs.done[term] = e
        return e

    def _skolemize(self, q: Quant) -> Expr:
        body, guards = self._fresh_instance(q)
        for g in guards:
            body = BinOp("&&", g, body)
        return body

    def _fresh_instance(self, q: Quant) -> tuple[Expr, list[Expr]]:
        """q's body at a fresh constant, and the constant's domain guards."""
        t: Type = IntT() if not isinstance(q.dom, SortDom) else q.dom.sort
        w = self._fresh(q.var, t)
        return subst_expr(q.body, q.var, w), self._domain_guards(w, q.dom)

    def _fresh(self, base: str, t: Type) -> Var:
        self._sk += 1
        name = f"_sk{self._sk}_{base}"
        self.sorts[name] = t
        return Var(name)

    def _domain_guards(self, v: Expr, dom) -> list[Expr]:
        if isinstance(dom, SetDom):
            return [BinOp("in", v, dom.set_expr)]
        if isinstance(dom, RangeDom):
            return [BinOp("<=", dom.lo, v), BinOp("<=", v, dom.hi)]
        return []

    # ── goal handlers ──

    def _prove_forall(self, hyps: list[Expr], goal: Quant, depth: int,
                      splits: int, quick: bool, memo: frozenset) -> bool:
        body, extra = self._fresh_instance(goal)
        return self._prove(hyps + [nnf(g) for g in extra], nnf(body),
                           depth + 1, splits, quick, memo)

    def _prove_exists(self, view: _Hyps, goal: Quant, depth: int,
                      splits: int, memo: frozenset) -> bool:
        for cand in self._candidates(view.items, goal)[:6]:
            body = subst_expr(goal.body, goal.var, cand)
            guards = self._domain_guards(cand, goal.dom)
            want: Expr = body
            for g in guards:
                want = BinOp("&&", g, want)
            if self._prove(view.items, nnf(want), depth + 1, splits, False, memo):
                return True
        return False

    def _hyps_inconsistent(self, view: _Hyps) -> bool:
        keys = view.keys
        if ("false",) in keys or any(_negate_key(k) in keys for k in keys):
            return True
        return self._fm(view, ())

    # ── instantiation ──

    def _instantiations(self, view: _Hyps, goal: Expr,
                        memo: frozenset) -> tuple[list[Expr], frozenset]:
        cands = self._candidates(view.items, goal)
        have = set(memo) | view.keys
        added: list[Expr] = []
        new_keys: set = set()
        for h in view.items:
            if not (isinstance(h, Quant) and h.kind == "forall"):
                continue
            for cand in cands[:8]:
                if not self._domain_holds(view, cand, h.dom):
                    continue
                body = nnf(subst_expr(h.body, h.var, cand))
                bk = _key(body)
                if bk is None:
                    bk = repr(body)
                if bk in have:
                    continue
                have.add(bk)
                new_keys.add(bk)
                added.append(body)
        return added, frozenset(new_keys)

    def _domain_holds(self, view: _Hyps, cand: Expr, dom) -> bool:
        if isinstance(dom, SortDom):
            return True
        if isinstance(dom, RangeDom):
            return (self._fm_entails(view, BinOp("<=", dom.lo, cand))
                    and self._fm_entails(view, BinOp("<=", cand, dom.hi)))
        # set domain: a membership hypothesis must match
        return view.holds(nnf(BinOp("in", cand, dom.set_expr)))

    def _candidates(self, hyps: list[Expr], goal: Expr) -> list[Expr]:
        found: list[Expr] = []
        seen: set = set()

        def consider(e: Expr) -> None:
            if self._is_int_term(e):
                try:
                    k = repr(canon_term(e))
                except (NonNumeric, ZeroDivisionError):
                    return
                if k not in seen:
                    seen.add(k)
                    found.append(e)

        def scan(e: Expr) -> None:
            for x in _sites(e):
                if isinstance(x, Var):
                    consider(x)
                elif isinstance(x, Index):
                    consider(x.idx)
                elif isinstance(x, FuncCall) and x.name == "pick":
                    consider(x)

        scan(goal)
        goal_found = list(found)
        for h in hyps:
            if not isinstance(h, Quant):
                scan(h)
        # prefer terms that occur in the goal; fall back to hypothesis
        # terms only when the goal offers none
        return goal_found if goal_found else found

    # ── stuck-state splits ──

    def _stuck_splits(self, view: _Hyps, goal: Expr, depth: int,
                      splits: int, memo: frozenset) -> bool:
        if not self._tick() or splits >= 24:
            return False
        hyps = view.items
        # strategies fall through on failure: a failed case analysis
        # only means that particular decomposition did not close the goal
        # 1. undecided select-of-store: split on index equality
        pair = self._find_store_select(goal, view)
        if pair is not None:
            i_e, j_e = pair
            eq = BinOp("==", i_e, j_e)
            if (self._prove(hyps + [nnf(eq)], goal, depth + 1, splits + 1,
                            False, memo)
                    and self._prove(hyps + [nnf(neg(eq))], goal, depth + 1,
                                    splits + 1, False, memo)):
                return True
        # 2. boundary split: an integer candidate one past the end of a
        # quantified range is either the last element or inside
        ranges = [h.dom.hi for h in hyps if isinstance(h, Quant)
                  and h.kind == "forall" and isinstance(h.dom, RangeDom)]
        cands = self._candidates(hyps, goal)[:4] if ranges else []
        for hi in ranges:
            for cand in cands:
                boundary = BinOp("+", hi, NumLit(Fraction(1)))
                eq = BinOp("==", cand, boundary)
                k = _key(eq)
                if k is None or ("rsplit", k) in memo:
                    continue
                if self._fm_entails(view, BinOp("<=", cand, hi)):
                    continue  # already inside the range
                if not self._fm_entails(view, BinOp("<=", cand, boundary)):
                    continue
                memo2 = memo | {("rsplit", k)}
                if (self._prove(hyps + [nnf(eq)], goal, depth + 1,
                                splits + 1, False, memo2)
                        and self._prove(hyps + [nnf(neg(eq))], goal, depth + 1,
                                        splits + 1, False, memo2)):
                    return True
        # 3. disjunctive hypothesis: case analysis (smallest clause first)
        or_hyps = [(len(disjuncts(h)), i) for i, h in enumerate(hyps)
                   if isinstance(h, BinOp) and h.op == "||"]
        if or_hyps:
            _, i = min(or_hyps)
            h = hyps[i]
            rest = hyps[:i] + hyps[i + 1:]
            if all(self._prove(rest + [d], goal, depth + 1, splits + 1,
                               False, memo)
                   for d in disjuncts(h)):
                return True
        return False

    def _find_store_select(self, goal: Expr, view: _Hyps):
        for e in (goal, *view.items):
            for x in _sites(e):
                if not (isinstance(x, Index) and isinstance(x.arr, Store)):
                    continue
                try:
                    if not rf_equal(canon_term(x.arr.idx), canon_term(x.idx)) \
                            and not self._decide_neq(view, x.arr.idx, x.idx):
                        return x.arr.idx, x.idx
                except (NonNumeric, ZeroDivisionError):
                    pass
        return None

    def _size_remove_facts(self, hyps: list[Expr], goal: Expr) -> list[Expr]:
        """Cardinality of remove(S, x): size drops by one exactly when
        x is a member."""
        sites: list[tuple[Expr, Expr, Expr]] = []
        seen: set = set()
        for e in (goal, *hyps):
            for x in _sites(e):
                if isinstance(x, FuncCall) and x.name == "size" and x.args \
                        and isinstance(x.args[0], FuncCall) and x.args[0].name == "remove":
                    try:
                        key = canon_struct(x)
                    except (NonNumeric, ZeroDivisionError):
                        key = repr(x)
                    if key not in seen:
                        seen.add(key)
                        sites.append((x, x.args[0].args[0], x.args[0].args[1]))
        facts: list[Expr] = []
        known = _Hyps(self, hyps)
        one = NumLit(Fraction(1))
        for term, s, x in sites:
            size_s = FuncCall("size", (s,))
            if known.holds(nnf(BinOp("in", x, s))):
                facts.append(BinOp("==", term, BinOp("-", size_s, one)))
            elif known.holds(nnf(neg(BinOp("in", x, s)))):
                facts.append(BinOp("==", term, size_s))
            else:
                facts.append(BinOp("<=", term, size_s))
                facts.append(BinOp(">=", term, BinOp("-", size_s, one)))
        return facts

    def _decide_neq(self, view: _Hyps, a: Expr, b: Expr) -> bool:
        want = _key(BinOp("!=", a, b))
        if want is not None and want in view.keys:
            return True
        return (self._fm_entails(view, BinOp("<", a, b))
                or self._fm_entails(view, BinOp(">", a, b)))

    # ── rewriting ──

    def _rewrite(self, e: Expr, view: _Hyps) -> Expr:
        eqs = self._equalities(view.items)
        if eqs:
            e = self._apply_eqs(e, eqs)
        return self._reduce_stores(e, view)

    def _reduce_stores(self, e: Expr, view: _Hyps) -> Expr:
        def walk(x: Expr) -> Expr:
            x = map_children(x, walk)
            if isinstance(x, Index) and isinstance(x.arr, Store):
                st = x.arr
                try:
                    if rf_equal(canon_term(st.idx), canon_term(x.idx)):
                        return st.value
                except (NonNumeric, ZeroDivisionError):
                    pass
                if self._fm_entails(view, BinOp("==", st.idx, x.idx)):
                    return st.value
                if self._decide_neq(view, st.idx, x.idx):
                    return self._reduce_stores(Index(st.arr, x.idx), view)
            return x

        return walk(e)

    # ── Fourier-Motzkin ──

    def _fm_entails(self, view: _Hyps, goal: Expr) -> bool:
        neg_goal = _linearize(nnf(neg(goal)))
        return neg_goal is not None and self._fm(view, neg_goal)

    def _fm(self, view: _Hyps, extra: tuple) -> bool:
        """FM refutation of the view's constraints plus extra, cached
        by the view's order-free key."""
        key = view.fm_key + (repr(extra),)
        hit = self._fm_cache.get(key)
        if hit is None:
            hit = self._fm_refute(view.cons + list(extra), view.diseqs)
            if len(self._fm_cache) < 100000:
                self._fm_cache[key] = hit
        return hit

    def _collect_int_diseqs(self, hyps: list[Expr]) -> list:
        """Integer disequalities become one-level case splits: a != b
        expands to a <= b-1 or a >= b+1."""
        out = []
        for h in hyps:
            if not (isinstance(h, BinOp) and h.op == "!="):
                continue
            form = _linear_diff(h)
            if form is None or not form[0]:
                continue
            items, const = form
            if not all(self._int_mono(m) for m, _ in items):
                continue
            if const.denominator != 1 or any(c.denominator != 1 for _, c in items):
                continue
            low = LinCon(items, const + 1, False)                      # diff <= -1
            high = LinCon(tuple((m, -c) for m, c in items), -const + 1, False)
            out.append((low, high))
        return out[:3]

    def _fm_refute(self, cons: list[LinCon], diseqs: Optional[list] = None) -> bool:
        if not cons:
            return False
        if diseqs:
            return all(self._fm_refute(cons + [alt], diseqs[1:])
                       for alt in diseqs[0])
        cons = list(cons) + self._ambient_facts(cons)
        abs_atoms = self._abs_atoms(cons)
        return self._fm_split_abs(cons, abs_atoms)

    def _ambient_facts(self, cons: list[LinCon]) -> list[LinCon]:
        extra: list[LinCon] = []
        seen: set = set()
        atoms: set = set()
        for c in cons:
            for mono, _ in c.coeffs:
                for key, _exp in mono:
                    atoms.add(key)
                    if key in seen:
                        continue
                    seen.add(key)
                    if key[0] == "func" and key[1] == "size":
                        # size(s) >= 0
                        extra.append(LinCon(((((key, 1),), Fraction(-1)),), Fraction(0), False))
                    if key[0] == "log":
                        cv = rf_const_value(rf_from_key(key[1]))
                        if cv is not None:
                            bounds = _ln_bounds(cv)
                            if bounds:
                                lo, hi = bounds
                                m = ((key, 1),)
                                extra.append(LinCon(((m, Fraction(-1)),), lo, False))
                                extra.append(LinCon(((m, Fraction(1)),), -hi, False))
        extra.extend(self._positive_monomials(cons + extra, atoms))
        return extra

    def _positive_monomials(self, cons: list[LinCon], atoms: set) -> list[LinCon]:
        """A product of strictly-positive atoms is nonnegative in any
        power; nonneg atoms need nonneg exponents. Positivity of single
        atoms is read off single-monomial constraint rows."""
        positive: set = set()
        nonneg: set = set()
        for c in cons:
            if len(c.coeffs) != 1:
                continue
            mono, coeff = c.coeffs[0]
            if len(mono) != 1 or mono[0][1] != 1:
                continue
            atom = mono[0][0]
            # coeff*atom + const (<|<=) 0
            if coeff < 0:
                bound = c.const / -coeff     # atom >(=) bound
                if bound > 0 or (bound == 0 and c.strict):
                    positive.add(atom)
                if bound >= 0:
                    nonneg.add(atom)
        for key in atoms:
            if key[0] == "func" and key[1] == "size":
                nonneg.add(key)
            if key[0] == "abs":
                nonneg.add(key)
            if key[0] == "log":
                cv = rf_const_value(rf_from_key(key[1]))
                if cv is not None and cv >= 1:
                    nonneg.add(key)
                    if cv > 1:
                        positive.add(key)
        out: list[LinCon] = []
        monos: set = set()
        for c in cons:
            monos.update(m for m, _ in c.coeffs)
        for m in monos:
            if len(m) < 2 and not any(e < 0 for _, e in m):
                continue
            ok = all((a in positive) or (a in nonneg and e > 0) for a, e in m)
            if ok:
                out.append(LinCon(((m, Fraction(-1)),), Fraction(0), False))
        return out

    def _abs_atoms(self, cons: list[LinCon]) -> list:
        out = []
        seen = set()
        for c in cons:
            for mono, _ in c.coeffs:
                if len(mono) == 1 and mono[0][1] == 1 and mono[0][0][0] == "abs":
                    key = mono[0][0]
                    if key not in seen:
                        seen.add(key)
                        arg = rf_from_key(key[1])
                        if rf_linear(arg) is not None:
                            out.append((key, arg))
        return out[:6]

    def _fm_split_abs(self, cons: list[LinCon], abs_atoms: list) -> bool:
        if not abs_atoms:
            return self._fm_core(cons)
        (key, arg), rest = abs_atoms[0], abs_atoms[1:]
        items, const = _linear_form(arg)
        m = ((key, 1),)
        for sign in (1, -1):
            # abs == sign*arg and sign*arg >= 0
            scaled = tuple((mm, sign * c) for mm, c in items)
            eq1 = LinCon((((m, Fraction(1)),) + tuple((mm, -c) for mm, c in scaled)),
                         -sign * const, False)
            eq2 = LinCon((((m, Fraction(-1)),) + scaled), sign * const, False)
            nonneg = LinCon(tuple((mm, -c) for mm, c in scaled), -sign * const, False)
            if not self._fm_split_abs(cons + [eq1, eq2, nonneg], rest):
                return False
        return True

    def _fm_core(self, cons: list[LinCon]) -> bool:
        """Eliminate monomials in repr order. A row (coeffs, const, den,
        strict) is (sum(coeffs[m] * m) + const) / den (<|<=) 0 with int
        coefficients, den > 0 and gcd 1 over all of them, so den is what
        clearing denominators multiplies by: a strict row over integer
        monomials tightens to (coeffs, const + 1, 1, non-strict)."""
        if not self._tick():
            return False
        is_int = lru_cache(maxsize=None)(self._int_mono)

        def row(coeffs: dict, const: int, den: int, strict: bool) -> tuple:
            g = math.gcd(const, den, *coeffs.values())
            if g > 1:
                coeffs = {m: c // g for m, c in coeffs.items()}
                const, den = const // g, den // g
            if strict and coeffs and all(map(is_int, coeffs)):
                return coeffs, const + 1, 1, False
            return coeffs, const, den, strict

        def absurd(r: tuple) -> bool:  # 0 < c or, strict, 0 <= c
            return not r[0] and (r[1] > 0 or (r[3] and r[1] == 0))

        rows = []
        for c in cons:
            den = math.lcm(c.const.denominator, *(q.denominator for _, q in c.coeffs))
            rows.append(row({m: q.numerator * (den // q.denominator) for m, q in c.coeffs},
                            c.const.numerator * (den // c.const.denominator), den, c.strict))
        for mono in sorted(set().union(*(r[0] for r in rows)), key=repr):
            pos = [r for r in rows if r[0].get(mono, 0) > 0]
            negs = [r for r in rows if r[0].get(mono, 0) < 0]
            new_rows = [r for r in rows if mono not in r[0]]
            if len(pos) * len(negs) <= 400:
                for p in pos:
                    cp = p[0][mono]
                    for n in negs:
                        cn = -n[0][mono]
                        coeffs = {m: c * cn for m, c in p[0].items()}
                        for m, c in n[0].items():
                            coeffs[m] = coeffs.get(m, 0) + c * cp
                        coeffs = {m: c for m, c in coeffs.items() if c and m != mono}
                        new_rows.append(row(coeffs, p[1] * cn + n[1] * cp, p[2] * n[2],
                                            p[3] or n[3]))
            if any(map(absurd, new_rows)):
                return True
            rows = [r for r in new_rows if r[0]]
            if len(rows) > 2500:
                return False
        return any(map(absurd, rows))
