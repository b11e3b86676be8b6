"""The proof kernel: structural checking of derivation trees.

Each node claims a judgment (pre, command, post, index); the checker
recomputes what every rule requires of its children, compares claims up
to the canonical normal form, and emits side conditions as obligations.
A tree is Accepted only when every structural condition holds;
acceptance is conditional on the obligations, each of which is either
proved by the built-in prover, exported for an external solver, or
left unknown. Rejection is never silent: it names the rule, the tree
path and the failed condition.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from ..assertions.normform import NonNumeric, assertions_equal, ground_value
from ..assertions.obligations import (
    AxiomPremise, Implication, Obligation, ObStatus,
)
from ..assertions.prover import Prover, neg
from ..lang.ast import (
    ArrayT, Assign, BinOp, Call, Command, Expr, ExtCall, FALSE, If, Index, IntT,
    LValue, NumLit, Program, Quant, Sample, Seq, Skip, SortDom, TRUE, Type,
    Var, While, free_vars, fresh_name, is_numeric, modified_vars, subst_expr,
    subst_lvalue,
)
from ..lang.parser import parse_expr
from ..lang.typecheck import (
    TypeEnv, UbhlTypeError, assertion_env, check_assertion, dist_sig, expr_type,
    procedure_uses, reject_recursion,
)
from .axioms import SchemaMismatch, finite_site_failure, instantiate_axiom
from .index import index_equal, index_leq
from .proof import ProofNode, ProofScript

ZERO = NumLit(Fraction(0))
ONE = NumLit(Fraction(1))


class Rejected(Exception):
    def __init__(self, path: tuple[str, ...], rule: str, reason: str):
        loc = ".".join(path) if path else "root"
        super().__init__(f"[{rule}@{loc}] {reason}")
        self.path = path
        self.rule = rule
        self.reason = reason


@dataclass
class CheckResult:
    accepted: bool
    reason: str = ""
    path: tuple[str, ...] = ()
    rule: str = ""
    obligations: list[Obligation] = field(default_factory=list)
    # every variable's sort when the check ended: program variables,
    # logicals, the result and the loops' variant snapshots
    sorts: TypeEnv = field(default_factory=dict)

    @property
    def fully_proved(self) -> bool:
        return self.accepted and all(
            ob.status == ObStatus.BUILTIN_PROVED for ob in self.obligations)

    def undischarged(self) -> list[Obligation]:
        return [ob for ob in self.obligations
                if ob.status != ObStatus.BUILTIN_PROVED]

    def summary(self) -> str:
        if not self.accepted:
            where = f"{self.rule}@{'.'.join(self.path) or 'root'}" if self.rule \
                else ('.'.join(self.path) or 'root')
            return f"REJECTED [{where}]: {self.reason}"
        proved = sum(1 for ob in self.obligations
                     if ob.status == ObStatus.BUILTIN_PROVED)
        rest = len(self.obligations) - proved
        tag = "fully discharged" if rest == 0 else f"{rest} obligation(s) open"
        return f"ACCEPTED ({proved} obligation(s) proved, {tag})"


class Checker:
    def __init__(self, program: Program,
                 logicals: Optional[dict[str, Type]] = None,
                 prover_budget: int = 60000):
        self.program = program
        self.logicals = dict(logicals or {})
        self.env: TypeEnv = assertion_env(program, self.logicals)
        self.obligations: list[Obligation] = []
        self.prover_budget = prover_budget

    # ── helpers ──

    def parse(self, text: str, path: tuple[str, ...], what: str) -> Expr:
        try:
            return parse_expr(text)
        except Exception as exc:
            raise Rejected(path, what, f"cannot parse {what}: {exc}") from exc

    def require(self, ok: bool, path: tuple[str, ...], rule: str, reason: str) -> None:
        if not ok:
            raise Rejected(path, rule, reason)

    def eq_assert(self, a: Expr, b: Expr) -> bool:
        return assertions_equal(a, b)

    def add_implication(self, rule: str, path: tuple[str, ...],
                        ante: Expr, cons: Expr, note: str = "") -> None:
        ob = Implication(rule=rule, path=path, note=note,
                         antecedent=ante, consequent=cons)
        if self.eq_assert(ante, cons) or self.eq_assert(cons, TRUE):
            ob.status = ObStatus.BUILTIN_PROVED
            self.obligations.append(ob)
            return
        # conjuncts already present verbatim need no proof; the prover
        # only sees what is genuinely new
        residual = self._residual_conjuncts(ante, cons)
        if not residual:
            ob.status = ObStatus.BUILTIN_PROVED
            self.obligations.append(ob)
            return
        # a fresh prover per goal, over a copy of the sorts as they
        # stand now: `check` and the while rule add `res` and the
        # variant snapshot after construction
        if all(Prover(self.env, budget=self.prover_budget)
               .prove_implication(ante, goal) for goal in residual):
            ob.status = ObStatus.BUILTIN_PROVED
        self.obligations.append(ob)

    def _residual_conjuncts(self, ante: Expr, cons: Expr) -> list[Expr]:
        """Consequent conjuncts not already among the antecedent's."""
        from ..assertions.normform import canon_assertion
        from ..assertions.prover import conjuncts
        try:
            have = {canon_assertion(h) for h in conjuncts(ante)}
        except (NonNumeric, ZeroDivisionError):
            return [cons]
        out = []
        for g in conjuncts(cons):
            try:
                k = canon_assertion(g)
            except (NonNumeric, ZeroDivisionError):
                out.append(g)
                continue
            if k == ("true",) or k in have:
                continue
            out.append(g)
        return out

    def add_index_leq(self, rule: str, path: tuple[str, ...], pre: Expr,
                      small: Expr, large: Expr) -> None:
        """`small <= large` in every state of `pre`. A constant decrease
        rejects; a constant increase normalizes to `true`, which
        `add_implication` marks proved without the prover."""
        if index_leq(small, large) is False:
            raise Rejected(path, rule, "index strictly decreases across Weak")
        self.add_implication(rule, path, pre, BinOp("<=", small, large),
                             note="index order")

    # ── judgment plumbing ──

    def node_judgment(self, node: ProofNode, path: tuple[str, ...]):
        pre = self.parse(node.pre, path, "pre")
        post = self.parse(node.post, path, "post")
        index = self.parse(node.index, path, "index")
        return pre, post, index

    def check_tree(self, node: ProofNode, command: Command,
                   path: tuple[str, ...] = ()) -> None:
        pre, post, index = self.node_judgment(node, path)
        try:
            check_assertion(pre, self.env)
            check_assertion(post, self.env)
        except UbhlTypeError as exc:
            raise Rejected(path, node.rule, f"pre/post is not a bool assertion: {exc}")
        try:
            t = expr_type(index, self.env, allow_quant=True)
        except UbhlTypeError as exc:
            raise Rejected(path, node.rule, f"index is not a number: {exc}")
        self.require(is_numeric(t), path, node.rule, f"index is not a number: got {t}")
        handler = getattr(self, f"_rule_{node.rule}", None)
        if handler is None:
            raise Rejected(path, node.rule, "unknown rule")
        handler(node, command, pre, post, index, path)

    def expect_children(self, node: ProofNode, n: int, path, rule) -> None:
        if len(node.children) != n:
            raise Rejected(path, rule,
                           f"rule takes {n} children, got {len(node.children)}")

    def match_child(self, child: ProofNode, path: tuple[str, ...], rule: str,
                    pre: Expr, post: Expr, index: Expr, what: str) -> None:
        cpre, cpost, cindex = self.node_judgment(child, path)
        self.require(self.eq_assert(cpre, pre), path, rule,
                     f"{what}: precondition does not match the rule's requirement")
        self.require(self.eq_assert(cpost, post), path, rule,
                     f"{what}: postcondition does not match the rule's requirement")
        self.require(index_equal(cindex, index), path, rule,
                     f"{what}: index does not match the rule's requirement")

    # ── rules ──

    def _rule_skip(self, node, command, pre, post, index, path) -> None:
        self.require(isinstance(command, Skip), path, "skip", "command is not skip")
        self.expect_children(node, 0, path, "skip")
        self.require(self.eq_assert(pre, post), path, "skip", "pre must equal post")
        self.require(index_equal(index, ZERO), path, "skip", "index must be 0")

    def _rule_assn(self, node, command, pre, post, index, path) -> None:
        self.require(isinstance(command, Assign), path, "assn", "command is not an assignment")
        self.expect_children(node, 0, path, "assn")
        expected = subst_lvalue(post, command.target, command.expr)
        self.require(self.eq_assert(pre, expected), path, "assn",
                     "pre must equal post with the assignment substituted")
        self.require(index_equal(index, ZERO), path, "assn", "index must be 0")

    def _rule_frame(self, node, command, pre, post, index, path) -> None:
        self.expect_children(node, 0, path, "frame")
        self.require(self.eq_assert(pre, post), path, "frame", "pre must equal post")
        self.require(index_equal(index, ZERO), path, "frame", "index must be 0")
        touched = modified_vars(command, self.program) & free_vars(pre)
        self.require(not touched, path, "frame",
                     f"command modifies framed variables {sorted(touched)}")

    def _rule_false(self, node, command, pre, post, index, path) -> None:
        self.expect_children(node, 0, path, "false")
        self.require(self.eq_assert(post, FALSE), path, "false", "post must be false")
        self.require(index_equal(index, ONE), path, "false", "index must be 1")

    def _rule_seq(self, node, command, pre, post, index, path) -> None:
        self.require(isinstance(command, Seq), path, "seq", "command is not a sequence")
        self.expect_children(node, 2, path, "seq")
        left, right = node.children
        lpre, lpost, lindex = self.node_judgment(left, path + ("1",))
        rpre, rpost, rindex = self.node_judgment(right, path + ("2",))
        self.require(self.eq_assert(lpre, pre), path, "seq",
                     "first child's pre must equal the sequence pre")
        self.require(self.eq_assert(lpost, rpre), path, "seq",
                     "midpoint assertion must thread the children")
        self.require(self.eq_assert(rpost, post), path, "seq",
                     "second child's post must equal the sequence post")
        total = BinOp("+", lindex, rindex)
        self.require(index_equal(index, total), path, "seq",
                     "index must be the sum of the children's indices")
        self.check_tree(left, command.first, path + ("1",))
        self.check_tree(right, command.second, path + ("2",))

    def _rule_if(self, node, command, pre, post, index, path) -> None:
        self.require(isinstance(command, If), path, "if", "command is not a conditional")
        self.expect_children(node, 2, path, "if")
        then_n, else_n = node.children
        self.match_child(then_n, path + ("t",), "if",
                         BinOp("&&", pre, command.guard), post, index, "then branch")
        self.match_child(else_n, path + ("e",), "if",
                         BinOp("&&", pre, neg(command.guard)), post, index, "else branch")
        self.check_tree(then_n, command.then, path + ("t",))
        self.check_tree(else_n, command.els, path + ("e",))

    def _rule_while(self, node, command, pre, post, index, path) -> None:
        self.require(isinstance(command, While), path, "while", "command is not a loop")
        self.expect_children(node, 2, path, "while")
        inv = self.parse(node.annotations.get("invariant", ""), path, "invariant")
        variant = self.parse(node.annotations.get("variant", ""), path, "variant")
        bound = self.parse(node.annotations.get("bound", ""), path, "bound")
        iter_index = self.parse(node.annotations.get("iter_index", "0"), path, "iter_index")
        eta = node.annotations.get("eta", "eta")

        try:
            t = expr_type(variant, self.env)
        except UbhlTypeError as exc:
            raise Rejected(path, "while", f"variant does not typecheck: {exc}")
        self.require(isinstance(t, IntT), path, "while", "variant must be an integer expression")
        self.require(not (free_vars(bound) & set(self.program.vars)), path, "while",
                     "loop bound must be a logical expression")
        used = (free_vars(inv) | free_vars(variant) | free_vars(command.guard)
                | set(self.env))
        self.require(eta not in used, path, "while",
                     f"variant snapshot name {eta!r} is not fresh")
        self.env.setdefault(eta, IntT())

        # side condition: the variant hitting 0 kills the guard
        self.add_implication(
            "while", path,
            BinOp("&&", inv, BinOp("<=", variant, ZERO)), neg(command.guard),
            note="exhausted variant disables the guard")

        preserve, decrease = node.children
        self.match_child(preserve, path + ("p",), "while",
                         inv, inv, iter_index, "invariant preservation child")
        dec_pre = BinOp("&&", BinOp("&&", inv, command.guard),
                        BinOp("==", variant, Var(eta)))
        self.match_child(decrease, path + ("d",), "while",
                         dec_pre, BinOp("<", variant, Var(eta)), ZERO,
                         "variant decrease child")

        self.require(self.eq_assert(pre, BinOp("&&", inv, BinOp("<=", variant, bound))),
                     path, "while", "pre must be invariant plus the variant bound")
        self.require(self.eq_assert(post, BinOp("&&", inv, neg(command.guard))),
                     path, "while", "post must be invariant plus the negated guard")
        self.require(index_equal(index, BinOp("*", bound, iter_index)), path, "while",
                     "index must be bound times the per-iteration index")

        self.check_tree(preserve, command.body, path + ("p",))
        self.check_tree(decrease, command.body, path + ("d",))

    def _rule_rand(self, node, command, pre, post, index, path) -> None:
        self.require(isinstance(command, Sample), path, "rand", "command is not a sampling")
        self.expect_children(node, 0, path, "rand")
        schema_id = node.annotations.get("schema")
        self.require(bool(schema_id), path, "rand", "rand node names no axiom schema")
        site_index = self.parse(node.annotations.get("site_index", "0"), path, "site_index")
        site_post = self.parse(node.annotations.get("site_post", "true"), path, "site_post")
        try:
            psi, iota = instantiate_axiom(schema_id, lvalue_expr(command.target),
                                          command.dist, site_index, site_post)
            note = (self._decide_finite_site(command, psi, iota, path)
                    if schema_id == "finite_exact"
                    else f"axiom schema {schema_id} (trusted)")
        except SchemaMismatch as exc:
            raise Rejected(path, "rand", str(exc))
        self.obligations.append(AxiomPremise(
            rule="rand", path=path, schema=schema_id, dist=command.dist, post=psi,
            index=iota, note=note, status=ObStatus.BUILTIN_PROVED))

        frame = None
        if "frame" in node.annotations:
            frame = self.parse(node.annotations["frame"], path, "frame")
        expected_post = psi if frame is None else BinOp("&&", psi, frame)
        self.require(self.eq_assert(post, expected_post), path, "rand",
                     "post must be the instantiated axiom postcondition"
                     " (with the declared frame)")
        self.require(index_equal(index, iota), path, "rand",
                     "index must match the axiom's failure index")
        if frame is not None:
            # the frame must hold however the sample lands; quantify
            # conjunct-wise so untouched parts fold away
            fresh = fresh_name("v", free_vars(frame) | free_vars(pre) | set(self.env))
            t = dist_sig(command.dist)[1]
            want = _value_independence(frame, command.target, fresh, t)
            self.add_implication("rand", path, pre, want,
                                 note="frame is independent of the sampled value")

    def _decide_finite_site(self, command: Sample, site_post: Expr,
                            site_index: Expr, path) -> str:
        """Enumerate a finite_exact site's failure mass and require it
        below the site index; the premise's note."""
        for a in command.dist.args:
            self.require(not free_vars(a), path, "rand",
                         "finite_exact needs literal distribution parameters")
        target = command.target
        self.require(target.idx is None, path, "rand",
                     "finite_exact supports plain variable targets")
        extra = free_vars(site_post) - {target.base}
        self.require(not extra, path, "rand",
                     f"finite_exact post may only mention the target, not {sorted(extra)}")
        try:
            check_assertion(site_post, self.env)
        except UbhlTypeError as exc:
            raise Rejected(path, "rand", f"finite_exact post is not a bool assertion: {exc}")
        iota_val = ground_value(site_index)
        self.require(iota_val is not None, path, "rand",
                     "finite_exact needs a ground site index")
        fail = finite_site_failure(command.dist, target.base, site_post, {})
        self.require(fail <= iota_val, path, "rand",
                     f"site fails with probability {fail}, larger than the claimed {iota_val}")
        return f"enumerated failure mass {fail} <= {iota_val}"

    def _rule_call(self, node, command, pre, post, index, path) -> None:
        self.require(isinstance(command, Call), path, "call", "command is not a call")
        self.expect_children(node, 1, path, "call")
        proc_name = node.annotations.get("proc", command.proc)
        self.require(proc_name == command.proc, path, "call",
                     f"node names procedure {proc_name!r}, command calls {command.proc!r}")
        callee = self.program.procs.get(command.proc)
        self.require(callee is not None, path, "call",
                     f"unknown procedure {command.proc!r}")
        callee_pre = self.parse(node.annotations.get("callee_pre", "true"),
                                path, "callee_pre")
        callee_post = self.parse(node.annotations.get("callee_post", "true"),
                                 path, "callee_post")
        self.require("res" not in self.program.store_sorts(), path, "call",
                     "program variable 'res' shadows the contract result symbol")
        body_mods = modified_vars(callee.body, self.program)

        # soundness of the substitution-based conclusion
        base = command.target.base
        non_res = free_vars(subst_expr(callee_post, "res", Var("_res_hole")))
        self.require(base not in non_res, path, "call",
                     "contract post may mention the call target only via 'res'")
        if callee.arg in free_vars(callee_post):
            self.require(callee.arg not in body_mods, path, "call",
                         "contract post mentions the argument, but the body modifies it")
            bad = free_vars(command.arg) & (body_mods | {base, callee.arg})
            self.require(not bad, path, "call",
                         f"argument expression reads variables the call overwrites: {sorted(bad)}")

        frame = None
        if "frame" in node.annotations:
            frame = self.parse(node.annotations["frame"], path, "frame")
            touched = (body_mods | {callee.arg}) & free_vars(frame)
            self.require(not touched, path, "call",
                         f"call body modifies framed variables {sorted(touched)}")
            fresh = fresh_name("v", free_vars(frame) | set(self.env))
            t = lvalue_sort(self.env, command.target)
            self.add_implication("call", path, frame,
                                 _value_independence(frame, command.target, fresh, t),
                                 note="frame is independent of the returned value")

        expect_pre = subst_expr(callee_pre, callee.arg, command.arg)
        expect_post = subst_expr(subst_expr(callee_post, callee.arg, command.arg),
                                 "res", lvalue_expr(command.target))
        if frame is not None:
            expect_pre = BinOp("&&", expect_pre, frame)
            expect_post = BinOp("&&", expect_post, frame)
        self.require(self.eq_assert(pre, expect_pre), path, "call",
                     "pre must be the contract pre with the argument substituted")
        self.require(self.eq_assert(post, expect_post), path, "call",
                     "post must be the contract post with result and argument substituted")

        body_node = node.children[0]
        body_post = subst_expr(callee_post, "res", callee.ret)
        self.match_child(body_node, path + ("b",), "call",
                         callee_pre, body_post, index, "callee body")
        self.check_tree(body_node, callee.body, path + ("b",))

    def _rule_ext(self, node, command, pre, post, index, path) -> None:
        self.require(isinstance(command, ExtCall), path, "ext",
                     "command is not an external call")
        self.expect_children(node, 0, path, "ext")
        self.require(index_equal(index, ZERO), path, "ext", "index must be 0")
        decl = self.program.externs.get(command.ext)
        self.require(decl is not None, path, "ext",
                     f"unknown external procedure {command.ext!r}")
        fresh = fresh_name("v", free_vars(post) | set(self.env))
        expected = Quant("forall", fresh, SortDom(lvalue_sort(self.env, command.target)),
                         subst_lvalue(post, command.target, Var(fresh)))
        self.require(self.eq_assert(pre, expected), path, "ext",
                     "pre must quantify the post over every possible return value")

    def _rule_weak(self, node, command, pre, post, index, path) -> None:
        self.expect_children(node, 1, path, "weak")
        child = node.children[0]
        cpre, cpost, cindex = self.node_judgment(child, path + ("w",))
        exports = set(node.annotations.get("export", ()))
        if "pre" in exports:
            self.obligations.append(Implication(
                rule="weak", path=path, note="precondition strengthening (marked for export)",
                antecedent=pre, consequent=cpre))
        else:
            self.add_implication("weak", path, pre, cpre, note="precondition strengthening")
        if "post" in exports:
            self.obligations.append(Implication(
                rule="weak", path=path, note="postcondition weakening (marked for export)",
                antecedent=cpost, consequent=post))
        else:
            self.add_implication("weak", path, cpost, post, note="postcondition weakening")
        self.add_index_leq("weak", path, pre, cindex, index)
        self.check_tree(child, command, path + ("w",))

    def _rule_and(self, node, command, pre, post, index, path) -> None:
        self.expect_children(node, 2, path, "and")
        c1, c2 = node.children
        p1, q1, i1 = self.node_judgment(c1, path + ("1",))
        p2, q2, i2 = self.node_judgment(c2, path + ("2",))
        self.require(self.eq_assert(p1, pre) and self.eq_assert(p2, pre), path, "and",
                     "both children must share the conjunction's pre")
        self.require(self.eq_assert(post, BinOp("&&", q1, q2)), path, "and",
                     "post must be the conjunction of the children's posts")
        self.require(index_equal(index, BinOp("+", i1, i2)), path, "and",
                     "index must be the sum of the children's indices")
        self.check_tree(c1, command, path + ("1",))
        self.check_tree(c2, command, path + ("2",))

    def _rule_or(self, node, command, pre, post, index, path) -> None:
        self.expect_children(node, 2, path, "or")
        c1, c2 = node.children
        p1, q1, i1 = self.node_judgment(c1, path + ("1",))
        p2, q2, i2 = self.node_judgment(c2, path + ("2",))
        self.require(self.eq_assert(q1, post) and self.eq_assert(q2, post), path, "or",
                     "both children must share the disjunction's post")
        self.require(self.eq_assert(pre, BinOp("||", p1, p2)), path, "or",
                     "pre must be the disjunction of the children's pres")
        self.require(index_equal(i1, index) and index_equal(i2, index), path, "or",
                     "children must share the disjunction's index")
        self.check_tree(c1, command, path + ("1",))
        self.check_tree(c2, command, path + ("2",))


def _value_independence(frame: Expr, target: LValue, fresh: str, t: Type) -> Expr:
    from ..assertions.prover import conjuncts
    parts = []
    for g in conjuncts(frame):
        framed = subst_lvalue(g, target, Var(fresh))
        if framed == g:
            parts.append(g)   # target not mentioned; quantifier is vacuous
        else:
            parts.append(Quant("forall", fresh, SortDom(t), framed))
    out = parts[0]
    for g in parts[1:]:
        out = BinOp("&&", out, g)
    return out


def lvalue_expr(lv: LValue) -> Expr:
    if lv.idx is None:
        return Var(lv.base)
    return Index(Var(lv.base), lv.idx)


def lvalue_sort(env: TypeEnv, lv: LValue) -> Type:
    """The sort a write to `lv` stores: an array's element sort for an
    indexed write, int for an undeclared name."""
    t = env.get(lv.base)
    if lv.idx is not None and isinstance(t, ArrayT):
        return t.elem
    return t if t is not None else IntT()


def check(program: Program, script: ProofScript,
          prover_budget: int = 60000) -> CheckResult:
    """Check a proof script against a program."""
    try:  # the rules assume, as typecheck does, that no procedure recurses
        reject_recursion(procedure_uses(program)[1])
    except UbhlTypeError as exc:
        return CheckResult(False, str(exc))
    checker = Checker(program, script.logicals, prover_budget)
    entry = script.entry
    proc = program.procs.get(entry["proc"])
    if proc is None:
        return CheckResult(False, f"entry procedure {entry['proc']!r} not in program")
    try:
        arg = parse_expr(entry.get("arg", "0"))
    except Exception as exc:
        return CheckResult(False, f"bad entry argument: {exc}")
    res = entry.get("result", "res")
    command = Call(LValue(res), proc.name, arg)
    try:
        checker.env[res] = expr_type(proc.ret, checker.env)
    except UbhlTypeError:
        checker.env.setdefault(res, IntT())
    try:
        checker.check_tree(script.root, command)
    except Rejected as exc:
        return CheckResult(False, exc.reason, exc.path, exc.rule,
                           obligations=checker.obligations, sorts=checker.env)
    return CheckResult(True, obligations=checker.obligations, sorts=checker.env)
