"""Cross-validation of the two verification routes.

An accepted derivation drives the ghost-code embedding: its sampling
annotations instrument the program, the WP generator produces standard
Hoare obligations, and the report records whether both pipelines agree.
Report-only: divergence is flagged, never raised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from ..assertions.obligations import Implication, Obligation, ObStatus
from ..assertions.prover import Prover
from ..checker.axioms import instantiate_axiom
from ..checker.kernel import CheckResult, check, lvalue_expr
from ..checker.proof import ProofNode, ProofScript
from ..lang.ast import (
    REAL, BinOp, Call, Command, Expr, If, NumLit, Program, Sample, Seq, Var,
    While, fresh_name, subst_expr,
)
from ..lang.parser import parse_expr
from .instrument import HoareTriple, SiteSpec, embed
from .wp import MissingInvariant, wp


@dataclass
class ConsistencyReport:
    checker_accepted: bool
    checker_fully_proved: bool
    wp_total: int = 0
    wp_proved: int = 0
    triple: HoareTriple | None = None
    instrumented: Command | None = None
    obligations: list[Obligation] = field(default_factory=list)
    note: str = ""

    @property
    def wp_all_proved(self) -> bool:
        return self.wp_total == self.wp_proved

    @property
    def consistent(self) -> bool:
        """Both pipelines agree: acceptance travels with WP success (an
        obligation marked for export counts as open on both sides)."""
        if not self.checker_accepted:
            return True
        return self.checker_fully_proved == self.wp_all_proved or not self.checker_fully_proved


def collect_sites(script: ProofScript, program: Program,
                  command: Command, ghost: str) -> tuple[dict, dict]:
    """Walk the proof alongside the entry command, pulling sampling
    annotations (axiom instance, index) and ghost-strengthened loop
    invariants. The ghost budget before a loop is the sum of indices
    threaded to its left, so single (non-nested) loops get the exact
    bookkeeping x_ghost <= prefix + (bound - variant) * iter_index."""
    sites: dict = {}
    invariants: dict = {}

    def walk(node: ProofNode, cmd: Command, path: tuple[str, ...],
             prefix: Expr) -> None:
        if node.rule == "rand" and isinstance(cmd, Sample):
            post, iota = instantiate_axiom(
                node.annotations.get("schema", "lap_acc"), lvalue_expr(cmd.target),
                cmd.dist, parse_expr(node.annotations.get("site_index", "0")),
                parse_expr(node.annotations.get("site_post", "true")))
            sites[path] = SiteSpec(post=post, index=iota)
            return
        if node.rule == "seq" and isinstance(cmd, Seq):
            walk(node.children[0], cmd.first, path + ("1",), prefix)
            left_idx = parse_expr(node.children[0].index)
            walk(node.children[1], cmd.second, path + ("2",),
                 BinOp("+", prefix, left_idx))
            return
        if node.rule == "if" and isinstance(cmd, If):
            walk(node.children[0], cmd.then, path + ("t",), prefix)
            walk(node.children[1], cmd.els, path + ("e",), prefix)
            return
        if node.rule == "while" and isinstance(cmd, While):
            inv = parse_expr(node.annotations["invariant"])
            variant = parse_expr(node.annotations["variant"])
            bound = parse_expr(node.annotations["bound"])
            iter_index = parse_expr(node.annotations.get("iter_index", "0"))
            spent = BinOp("*", BinOp("-", bound, variant), iter_index)
            budget = BinOp("<=", Var(ghost), BinOp("+", prefix, spent))
            invariants.setdefault(path, BinOp("&&", inv, budget))
            walk(node.children[0], cmd.body, path + ("b",), prefix)
            return
        if node.rule == "call" and isinstance(cmd, Call):
            callee = program.procs[cmd.proc]
            walk(node.children[0], callee.body, path, prefix)
            return
        if node.rule in ("weak", "and", "or") and node.children:
            for child in node.children:
                walk(child, cmd, path, prefix)
            return
        # skip / assn / ext / frame / false carry no sites

    entry = script.entry
    proc = program.procs[entry["proc"]]
    zero = NumLit(Fraction(0))
    walk(script.root.children[0] if script.root.rule == "call" else script.root,
         proc.body, (), zero)
    return sites, invariants


def crosscheck(program: Program, script: ProofScript,
               check_result: CheckResult | None = None,
               prover_budget: int = 60000) -> ConsistencyReport:
    """Embed using the proof's annotations and compare pipeline verdicts.

    Ghost bookkeeping across loops is not auto-derived: loop invariants
    come from the derivation and constrain only the program state, so
    loop-bearing programs typically export their ghost-bound obligations
    rather than discharging them.
    """
    result = check_result if check_result is not None else check(program, script)
    report = ConsistencyReport(checker_accepted=result.accepted,
                               checker_fully_proved=result.fully_proved)
    if not result.accepted:
        report.note = "derivation rejected; embedding skipped"
        return report

    entry = script.entry
    proc = program.procs[entry["proc"]]
    ghost = fresh_name("x_beta", program.store_sorts().keys() | program.extvars.keys())
    sites, invariants = collect_sites(script, program, proc.body, ghost)
    root = script.root
    pre = parse_expr(root.pre)
    post_body = parse_expr(root.annotations.get("callee_post", root.post))
    post_body = subst_expr(post_body, "res", proc.ret)
    index = parse_expr(root.index)

    instrumented, triple = embed(proc.body, sites, pre, post_body, index,
                                 program, ghost=ghost)
    report.instrumented = instrumented
    report.triple = triple

    env = dict(result.sorts)
    env[triple.ghost] = REAL

    try:
        wp_res = wp(instrumented, triple.post_full(), env, invariants)
    except MissingInvariant as exc:
        report.note = f"wp failed: {exc}"
        return report

    top = Implication(rule="wp-top", path=(), note="triple precondition",
                      antecedent=triple.pre_full(), consequent=wp_res.pre)
    obligations = [top] + wp_res.obligations
    for ob in obligations:
        prover = Prover(dict(env), budget=prover_budget)
        if prover.prove_implication(ob.antecedent, ob.consequent):
            ob.status = ObStatus.BUILTIN_PROVED
    report.obligations = obligations
    report.wp_total = len(obligations)
    report.wp_proved = sum(1 for ob in obligations
                           if ob.status == ObStatus.BUILTIN_PROVED)
    return report
