"""Correctness checks and the reference computations they compare with.

Everything here is computed apart from ubhl: the two-sided geometric
pmf and tails, the winner probabilities of a two-candidate noisy max,
the case studies' bad events, the proof script's export marks and the
SMT-LIB well-formedness. Each check returns a list of problems; an
empty list means the output passed. The checks never compare against a
stored copy of an earlier output.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

PREC = 80
# tolerance of the reference computations, far above their rounding
SLACK = Fraction(1, 10 ** 40)


# ── two-sided geometric noise, Pr[k] = (1-q)/(1+q) * q^|k|, q = exp(-eps) ──


def geo_q(eps: Fraction) -> Decimal:
    with localcontext() as ctx:
        ctx.prec = PREC
        return (-(Decimal(eps.numerator) / Decimal(eps.denominator))).exp()


def geo_pmf(eps: Fraction, k: int) -> Fraction:
    """Pr[K = k], to PREC significant digits."""
    with localcontext() as ctx:
        ctx.prec = PREC
        q = geo_q(eps)
        return Fraction((1 - q) / (1 + q) * q ** abs(k))


def geo_greater(eps: Fraction, t: int) -> Fraction:
    """Pr[K > t] for integer t, to PREC significant digits."""
    with localcontext() as ctx:
        ctx.prec = PREC
        q = geo_q(eps)
        if t >= 0:
            return Fraction(q ** (t + 1) / (1 + q))
        return Fraction(1 - q ** (-t) / (1 + q))


def geo_abs_tail(eps: float, t: float) -> float:
    """Pr[|K| > t] for real t >= 0: |K| >= floor(t) + 1 on the lattice."""
    q = math.exp(-eps)
    return 2 * q ** (math.floor(t) + 1) / (1 + q)


def rnm_union_bound(size: int, eps: float, beta: float) -> float:
    """size * Pr[|K| > r] at the per-site radius r = (2/eps)*log(size/beta)
    + 1 of lap(eps/2): each candidate's noise stays within r except with
    this total probability, and then no candidate beats the winner by
    more than 2r, the rnm theorem's margin."""
    radius = (2.0 / eps) * math.log(size / beta) + 1
    return size * geo_abs_tail(eps / 2.0, radius)


def noisy_max_two(eps_site: Fraction, q0: int, q1: int) -> tuple[Fraction, Fraction]:
    """Pr[winner = 0], Pr[winner = 1] for candidates 0 and 1 with integer
    scores q0, q1, each noised by an independent two-sided geometric of
    scale eps_site; candidate 0 is picked first and keeps ties. Within
    10**-44 of the truth."""
    # beyond |k0| = span the remaining mass is below 10**-45
    span = math.ceil(45 * math.log(10) / float(eps_site)) + 1
    p1 = sum((geo_pmf(eps_site, k0) * geo_greater(eps_site, q0 - q1 + k0)
              for k0 in range(-span, span + 1)), Fraction(0))
    return 1 - p1, p1


# ── check workload ──


CHILD_TAGS = {"seq": ("1", "2"), "if": ("t", "e"), "while": ("p", "d"),
              "call": ("b",), "weak": ("w",), "and": ("1", "2"), "or": ("1", "2")}


def script_exports(doc: dict) -> list[tuple[tuple[str, ...], str, str]]:
    """(tree path, antecedent text, consequent text) of every side
    condition the proof script marks for export. Paths follow the
    kernel's naming of tree positions (seq 1/2, if t/e, while p/d, call
    b, weak w)."""
    out = []

    def walk(node: dict, path: tuple[str, ...]) -> None:
        if node.get("rule") == "weak":
            child = node["children"][0]
            for side in node.get("export", ()):
                if side == "pre":
                    out.append((path, node["pre"], child["pre"]))
                else:
                    out.append((path, child["post"], node["post"]))
        for tag, child in zip(CHILD_TAGS.get(node.get("rule"), ()),
                              node.get("children", ())):
            walk(child, path + (tag,))

    walk(doc["root"], ())
    return out


def check_verdict(label: str, mutant: bool, case: str, verdict: dict) -> list[str]:
    """verdict: accepted, fully_proved, open (rule, path, ante, cons),
    expected_open (path, ante, cons) from the script's export marks."""
    if mutant:
        if verdict["accepted"] and verdict["fully_proved"]:
            return [f"{label}: mutant verified (accepted, every obligation discharged)"]
        return []
    if not verdict["accepted"]:
        return [f"{label}: shipped proof rejected"]
    if case in ("rnm", "sv"):
        return [] if verdict["fully_proved"] else [f"{label}: obligations left open"]
    got = sorted((tuple(o[1]), o[2], o[3]) for o in verdict["open"] if o[0] == "weak")
    want = sorted((tuple(p), a, c) for p, a, c in verdict["expected_open"])
    problems = []
    if any(o[0] != "weak" for o in verdict["open"]):
        problems.append(f"{label}: an open obligation does not come from a weakening")
    if got != want:
        problems.append(f"{label}: open obligations {got} differ from the script's "
                        f"export marks {want}")
    return problems


SMT_COMMANDS = {"set-logic", "set-option", "set-info", "declare-sort", "define-sort",
                "declare-fun", "declare-const", "define-fun", "assert", "check-sat",
                "push", "pop", "get-model", "exit"}


def smt_forms(text: str) -> list[str]:
    """Top-level forms of an SMT-LIB script, by their head symbol;
    raises ValueError on unbalanced parentheses or stray atoms."""
    heads: list[str] = []
    depth = 0
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == ";":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == '"':
            i += 1
            while i < n and text[i] != '"':
                i += 1
            i += 1
            continue
        if ch == "|":
            i = text.index("|", i + 1) + 1
            continue
        if ch == "(":
            if depth == 0:
                j = i + 1
                while j < n and text[j] not in " \t\n()":
                    j += 1
                heads.append(text[i + 1:j])
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError("unbalanced ')'")
        elif depth == 0 and not ch.isspace():
            raise ValueError(f"atom {ch!r} outside any form")
        i += 1
    if depth:
        raise ValueError("unclosed '('")
    return heads


def check_smtlib(scripts: list[str], n_open: int) -> list[str]:
    problems = []
    if len(scripts) != n_open:
        problems.append(f"{len(scripts)} SMT-LIB scripts for {n_open} open obligations")
    for i, text in enumerate(scripts):
        try:
            heads = smt_forms(text)
        except ValueError as exc:
            problems.append(f"smt script {i}: {exc}")
            continue
        bad = [h for h in heads if h not in SMT_COMMANDS]
        if bad:
            problems.append(f"smt script {i}: unknown commands {bad}")
        if not heads or heads[-1] != "check-sat":
            problems.append(f"smt script {i}: does not end in (check-sat)")
        if "assert" not in heads:
            problems.append(f"smt script {i}: asserts nothing")
    return problems


# ── embed workload ──


def check_embed(out: dict) -> list[str]:
    """out: consistent, checker_fully_proved, wp_total, wp_proved,
    root_index (Fraction), ghosts [Fraction], reparsed (text or None)."""
    problems = []
    if not out["consistent"]:
        problems.append("cross-check inconsistent")
    if not out["checker_fully_proved"]:
        problems.append("checker left obligations open")
    if out["wp_total"] == 0 or out["wp_proved"] != out["wp_total"]:
        problems.append(f"WP proved {out['wp_proved']} of {out['wp_total']}")
    wrong = [g for g in out["ghosts"] if g != out["root_index"]]
    if wrong:
        problems.append(f"{len(wrong)} ghost trial(s) end with ghost != root index "
                        f"{out['root_index']}, e.g. {wrong[0]}")
    if out["reparsed"] is not None and out["reparsed"] != out["instrumented_text"]:
        problems.append("instrumented program does not survive a parse/print round trip")
    return problems


# ── validate workload ──


def _query_value(query, db) -> Fraction:
    return query.offset + sum((w * c for w, c in zip(query.weights, db.counts)),
                              Fraction(0))


def _array(arr) -> dict:
    return dict(arr.items)


def own_bad_event(case: str, mem: dict, params: dict) -> bool:
    """The case theorem's bad event, read off a final memory."""
    if case == "rnm":
        size, eps, beta = int(params["size"]), float(params["eps"]), float(params["beta"])
        scores = {i: Fraction(v) for i, v in _array(mem["qscore"]).items()}
        margin = (4 / eps) * math.log(size / beta) + 2
        won = scores.get(mem["res"], Fraction(0))
        return any(float(won) < float(scores.get(s, Fraction(0))) - margin
                   for s in range(size))
    q_count = int(params["Q"])
    answers = _array(mem["res"])
    queries = _array(mem["q"])
    truth = {j: _query_value(queries[j], mem["d"]) for j in range(1, q_count + 1)}
    if case == "sv":
        eps, beta = float(params["eps"]), float(params["beta"])
        margin = (6 / eps) * math.log((q_count + 1) / beta) + 2
        t = float(mem["tin"])
        return any((answers.get(j, False) is True and float(truth[j]) < t - margin)
                   or (answers.get(j, False) is False and float(truth[j]) > t + margin)
                   for j in range(1, q_count + 1))
    alpha = Fraction(mem["alpha"])
    return any(abs(Fraction(answers.get(j, 0)) - truth[j]) > alpha
               for j in range(1, q_count + 1))


def check_validate(label: str, out: dict) -> list[str]:
    """out: trials, failures, index, params, extras, samples
    [(trial, program_bad, own_bad, repeat_equal)]."""
    problems = []
    rate = out["failures"] / out["trials"]
    if rate > out["index"]:
        problems.append(f"{label}: failure rate {rate} above the theorem index {out['index']}")
    if label == "rnm":
        p = out["params"]
        ceiling = rnm_union_bound(int(p["size"]), float(p["eps"]), float(p["beta"]))
        if rate > ceiling:
            problems.append(f"rnm: failure rate {rate} above size*tail = {ceiling}")
    if label.startswith("mwsv"):
        if out["failures"]:
            problems.append(f"{label}: {out['failures']} failing trial(s)")
        if out["extras"].get("update_budget_violations", 1):
            problems.append(f"{label}: update budget violated")
    for trial, program_bad, own_bad, repeat_equal in out["samples"]:
        if program_bad != own_bad:
            problems.append(f"{label} trial {trial}: bad event {program_bad}, "
                            f"recomputed {own_bad}")
        if not repeat_equal:
            problems.append(f"{label} trial {trial}: same seed gave another memory")
    if not out["samples"]:
        problems.append(f"{label}: no trial was re-checked")
    return problems


# ── exact workload ──


def check_total_mass(label: str, masses: list[Fraction], residual: Fraction) -> list[str]:
    total = sum(masses, Fraction(0)) + residual
    return [] if total == 1 else [f"{label}: mass + residual = {total}, not 1"]


def check_lap_masses(label: str, eps: Fraction, masses: dict[int, Fraction]) -> list[str]:
    problems = []
    for k, m in sorted(masses.items()):
        ref = geo_pmf(eps, k)
        if m > ref:
            problems.append(f"{label}: mass at offset {k} exceeds the pmf by {float(m - ref)}")
        elif ref - m > SLACK:
            problems.append(f"{label}: mass at offset {k} below the pmf by {float(ref - m)}")
    if not masses:
        problems.append(f"{label}: no mass enumerated")
    return problems


def check_upper_bound(label: str, bound: Fraction, truth: Fraction,
                      residual: Fraction) -> list[str]:
    """An upper bound from the exact evaluator (enumerated mass plus
    residual) must cover the truth and exceed it by at most the
    residual."""
    if bound + SLACK < truth:
        return [f"{label}: bound {float(bound):.6e} below the true probability "
                f"{float(truth):.6e}"]
    if bound - truth > residual + SLACK:
        return [f"{label}: bound {float(bound):.6e} exceeds the truth {float(truth):.6e} "
                f"by more than the residual {float(residual):.3e}"]
    return []


def check_winners(label: str, eps_site: Fraction, scores: list[int],
                  win: dict[int, Fraction], residual: Fraction) -> list[str]:
    """Each winner's enumerated mass is at most its true probability and
    falls short of it by at most the residual."""
    problems = []
    refs = noisy_max_two(eps_site, scores[0], scores[1])
    for k, ref in enumerate(refs):
        lo = win.get(k, Fraction(0))
        if lo > ref + SLACK or ref - lo > residual + SLACK:
            problems.append(f"{label}: Pr[winner {k}] = {float(lo):.12e}, reference "
                            f"{float(ref):.12e}, residual {float(residual):.3e}")
    return problems
