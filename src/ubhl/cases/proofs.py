"""Programmatic builders for the shipped proof scripts.

Scripts are derivation trees over the concrete assertion syntax; the
builders construct them by substituting through the program text, so
the shipped JSON stays in sync with the sources by construction.
"""

from __future__ import annotations

from typing import Callable

from ubhl.checker.proof import ProofNode, ProofScript
from ubhl.lang.ast import pretty_expr, subst_expr, subst_lvalue
from ubhl.lang.parser import Parser, parse_expr


def node(rule: str, pre: str, post: str, index: str, children=(), **ann) -> ProofNode:
    return ProofNode(rule, pre, post, index, list(children), dict(ann))


def subst(assertion: str, var: str, term: str) -> str:
    """assertion[term/var] in concrete syntax."""
    return pretty_expr(subst_expr(parse_expr(assertion), var, parse_expr(term)))


def subst_lv(assertion: str, lvalue: str, term: str) -> str:
    """assertion with the write lvalue := term applied (array writes
    become store terms)."""
    p = Parser(lvalue)
    lv = p.parse_lvalue()
    return pretty_expr(subst_lvalue(parse_expr(assertion), lv, parse_expr(term)))


def conj(*parts: str) -> str:
    return " && ".join(f"({p})" for p in parts)


def assign_chain(stmts: list[tuple[str, str]], post: str) -> tuple[str, list[ProofNode]]:
    """Backward-chained Assn nodes for `lv <- term` statements; returns
    the weakest pre and the per-statement node list."""
    posts = [post]
    for lv, term in reversed(stmts):
        posts.append(subst_lv(posts[-1], lv, term))
    posts.reverse()  # posts[i] is the pre of statement i
    nodes = [node("assn", posts[i], posts[i + 1], "0") for i in range(len(stmts))]
    return posts[0], nodes


def seq_chain(children: list[ProofNode]) -> ProofNode:
    """Right-nested Seq nodes matching the parser's statement nesting;
    each node's index is the sum of its two children's."""
    out = children[-1]
    for child in reversed(children[:-1]):
        out = node("seq", child.pre, out.post, f"({child.index}) + ({out.index})", [child, out])
    return out


# ── report-noisy-max ────────────────────────────────────────────────

RNM_LOGICALS = {"beta": "real", "R0": "set<int>"}


RNM_HYPS = "0 < beta && beta < 1 && 0 < eps && 0 < size(R0)"


def rnm_theorem() -> tuple[str, str, str]:
    """The (pre, post, index) `rnm_proof` concludes for `main`; each
    case's theorem is also what `build_case` validates."""
    return (conj("R == R0", RNM_HYPS),
            "forall s in R0 . qscore[res] >= qscore[s] - ((4/eps)*log(size(R0)/beta) + 2)",
            "beta")


def rnm_proof() -> ProofScript:
    T = "(2/eps)*log(size(R0)/beta) + 1"
    phi1 = f"forall s in R0 . s in R || abs(noisy[s] - qscore[s]) <= {T}"
    phi2 = "forall s in R0 . s in R || flag == false"
    phi3 = (f"flag == true || (abs(best - qscore[rstar]) <= {T}"
            " && (forall s in R0 . s in R || noisy[s] <= best))")
    inv = conj(RNM_HYPS, phi1, phi2, phi3)
    iter_index = "beta/size(R0)"
    psi_site = f"abs(noisy[r] - qscore[r]) <= (1/(eps/2))*log(1/({iter_index})) + 1"
    guard = "noisy[r] > best || flag == true"

    # frame carried through the sampling site: the invariant with the
    # freshly sampled cell carved out
    th1 = (f"forall s in R0 . s == r || s in R"
           f" || abs(noisy[s] - qscore[s]) <= {T}")
    th3 = (f"flag == true || (abs(best - qscore[rstar]) <= {T}"
           " && (forall s in R0 . s == r || s in R || noisy[s] <= best))")
    frame = conj(RNM_HYPS, th1, phi2, th3)
    p2 = conj(psi_site, RNM_HYPS, th1, phi2, th3)

    inv_removed = subst("(" + inv + ")", "R", "remove(R, r)")

    # then branch: flag <- false; rstar <- r; best <- noisy[r]
    then_pre, then_nodes = assign_chain(
        [("flag", "false"), ("rstar", "r"), ("best", "noisy[r]")], inv_removed)
    then_seq = seq_chain(then_nodes)
    then_child = node("weak", conj(p2, guard), inv_removed, "0", [then_seq])
    else_child = node(
        "weak", conj(p2, f"!({guard})"), inv_removed, "0",
        [node("skip", inv_removed, inv_removed, "0")])
    if_node = node("if", p2, inv_removed, "0", [then_child, else_child])

    preserve = seq_chain([
        node("assn", inv, inv, "0"),                             # r <- pick(R)
        node("rand", inv, conj(psi_site, frame), iter_index,
             schema="lap_acc", site_index=iter_index, frame=frame),
        if_node,
        node("assn", inv_removed, inv, "0"),                     # R <- remove(R, r)
    ])

    # variant decrease: size(R) drops because the picked element leaves;
    # the sample and the conditional write none of R, r and eta
    dvar = "size(remove(R, r)) < eta"
    dec_pre = conj(inv, "!isempty(R)", "size(R) == eta")
    decrease = seq_chain([
        node("weak", dec_pre, dvar, "0",
             [node("assn", subst(dvar, "r", "pick(R)"), dvar, "0")]),
        node("frame", dvar, dvar, "0"),
        node("frame", dvar, dvar, "0"),
        node("assn", dvar, "size(R) < eta", "0"),                # R <- remove(R, r)
    ])

    loop = node(
        "while",
        conj(inv, "size(R) <= size(R0)"), conj(inv, "isempty(R)"), "beta",
        [preserve, decrease],
        invariant=inv, variant="size(R)", bound="size(R0)",
        iter_index=iter_index, eta="eta")

    # initialization: flag <- true; best <- 0 establish the invariant
    init_pre, init_nodes = assign_chain(
        [("flag", "true"), ("best", "0")], loop.pre)
    body_chain = seq_chain(init_nodes + [loop])
    return _script(RNM_LOGICALS, rnm_theorem(), "rstar", body_chain)


def _script(logicals: dict[str, str], theorem: tuple[str, str, str], result: str,
            chain: ProofNode, **ann) -> ProofScript:
    """The script proving `theorem` (pre, post, index) as `main`'s
    contract: a weakening, annotated with `ann`, takes `chain`'s
    judgment to the theorem with `res` read as the program variable
    `result`."""
    pre, post, index = theorem
    body = node("weak", pre, subst(post, "res", result), index, [chain], **ann)
    root = node("call", pre, post, index, [body],
                proc="main", callee_pre=pre, callee_post=post)
    return ProofScript(logicals={k: Parser(v).parse_type() for k, v in logicals.items()},
                       entry={"proc": "main", "arg": "0", "result": "res"},
                       root=root)


def forall_sort(var: str, sort: str, body: str) -> str:
    return f"forall {var} : {sort} . ({body})"


def _counter_decrease(counter: str, dec_pre: str, eta: str) -> ProofNode:
    """The variant decrease of a loop whose body first increments
    `counter` and then writes none of `Qn`, the counter and the snapshot
    `eta`: the increment, then one frame over the rest of the round."""
    dvar = f"Qn - {counter} < {eta}"
    return seq_chain([
        node("weak", dec_pre, dvar, "0",
             [node("assn", subst(dvar, counter, f"{counter} + 1"), dvar, "0")]),
        node("frame", dvar, dvar, "0"),
    ])


# ── the threshold procedures svinit and svstep, shared by sv and mwsv ─
# Both programs sample the noisy threshold `tin` around their threshold
# variable at scale `scale` and answer each query by comparing a noisy
# value `a` with it; `phi_t` is the threshold's accuracy and `phi_q(q, z)`
# the answer's. Each Laplace site fails with probability `iota`.


def _svinit_body(scale: str, iota: str, phi_t: str) -> ProofNode:
    return seq_chain([
        node("assn", "epsin == epsin", f"{scale} == epsin", "0"),
        node("rand", f"{scale} == epsin", phi_t, iota,
             schema="lap_acc", site_index=iota, frame=f"{scale} == epsin"),
    ])


def _svstep_body(scale: str, threshold: str, iota: str, phi_t: str,
                phi_q: Callable[[str, str], str]) -> ProofNode:
    psi_a = f"abs(a - evalQ(qq, d)) <= (1/({scale}/4))*log(1/({iota})) + 1"
    p_a = conj(psi_a, phi_t)
    post_z = conj(phi_t, phi_q("qq", "z"))
    guard = f"a < {threshold}"
    if_node = node("if", p_a, post_z, "0", [
        node("weak", conj(p_a, guard), post_z, "0",
             [node("assn", subst_lv(post_z, "z", "false"), post_z, "0")]),
        node("weak", conj(p_a, f"!({guard})"), post_z, "0",
             [node("assn", subst_lv(post_z, "z", "true"), post_z, "0")]),
    ])
    return seq_chain([
        node("rand", phi_t, p_a, iota,
             schema="lap_acc", site_index=iota, frame=phi_t),
        if_node,
    ])


# ── interactive above-threshold (sparse vector) ─────────────────────

SV_LOGICALS = {"beta": "real", "Q": "int"}


def sv_phi_t() -> str:
    return ("abs(tin - T) <= (2/eps)*log((Q+1)/beta) + 1"
            " && eps == epsin")


def sv_phi_q(query_term: str, ans_term: str) -> str:
    m6 = "((6/eps)*log((Q+1)/beta) + 2)"
    return (f"({ans_term} == true ==> evalQ({query_term}, d) >= tin - {m6})"
            f" && ({ans_term} == false ==> evalQ({query_term}, d) <= tin + {m6})")


SV_HYPS = "0 < beta && beta < 1 && 0 < epsin && 1 <= Q"


def sv_theorem() -> tuple[str, str, str]:
    return (conj("Qn == Q", SV_HYPS),
            "forall j in 1 .. Q . (" + sv_phi_q("q[j]", "res[j]") + ")",
            "beta")


def sv_proof() -> ProofScript:
    iota = "beta/(Q+1)"
    phi_t = sv_phi_t()
    inv = conj(SV_HYPS, phi_t, "Qn == Q",
               "forall j in 1 .. u . (" + sv_phi_q("q[j]", "ans[j]") + ")")
    p1 = conj(SV_HYPS, phi_t, "Qn == Q",
              "forall j in 1 .. u - 1 . (" + sv_phi_q("q[j]", "ans[j]") + ")")

    # preservation of the loop invariant through one interaction round
    s1 = node("assn", subst(f"({p1})", "u", "u + 1"), p1, "0")
    ext_pre = forall_sort("v", "query", subst_lv(p1, "q[u]", "v"))
    s2 = node("weak", p1, p1, "0", [node("ext", ext_pre, p1, "0")])
    call_post = conj(phi_t, sv_phi_q("q[u]", "ans[u]"), SV_HYPS, "Qn == Q",
                     "forall j in 1 .. u - 1 . (" + sv_phi_q("q[j]", "ans[j]") + ")")
    s3 = node("weak", p1, inv, iota, [
        node("call", p1, call_post, iota,
             [_svstep_body("eps", "T", iota, phi_t, sv_phi_q)],
             proc="svstep", callee_pre=phi_t,
             callee_post=conj(phi_t, sv_phi_q("qq", "res")),
             frame=conj(SV_HYPS, "Qn == Q",
                        "forall j in 1 .. u - 1 . (" + sv_phi_q("q[j]", "ans[j]") + ")")),
    ])
    preserve = seq_chain([s1, s2, s3])

    decrease = _counter_decrease("u", conj(inv, "u < Qn", "Qn - u == eta"), "eta")

    loop = node("while", conj(inv, "Qn - u <= Q"), conj(inv, "u >= Qn"),
                "Q * (beta/(Q+1))", [preserve, decrease],
                invariant=inv, variant="Qn - u", bound="Q",
                iter_index=iota, eta="eta")

    # initialization: u <- 0; ans[0] <- false
    pre_ans = subst_lv(loop.pre, "ans[u]", "false")
    pre_u = subst(pre_ans, "u", "0")
    init_sub = seq_chain([
        node("assn", pre_u, pre_ans, "0"),
        node("assn", pre_ans, loop.pre, "0"),
        loop,
    ])
    sv_frame = conj(SV_HYPS, "Qn == Q")
    init_weak = node("weak", conj(phi_t, sv_frame), loop.post, init_sub.index,
                     [init_sub])

    svinit_call = node("call", conj("true", sv_frame), conj(phi_t, sv_frame),
                       iota, [_svinit_body("eps", iota, phi_t)],
                       proc="svinit", callee_pre="true", callee_post=phi_t,
                       frame=sv_frame)
    chain = seq_chain([svinit_call, init_weak])
    return _script(SV_LOGICALS, sv_theorem(), "ans", chain)


# ── synthetic-database release (online multiplicative weights) ──────

MWSV_LOGICALS = {"beta": "real", "Q": "int"}

_GAMMA = "4*n*n*log(X)/(alpha*alpha)"


MW_HYPS = "0 < beta && beta < 1 && 0 < eps && 1 <= Q && 1 <= n && 2 <= X && 0 < alpha"


def mw_defs() -> str:
    return conj(
        MW_HYPS,
        "eta == alpha/(2*n)",
        "T == 2*alpha",
        f"c == {_GAMMA}",
        "epsin == eps/(4*c)",
        "tin == T",
        "Qn == Q",
        "alpha >= (24*c/eps)*log(2*(Q+1)/beta)",
        "alpha >= (4*c/eps)*log(2*c/beta)",
        "size(d) == n",
    )


def mwsv_theorem() -> tuple[str, str, str]:
    gam = _GAMMA
    pre = conj(
        MW_HYPS,
        "Qn == Q",
        "size(d) == n",
        f"alpha >= (24*({gam})/eps)*log(2*(Q+1)/beta)",
        f"alpha >= (4*({gam})/eps)*log(2*({gam})/beta)",
    )
    return pre, "forall j in 1 .. Q . abs(res[j] - evalQ(q[j], d)) <= alpha", "beta"


def mw_phi_t() -> str:
    # the threshold-check subsystem runs at scale epsin over 2Q queries
    # with half the failure budget
    return ("abs(tin - Tsv) <= (2/eps2)*log(2*(2*Q+1)/beta) + 1"
            " && eps2 == epsin")


def mw_phi_q(query_term: str, ans_term: str) -> str:
    m6 = "((6/eps2)*log(2*(2*Q+1)/beta) + 2)"
    return (f"({ans_term} == true ==> evalQ({query_term}, d) >= tin - {m6})"
            f" && ({ans_term} == false ==> evalQ({query_term}, d) <= tin + {m6})")


def mw_pot(u_term: str) -> str:
    return f"potential(mwdb, d) <= log(X) - ({u_term})*alpha*alpha/(4*n*n)"


def mw_acc(hi: str) -> str:
    return f"forall j in 1 .. {hi} . abs(ans[j] - evalQ(q[j], d)) <= alpha"


_IOTA_SV = "(beta/2)/(2*Q+1)"
_IOTA_LAP = "beta/(2*Q)"


def _mw_sv_call(pre_frame: str, post_extra: str) -> ProofNode:
    """Contracted call to the threshold-check step with a frame."""
    phi_t = mw_phi_t()
    return node(
        "call",
        conj(phi_t, pre_frame),
        conj(phi_t, post_extra, pre_frame),
        _IOTA_SV,
        [_svstep_body("eps2", "Tsv", _IOTA_SV, phi_t, mw_phi_q)],
        proc="svstep", callee_pre=phi_t,
        callee_post=conj(phi_t, mw_phi_q("qq", "res")),
        frame=pre_frame)


def mwsv_proof() -> ProofScript:
    defs = mw_defs()
    phi_t = mw_phi_t()
    beta_iter = f"2*({_IOTA_SV}) + {_IOTA_LAP}"
    inv = conj(phi_t, defs, mw_pot("u"), mw_acc("k"))
    p1 = conj(phi_t, defs, mw_pot("u"), mw_acc("k - 1"))

    # loop body, forward: k increment, adversary query, cached answers
    s1 = node("assn", subst(f"({p1})", "k", "k + 1"), p1, "0")
    ext_pre = forall_sort("v", "query", subst_lv(p1, "q[k]", "v"))
    s2 = node("weak", p1, p1, "0", [node("ext", ext_pre, p1, "0")])
    p2 = conj(p1, "approx == evalQ(q[k], mwdb)")
    s3 = node("assn", subst_lv(p2, "approx", "evalQ(q[k], mwdb)"), p2, "0")
    p3 = conj(p2, "exact == evalQ(q[k], d)")
    s4 = node("assn", subst_lv(p3, "exact", "evalQ(q[k], d)"), p3, "0")

    # saturated branch: answer from the synthetic database
    then_assn = node("assn", subst_lv(inv, "ans[k]", "approx"), inv, "0")
    then_branch = node("weak", conj(p3, "k >= c"), inv, beta_iter,
                       [then_assn], export=["pre"])

    # pre-saturation: two threshold checks, maybe an update
    f1 = conj(defs, mw_pot("u"), mw_acc("k - 1"),
              "approx == evalQ(q[k], mwdb)", "exact == evalQ(q[k], d)",
              "errgt == error(q[k], mwdb)")
    e1_post = conj(phi_t, f1)
    e1 = node("assn", subst_lv(e1_post, "errgt", "error(q[k], mwdb)"),
              e1_post, "0")
    e2 = _mw_sv_call(f1, mw_phi_q("errgt", "at"))
    f2 = conj(f1, mw_phi_q("errgt", "at"),
              "errlt == invQ(error(q[k], mwdb))")
    e3_post = conj(phi_t, f2)
    e3 = node("assn", subst_lv(e3_post, "errlt", "invQ(error(q[k], mwdb))"),
              e3_post, "0")
    f2b = conj(f1, mw_phi_q("errgt", "at"), "errlt == invQ(error(q[k], mwdb))")
    e4 = _mw_sv_call(f2b, mw_phi_q("errlt", "bt"))
    p5 = conj(phi_t, f2b, mw_phi_q("errlt", "bt"))

    # update branch
    upfact = "(at == true && up == q[k]) || (!(at == true) && up == negQ(q[k]))"
    svfacts = conj(mw_phi_q("errgt", "at"), mw_phi_q("errlt", "bt"),
                   "errgt == error(q[k], mwdb)", "errlt == invQ(error(q[k], mwdb))",
                   "at == true || bt == true")
    mid_a = conj(phi_t, defs, mw_pot("u - 1"), mw_acc("k - 1"),
                 "exact == evalQ(q[k], d)", "approx == evalQ(q[k], mwdb)", svfacts)
    r3 = conj(mid_a, upfact)
    u1 = node("assn", subst(f"({mid_a})", "u", "u + 1"), mid_a, "0")
    iif = node("if", mid_a, r3, "0", [
        node("weak", conj(mid_a, "at == true"), r3, "0",
             [node("assn", subst_lv(r3, "up", "q[k]"), r3, "0")]),
        node("weak", conj(mid_a, "!(at == true)"), r3, "0",
             [node("assn", subst_lv(r3, "up", "negQ(q[k])"), r3, "0")]),
    ])
    r2 = conj(phi_t, defs, mw_pot("u"), mw_acc("k - 1"), "exact == evalQ(q[k], d)")
    r4 = subst(f"({r2})", "mwdb", "mwStep(mwdb, up, eta, n)")
    m3 = node("weak", r3, r2, "0",
              [node("assn", r4, r2, "0")], export=["pre"])
    psi_k = f"abs(ans[k] - exact) <= (1/(eps/(2*c)))*log(1/({_IOTA_LAP})) + 1"
    rand_k = node("rand", r2, conj(psi_k, r2), _IOTA_LAP,
                  schema="lap_acc", site_index=_IOTA_LAP, frame=r2)
    upd_chain = seq_chain([u1, iif, m3, rand_k])
    upd_branch = node("weak", conj(p5, "at == true || bt == true"), inv,
                      _IOTA_LAP, [upd_chain], export=["post"])

    # no-update branch: the synthetic answer is already close
    noupd_assn = node("assn", subst_lv(inv, "ans[k]", "approx"), inv, "0")
    noupd = node("weak", conj(p5, "!(at == true || bt == true)"), inv,
                 _IOTA_LAP, [noupd_assn], export=["pre"])

    e5 = node("if", p5, inv, _IOTA_LAP, [upd_branch, noupd])
    inner = seq_chain([e1, e2, e3, e4, e5])
    else_branch = node("weak", conj(p3, "!(k >= c)"), inv, beta_iter, [inner])

    outer_if = node("if", p3, inv, beta_iter, [then_branch, else_branch])
    preserve = seq_chain([s1, s2, s3, s4, outer_if])

    decrease = _counter_decrease("k", conj(inv, "k < Qn", "Qn - k == eta2"), "eta2")

    loop = node("while", conj(inv, "Qn - k <= Q"), conj(inv, "k >= Qn"),
                f"Q * ({beta_iter})", [preserve, decrease],
                invariant=inv, variant="Qn - k", bound="Q",
                iter_index=beta_iter, eta="eta2")

    # initialization: parameters, counters, synthetic db, threshold setup
    frame_init = conj(defs, mw_pot("u"), "k == 0", "u == 0")
    svinit_call = node("call", conj("true", frame_init),
                       conj(phi_t, frame_init), _IOTA_SV,
                       [_svinit_body("eps2", _IOTA_SV, phi_t)],
                       proc="svinit", callee_pre="true", callee_post=phi_t,
                       frame=frame_init)
    init_stmts = [("eta", "alpha/(2*n)"), ("T", "2*alpha"),
                  ("c", "4*n*n*log(X)/(alpha*alpha)"), ("u", "0"), ("k", "0"),
                  ("ans[k]", "0"), ("mwdb", "mwInit(eta, X, n)"),
                  ("epsin", "eps/(4*c)"), ("tin", "T")]
    pre0, init_nodes = assign_chain(init_stmts, svinit_call.pre)
    post_init = node("weak", svinit_call.post, loop.post, loop.index, [loop])
    chain = seq_chain(init_nodes + [svinit_call, post_init])
    return _script(MWSV_LOGICALS, mwsv_theorem(), "ans", chain, export=["pre"])
