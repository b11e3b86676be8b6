"""Shipped case studies: checking, building, validating, file sync."""

import json
from pathlib import Path

import pytest

from ubhl import cli
from ubhl.assertions.normform import assertions_equal
from ubhl.assertions.prover import neg
from ubhl.cases.registry import (
    CASE_NAMES, DEFAULT_PARAMS, PreconditionViolated, build_case, case_proof,
    case_source, check_case, rnm_analytic_bound, validate_case,
)
from ubhl.checker.index import index_equal
from ubhl.checker.kernel import ZERO, Checker, check
from ubhl.checker.proof import ProofScript
from ubhl.lang.ast import free_vars, modified_vars
from ubhl.lang.parser import parse_expr, parse_program
from ubhl.lang.typecheck import typecheck

REPO = Path(__file__).resolve().parent.parent


def test_check_case_rnm_fully_discharged():
    res = check_case("rnm")
    assert res.accepted and res.fully_proved


def test_check_case_sv_fully_discharged():
    res = check_case("sv")
    assert res.accepted and res.fully_proved


def test_check_case_mwsv_accepted_with_exports():
    res = check_case("mwsv")
    assert res.accepted
    open_obs = res.undischarged()
    assert open_obs, "the synthetic-db case is expected to export arithmetic"
    assert all("export" in ob.note for ob in open_obs)


def test_build_rnm_bad_event_margin():
    import math

    case = build_case("rnm")
    env = dict(case.logical_env)
    # bad event references the 4/eps ln(|R0|/beta) margin
    from ubhl.lang.ast import pretty_expr
    text = pretty_expr(case.bad_event)
    assert "4 / eps * log(size(R0) / beta)" in text
    assert float(4 * math.log(10 / 0.2)) == pytest.approx(15.648, abs=1e-3)


def test_build_sv_margin():
    case = build_case("sv")
    from ubhl.lang.ast import pretty_expr
    assert "6 / eps * log((Q + 1) / beta)" in pretty_expr(case.bad_event)


def test_mwsv_alpha_feasibility_enforced():
    case = build_case("mwsv")
    assert case.params["alpha"] == pytest.approx(9.30, abs=0.05)
    with pytest.raises(PreconditionViolated):
        build_case("mwsv", {"alpha": 1.0})
    with pytest.raises(PreconditionViolated):
        build_case("mwsv", {"counts": [1] * 8})  # does not sum to n


@pytest.mark.parametrize("name", CASE_NAMES)
def test_case_validates_its_proofs_theorem(name):
    """Validation estimates Pr[not post] of the proof's root judgment
    against that judgment's index."""
    case, root = build_case(name), case_proof(name).root
    assert case.bad_event == neg(parse_expr(root.post))
    assert case.index == parse_expr(root.index)


@pytest.mark.parametrize("params, needs", [
    ({"beta": 1.5}, "beta < 1"),
    ({"Q": 0}, "1 <= Q"),
    ({"eps": -1}, "0 < eps"),
])
def test_mwsv_rejects_parameters_outside_its_theorem(params, needs):
    with pytest.raises(PreconditionViolated, match=f"^mwsv: the theorem needs {needs}$"):
        build_case("mwsv", params)


def test_validation_smoke_all_cases():
    r = validate_case("rnm", trials=120, seed=5)
    assert r.verdict and r.estimate.failures == 0
    r = validate_case("sv", trials=60, seed=5, adversary="random")
    assert r.verdict
    r = validate_case("mwsv", trials=30, seed=5, adversary="adaptive")
    assert r.verdict
    assert r.extras["update_budget_violations"] == 0


@pytest.mark.parametrize("trials", [0, -3])
def test_validation_refuses_a_count_below_one(trials):
    with pytest.raises(ValueError, match="^trials must be positive$"):
        validate_case("rnm", trials=trials, seed=1)


def test_validation_jobs_parity():
    a = validate_case("sv", trials=48, seed=11, adversary="fixed", jobs=1)
    b = validate_case("sv", trials=48, seed=11, adversary="fixed", jobs=3)
    assert a.estimate.failures == b.estimate.failures
    assert a.extras == b.extras


def test_estimate_report_schema():
    import json as _json

    r = validate_case("rnm", trials=20, seed=3)
    payload = _json.loads(r.estimate.to_json())
    assert set(payload) == {"trials", "failures", "rate", "upper95", "seed", "params"}


def test_validation_is_deterministic():
    a = validate_case("sv", trials=40, seed=9, adversary="adaptive")
    b = validate_case("sv", trials=40, seed=9, adversary="adaptive")
    assert a.to_json() == b.to_json()


def test_rnm_analytic_bound_value():
    # ten candidates, eps 1, beta 0.2: the summed per-candidate tail,
    # below the headline index
    assert rnm_analytic_bound() == pytest.approx(0.138298, abs=1e-5)


def test_unknown_adversary_rejected():
    with pytest.raises(KeyError):
        validate_case("sv", trials=5, seed=1, adversary="nope")


def test_shipped_files_in_sync(tmp_path):
    assert cli.main(["cases", "--dir", str(tmp_path)]) == 0
    for name in ("rnm", "sv", "mwsv"):
        shipped = REPO / "cases" / name
        fresh = tmp_path / name
        assert (shipped / "program.ubhl").read_text() == \
            (fresh / "program.ubhl").read_text()
        assert (shipped / "proof.json").read_bytes() == \
            (fresh / "proof.json").read_bytes()
        assert json.loads((shipped / "params" / "default.json").read_text()) == \
            DEFAULT_PARAMS[name]


def _size(node) -> int:
    return 1 + sum(_size(c) for c in node.children)


@pytest.mark.parametrize("name", CASE_NAMES)
def test_shipped_derivations_state_no_derivable_steps(name, monkeypatch):
    """A shipped derivation restates nothing the rules give in one step:
    no `weak` node has its child's pre, post and index, and no subtree
    of more than one node, nor a `rand` node, proves {P} c {P} at index
    0 for a c that writes no variable of P, which one `frame` node
    proves."""
    visited = []
    check_tree = Checker.check_tree

    def recording(self, node, command, path=()):
        visited.append((node, command, path))
        return check_tree(self, node, command, path)

    monkeypatch.setattr(Checker, "check_tree", recording)
    program = parse_program((REPO / "cases" / name / "program.ubhl").read_text())
    typecheck(program)
    script = ProofScript.from_json((REPO / "cases" / name / "proof.json").read_text())
    assert check(program, script).accepted

    def judgment(node):
        return parse_expr(node.pre), parse_expr(node.post), parse_expr(node.index)

    findings, framable = [], []
    for node, command, path in visited:
        where = ".".join(path) or "root"
        pre, post, index = judgment(node)
        if node.rule == "weak":
            cpre, cpost, cindex = judgment(node.children[0])
            if (assertions_equal(pre, cpre) and assertions_equal(post, cpost)
                    and index_equal(index, cindex)):
                findings.append(f"weak@{where} restates its child")
        if ((_size(node) > 1 or node.rule == "rand")
                and not any(path[:len(p)] == p for p in framable)
                and assertions_equal(pre, post) and index_equal(index, ZERO)
                and not modified_vars(command, program) & free_vars(pre)):
            framable.append(path)
            findings.append(f"{node.rule}@{where} ({_size(node)} nodes) is one frame node")
    assert not findings, "\n".join(findings)


def test_proof_files_round_trip():
    for name in ("rnm", "sv", "mwsv"):
        script = case_proof(name)
        again = ProofScript.from_json(script.to_json())
        assert again.to_json() == script.to_json()
        program = parse_program(case_source(name))
        typecheck(program)
