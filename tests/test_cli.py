import json
import subprocess
import sys
from pathlib import Path

import pytest

from ubhl import cli
from ubhl.lang.ast import pretty_command
from ubhl.lang.parser import parse_program
from ubhl.lang.typecheck import typecheck
from ubhl.semantics import TrialAborted, UbhlRuntimeError

REPO = Path(__file__).resolve().parent.parent
CASES = REPO / "cases"


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "ubhl.cli", *args],
                          capture_output=True, text=True, cwd=cwd or REPO,
                          timeout=560)


def test_check_rnm_exit_zero():
    out = run_cli("check", str(CASES / "rnm" / "program.ubhl"),
                  str(CASES / "rnm" / "proof.json"), "--quiet")
    assert out.returncode == 0, out.stdout + out.stderr
    assert "ACCEPTED" in out.stdout


def test_check_mwsv_exit_two():
    out = run_cli("check", str(CASES / "mwsv" / "program.ubhl"),
                  str(CASES / "mwsv" / "proof.json"), "--quiet")
    assert out.returncode == 2, out.stdout + out.stderr


def test_check_corrupted_index_exit_one(tmp_path):
    doc = json.loads((CASES / "rnm" / "proof.json").read_text())

    def bad_seq(node):
        if node.get("rule") == "seq":
            node["index"] = "beta/3"
            return True
        return any(bad_seq(c) for c in node.get("children", []))

    bad_seq(doc["root"])
    bad = tmp_path / "proof.json"
    bad.write_text(json.dumps(doc))
    out = run_cli("check", str(CASES / "rnm" / "program.ubhl"), str(bad), "--quiet")
    assert out.returncode == 1
    assert "seq" in out.stdout


def test_run_is_seeded_and_prints_memory(tmp_path):
    prog = tmp_path / "p.ubhl"
    prog.write_text("var x : int;\nproc main(w) { x <$ unifint(0, 9); } return x\n")
    a = run_cli("run", str(prog), "--seed", "5")
    b = run_cli("run", str(prog), "--seed", "5")
    assert a.returncode == 0 and a.stdout == b.stdout
    assert json.loads(a.stdout)["x"] == json.loads(a.stdout)["res"]


def test_exact_subcommand(tmp_path):
    prog = tmp_path / "p.ubhl"
    prog.write_text("var x : bool;\nproc main(w) { x <$ bern(1/2); } return x\n")
    out = run_cli("exact", str(prog))
    assert out.returncode == 0
    assert "support: 2 memories" in out.stdout


def test_runtime_failure_reported_alike_by_run_and_exact():
    """sv's default memory has eps = 0, so its first Laplace site has no
    positive scale: `run` names the failure in one line, `exact` shows
    the mass on the error memory."""
    program = str(CASES / "sv" / "program.ubhl")
    out = run_cli("run", program, "--seed", "3")
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == "error: lap scale must be positive\n"
    out = run_cli("exact", program)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "support: 1 memories, residual 0.000e+00\n  1  error\n"


@pytest.mark.parametrize("failure", [UbhlRuntimeError("lap scale must be positive"),
                                     TrialAborted("loop budget exceeded")])
def test_run_failures_exit_one(failure, monkeypatch, capsys):
    """The CLI names the run failures without importing their modules, so
    check that each is still caught, with its message and exit 1."""
    def fail(args):
        raise failure
    monkeypatch.setattr(cli, "cmd_run", fail)
    assert cli.main(["run", "p.ubhl", "--seed", "1"]) == 1
    assert capsys.readouterr().err == f"error: {failure}\n"


@pytest.mark.parametrize("case", ["sv", "mwsv"])
def test_validate_rejects_a_universe_unlike_the_counts(case, tmp_path, capsys):
    """The adversaries ask queries over the universe, the program
    evaluates them on the counts: a mismatch is refused up front."""
    params = tmp_path / "p.json"
    params.write_text('{"universe": 4}')
    argv = ["validate", case, "--params", str(params), "--trials", "5", "--seed", "1",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == f"error: {case}: universe 4 but 8 database counts\n"
    assert not list(tmp_path.glob("validate-*.json"))


def test_validate_rejects_query_scores_unlike_the_size(tmp_path, capsys):
    """Every candidate reads its score from qscore: a list of another
    length would leave some at the array default."""
    params = tmp_path / "p.json"
    params.write_text('{"qscore": [1, 2]}')
    argv = ["validate", "rnm", "--params", str(params), "--trials", "5", "--seed", "1",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: rnm: size 10 but 2 query scores\n"
    assert not list(tmp_path.glob("validate-*.json"))


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_validate_rejects_a_trial_count_below_one(trials, tmp_path, capsys):
    argv = ["validate", "rnm", "--trials", trials, "--seed", "1", "--out", str(tmp_path)]
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == "error: trials must be positive\n"
    assert not list(tmp_path.glob("validate-*.json"))


def test_validate_writes_reports(tmp_path):
    out = run_cli("validate", "sv", "--Q", "5", "--trials", "40", "--seed", "7",
                  "--adversary", "fixed", "--out", str(tmp_path))
    assert out.returncode == 0, out.stdout + out.stderr
    report_path = tmp_path / "validate-sv-fixed-seed7.json"
    payload = json.loads(report_path.read_text())
    assert payload["verdict"] is True
    assert payload["estimate"]["trials"] == 40
    # identical invocation produces byte-identical artifacts
    first = report_path.read_bytes()
    out2 = run_cli("validate", "sv", "--Q", "5", "--trials", "40", "--seed", "7",
                   "--adversary", "fixed", "--out", str(tmp_path))
    assert out2.returncode == 0
    assert report_path.read_bytes() == first


@pytest.mark.parametrize("case, flag, value, needs", [
    ("sv", "--beta", "1", "beta < 1"),
    ("mwsv", "--eps", "-1", "0 < eps"),
    # alpha is solved from eps and beta, so these are named before solving
    ("mwsv", "--eps", "0", "0 < eps"),
    ("mwsv", "--beta", "0", "0 < beta"),
    ("mwsv", "--beta", "-0.1", "0 < beta"),
])
def test_validate_rejects_parameters_outside_the_theorem(case, flag, value, needs, tmp_path):
    out = run_cli("validate", case, flag, value, "--trials", "20", "--seed", "1",
                  "--out", str(tmp_path / "out"))
    assert out.returncode == 1, out.stdout + out.stderr
    assert out.stderr == f"error: {case}: the theorem needs {needs}\n"
    assert "VIOLATION" not in out.stdout
    assert not (tmp_path / "out").exists()


def test_obligations_export(tmp_path):
    out = run_cli("obligations", str(CASES / "mwsv" / "program.ubhl"),
                  str(CASES / "mwsv" / "proof.json"),
                  "--export", str(tmp_path), "--open-only")
    assert out.returncode == 2
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    exported = [m for m in manifest if m["file"]]
    assert len(exported) >= 4
    text = (tmp_path / exported[0]["file"]).read_text()
    assert text.startswith("(set-logic ALL)")
    assert "(check-sat)" in text


@pytest.fixture(scope="module")
def rnm_embedded(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("embed")
    out = run_cli("embed", str(CASES / "rnm" / "program.ubhl"),
                  str(CASES / "rnm" / "proof.json"), "--out", str(out_dir))
    assert out.returncode == 0, out.stdout + out.stderr
    return out_dir


def test_embed_subcommand(rnm_embedded):
    inst = (rnm_embedded / "instrumented.ubhl").read_text()
    assert "havoc noisy[r];" in inst
    assert "assume" in inst
    manifest = json.loads((rnm_embedded / "wp-manifest.json").read_text())
    assert manifest["consistent"] is True


def test_instrumented_program_reads_back(rnm_embedded):
    """The instrumented rnm body, declared as a program of its own (the
    logicals and the ghost become vars), parses, typechecks and prints
    back byte-identically."""
    inst = (rnm_embedded / "instrumented.ubhl").read_text()
    manifest = json.loads((rnm_embedded / "wp-manifest.json").read_text())
    logicals = json.loads((CASES / "rnm" / "proof.json").read_text())["logicals"]
    source = (CASES / "rnm" / "program.ubhl").read_text()
    decls = source[:source.index("proc main")]
    decls += "".join(f"var {name} : {t};\n" for name, t in logicals.items())
    decls += f"var {manifest['ghost']} : real;\n"
    body = "\n".join("  " + line for line in inst.splitlines())
    program = parse_program(f"{decls}\nproc main(w) {{\n{body}\n}} return rstar\n")
    typecheck(program)
    assert pretty_command(program.procs["main"].body) + "\n" == inst


def test_export_declares_res_with_the_kernel_sort(tmp_path):
    """`res` is `y / 2`, a real, so the open weakening `res > 0 ==>
    res >= 1` is false at res = 1/2; the exported claim must keep it
    over the reals, not declare `res` an Int."""
    prog = tmp_path / "p.ubhl"
    prog.write_text("var y : int;\nproc main(u) { y <- 3; } return y / 2\n")
    assn = {"rule": "assn", "pre": "true", "post": "y / 2 > 0", "index": "0"}
    call = {"rule": "call", "pre": "true", "post": "res > 0", "index": "0",
            "proc": "main", "callee_pre": "true", "callee_post": "res > 0",
            "children": [assn]}
    proof = tmp_path / "proof.json"
    proof.write_text(json.dumps({
        "logicals": {}, "entry": {"proc": "main", "arg": "0", "result": "res"},
        "root": {"rule": "weak", "pre": "true", "post": "res >= 1", "index": "0",
                 "children": [call]}}))
    out = run_cli("check", str(prog), str(proof), "--export", str(tmp_path / "out"))
    assert out.returncode == 2, out.stdout + out.stderr
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    weak, = [m for m in manifest if m["note"] == "postcondition weakening"]
    text = (tmp_path / "out" / weak["file"]).read_text()
    assert "(declare-const v_res Real)" in text


def _cli_args(cmd: str, program: Path, proof: Path, entry: str, out: Path) -> list[str]:
    if cmd == "run":
        return [cmd, str(program), "--entry", entry, "--seed", "1"]
    if cmd == "exact":
        return [cmd, str(program), "--entry", entry]
    flag = {"obligations": ["--export", str(out)], "embed": ["--out", str(out)]}
    return [cmd, str(program), str(proof), *flag.get(cmd, [])]


@pytest.mark.parametrize("fault", ["bad program", "missing file", "unknown entry"])
@pytest.mark.parametrize("cmd", ["check", "obligations", "run", "exact", "embed"])
def test_bad_input_exits_one_without_traceback(cmd, fault, tmp_path):
    """A program that does not parse, a file that is not there and an
    entry procedure the program lacks end the command with exit 1 and a
    message, never a traceback; the first two as one `error:` line."""
    program, proof, entry = CASES / "rnm" / "program.ubhl", CASES / "rnm" / "proof.json", "main"
    if fault == "bad program":
        program = tmp_path / "bad.ubhl"
        program.write_text("var x : int\nproc main(w) { x <- 1; } return x\n")
    elif fault == "missing file":
        program = tmp_path / "missing.ubhl"
    else:
        entry = "nope"
        doc = json.loads(proof.read_text())
        doc["entry"]["proc"] = entry
        proof = tmp_path / "proof.json"
        proof.write_text(json.dumps(doc))
    out = run_cli(*_cli_args(cmd, program, proof, entry, tmp_path / "out"))
    assert out.returncode == 1, out.stdout + out.stderr
    assert "Traceback" not in out.stderr
    if fault != "unknown entry":
        assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1


def test_recursive_program_is_one_error_line(tmp_path):
    """typecheck rejects recursion, so `check` reports it before the
    kernel's write sets would walk the call cycle."""
    from test_typecheck import RECURSIVE

    program, proof = tmp_path / "rec.ubhl", tmp_path / "rec.json"
    program.write_text(RECURSIVE)
    skip = {"rule": "skip", "pre": "true", "post": "true", "index": "0"}
    inner = {**skip, "rule": "call", "proc": "f", "children": [skip]}
    outer = {**skip, "rule": "call", "proc": "main", "children": [inner]}
    proof.write_text(json.dumps({"logicals": {}, "root": outer,
                                 "entry": {"proc": "main", "arg": "0", "result": "res"}}))
    out = run_cli("check", str(program), str(proof))
    assert (out.returncode, out.stdout) == (1, "")
    assert out.stderr == "error: recursive procedure: f -> f\n"


def test_set_reads_each_sort(tmp_path):
    """`--set` values are read by the variable's declared sort."""
    out = run_cli("exact", str(CASES / "rnm" / "program.ubhl"), "--set", "R=[0,1]",
                  "--set", "eps=1", "--truncation-radius", "5")
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith("support: ")
    prog = tmp_path / "p.ubhl"
    prog.write_text("var Qn : int;\nvar r : real;\nvar b : bool;\nvar a : real[];\n"
                    "proc main(w) { skip; } return Qn\n")
    out = run_cli("run", str(prog), "--seed", "1", "--set", "Qn=3", "--set", "r=1/4",
                  "--set", "b=true", "--set", "a=[0.5, 0, 2]")
    assert out.returncode == 0, out.stderr
    mem = json.loads(out.stdout)
    assert (mem["Qn"], mem["res"], mem["r"], mem["b"]) == (3, 3, 0.25, True)
    assert type(mem["Qn"]) is int  # an int variable holds an int, printed 3, not 3.0
    assert mem["a"] == {"0": 0.5, "2": 2.0}


@pytest.mark.parametrize("pair,message", [
    ("nope=1", "error: --set nope: not a variable of the program\n"),
    ("qq=1", "error: --set qq: '1' is not a value of sort query\n"),
    ("Qn=1.5", "error: --set Qn: '1.5' is not a value of sort int\n"),
])
def test_set_rejects_unknown_names_and_unwritable_sorts(pair, message):
    out = run_cli("run", str(CASES / "sv" / "program.ubhl"), "--seed", "1", "--set", pair)
    assert (out.returncode, out.stderr) == (1, message)
