"""Each entry path loads only the layers it runs: checking a proof loads
neither the semantics nor the case builders nor any process machinery,
exact enumeration loads no trial runner, case builder, checker or
process machinery, and a one-process validation loads no process pool.
Each path runs in a fresh interpreter, so nothing an earlier test
imported counts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
RNM = REPO / "cases" / "rnm"
POOL = ("concurrent.futures", "multiprocessing")
NOT_FOR_CHECKING = ("ubhl.semantics.trial", "ubhl.semantics.exact", "ubhl.semantics.evalexpr",
                    "ubhl.dp", "ubhl.cases", "ubhl.embed") + POOL

KERNEL_CHECK = f"""
from pathlib import Path
from ubhl import assertions, checker, lang
program = lang.parse_program(Path({str(RNM / "program.ubhl")!r}).read_text())
lang.typecheck(program)
script = checker.ProofScript.from_json(Path({str(RNM / "proof.json")!r}).read_text())
assert checker.check(program, script).fully_proved
"""

CLI_CHECK = f"""
from ubhl.cli import main
assert main(["check", {str(RNM / "program.ubhl")!r}, {str(RNM / "proof.json")!r},
             "--quiet"]) == 0
"""

CLI_EXACT = f"""
from ubhl.cli import main
assert main(["exact", {str(RNM / "program.ubhl")!r}]) == 0
"""
NOT_FOR_EXACT = ("ubhl.cases", "ubhl.embed", "ubhl.checker", "ubhl.semantics.trial") + POOL

VALIDATE = """
from ubhl.cases import validate_case
assert validate_case("sv", trials=20, seed=1, adversary="fixed", jobs=1).verdict
"""


def loaded_after(code: str, names: tuple[str, ...]) -> list[str]:
    """Which of `names` are in `sys.modules` once `code` has run in a
    fresh interpreter."""
    probe = f"{code}\nimport json, sys\nprint(json.dumps([n for n in {names!r} if n in sys.modules]))\n"
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         cwd=REPO, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("code", [KERNEL_CHECK, CLI_CHECK], ids=["kernel", "cli"])
def test_checking_loads_no_semantics(code):
    assert loaded_after(code, NOT_FOR_CHECKING) == []


def test_exact_loads_neither_trials_nor_cases_nor_checker():
    """Exact enumeration shares the trial compiler's command layer, not
    the trial runner."""
    assert loaded_after(CLI_EXACT, NOT_FOR_EXACT) == []


def test_one_process_validation_loads_no_pool():
    assert loaded_after(VALIDATE, POOL) == []
