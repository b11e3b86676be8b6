"""Byte-identity of check verdicts.

Each digest is the SHA-256 of one shipped case's check outcome: the
`summary()` line, the (rule, path, status) of every obligation in
order, and the SMT-LIB text of every obligation left open. A change to
the kernel, the normal form or the prover that claims to keep verdicts
must keep these digests.

The check runs in a fresh interpreter at PYTHONHASHSEED=0, so no cache
filled by an earlier test and no string-hash order can reach it. A
second run checks the other two cases first in that interpreter: a
verdict must not depend on what the process checked before.

`EXPORT_GOLDEN` pins what `ubhl check --export` writes for each shipped
case: the name and bytes of every file, the exit code and the output.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ubhl

GOLDEN = {
    "rnm": "412ee12ff593b8a64a23ee04044136e6d6599bd364e49e2f028981a89c9a95e6",
    "sv": "0bc80bea9030aa83ae7809a16a7d997a0867f2da1f1846be36d4587fb49da21e",
    "mwsv": "37ee784e4b46de749d906a40694f9e9b140bc07dd8531cd0185ac3e7cc2ea8b7",
}

EXPORT_GOLDEN = {
    "rnm": "816b20c99846415934243337e9b4a4dacfc4eb106322bc2b518b96d34d61a2b3",
    "sv": "e69d968a186dda4f6639869d699121a8e569f8c8caf5a44f7ae8e3bd1cb35c35",
    "mwsv": "c4108219759ae82bc78a511dcbffd26c7149f96838ee69dbc3bb2de7856e1d53",
}

_SCRIPT = """
import json, sys
from ubhl.assertions.smtlib import emit_smtlib
from ubhl.cases.registry import case_proof, case_source, check_case
from ubhl.lang.ast import IntT
from ubhl.lang.parser import parse_program
from ubhl.lang.typecheck import assertion_env

name = sys.argv[1]
for earlier in sys.argv[2:]:
    check_case(earlier)
result = check_case(name)
env = assertion_env(parse_program(case_source(name)), case_proof(name).logicals)
for extra in ("res", "eta", "eta2"):
    env.setdefault(extra, IntT())
print(json.dumps({
    "summary": result.summary(),
    "obligations": [[ob.rule, list(ob.path), ob.status.value]
                    for ob in result.obligations],
    "smtlib": [emit_smtlib(ob, env) for ob in result.undischarged()],
}, sort_keys=True))
"""


def _outcome(name: str, *earlier: str) -> str:
    src = str(Path(ubhl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _SCRIPT, name, *earlier], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_check_outcome_is_byte_identical(name):
    out = _outcome(name)
    json.loads(out)  # one well-formed record
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_check_outcome_does_not_depend_on_earlier_checks(name):
    out = _outcome(name, *sorted(set(GOLDEN) - {name}))
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name]


def _export_digest(name: str, where: Path) -> str:
    src = str(Path(ubhl.__file__).resolve().parents[1])
    case = Path(src).parent / "cases" / name
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-m", "ubhl.cli", "check",
                           str(case / "program.ubhl"), str(case / "proof.json"),
                           "--export", "out"], cwd=where, env=env,
                          capture_output=True, text=True, timeout=600)
    h = hashlib.sha256(f"{done.returncode}\n{done.stdout}\0{done.stderr}\0".encode())
    for f in sorted((where / "out").iterdir()):
        h.update(f.name.encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(EXPORT_GOLDEN))
def test_check_export_is_byte_identical(name, tmp_path):
    assert _export_digest(name, tmp_path) == EXPORT_GOLDEN[name]
