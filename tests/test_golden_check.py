"""Byte-identity of check verdicts.

Each digest is the SHA-256 of one shipped case's check outcome: the
`summary()` line, the (rule, path, status) of every obligation in
order, and the SMT-LIB text of every obligation left open. A change to
the kernel, the normal form or the prover that claims to keep verdicts
must keep these digests.

The check runs in a fresh interpreter at PYTHONHASHSEED=0, so no cache
filled by an earlier test can reach it, and again at PYTHONHASHSEED=1,
so no string-hash order can reach it either. A
second run checks the other two cases first in that interpreter: a
verdict must not depend on what the process checked before.

`EXPORT_GOLDEN` pins what `ubhl check --export` writes for each shipped
case: the name and bytes of every file, the exit code and the output.

`PROVER_GOLDEN` pins the prover's search: the printed antecedent and
consequent, the verdict and the node count of every
`Prover.prove_implication` call made while checking the three cases and
cross-checking rnm; the cross-check checks rnm again, so rnm's calls
are recorded twice. Its "verdicts" digest leaves the node counts out,
so a change that reorders the search but keeps every verdict moves only
the "nodes" digest and the node total. Both must hold at hash seed 0
and at hash seed 1. `CORPUS_PROVER_GOLDEN` pins the same record for
every call `checker.check` makes on the 22 generated corpus scripts and
on the 8 tampered scripts of the benchmark's check workload
(`bench/inputs.py`, loaded without writing bytecode).
"""

import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

import ubhl

GOLDEN = {
    "rnm": "4ce1312a587729f556bc1e4d89ebfedf0cbd53ac8a35db0f2a05e6d8a6a90a93",
    "sv": "284ff3277ec0f9afe43b23261e43e9223572d0753ec162532d252f1323ad68dc",
    "mwsv": "497571fa85800437340f42fa8e602ad5164f616ef27eecebfd4f531f5da64949",
}

EXPORT_GOLDEN = {
    "rnm": "b9793fb00c740cb3471a4077647bca33c091ab11b7b63a57cb3bc9b455edcfd2",
    "sv": "7ab9044864f3e6f5f073a4ad96f394bcd440e62204d09a597515f9b29604a6c7",
    "mwsv": "131510a1c2c1a353fe1c6d8e96e8192748310acb7a7c8b118595702abc2f5584",
}

_SCRIPT = """
import json, sys
from ubhl.assertions.smtlib import emit_smtlib
from ubhl.cases.registry import check_case

name = sys.argv[1]
for earlier in sys.argv[2:]:
    check_case(earlier)
result = check_case(name)
print(json.dumps({
    "summary": result.summary(),
    "obligations": [[ob.rule, list(ob.path), ob.status.value]
                    for ob in result.obligations],
    "smtlib": [emit_smtlib(ob, result.sorts) for ob in result.undischarged()],
}, sort_keys=True))
"""


def _readable(summary: str, rules) -> str:
    """What a digest stands for, in words: the summary line and the
    number of obligations each rule made."""
    counts = ", ".join(f"{rule} {n}" for rule, n in sorted(Counter(rules).items()))
    return f"{summary}; obligations per rule: {counts}"


def _explained(out: str) -> str:
    record = json.loads(out)
    return _readable(record["summary"], (rule for rule, _, _ in record["obligations"]))


def _outcome(name: str, *earlier: str, hash_seed: str = "0") -> str:
    src = str(Path(ubhl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _SCRIPT, name, *earlier], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_check_outcome_is_byte_identical(name):
    out = _outcome(name)
    json.loads(out)  # one well-formed record
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name], _explained(out)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_check_outcome_does_not_depend_on_earlier_checks(name):
    out = _outcome(name, *sorted(set(GOLDEN) - {name}))
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name], _explained(out)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_check_outcome_does_not_depend_on_the_hash_seed(name):
    """Fresh names and caches must not let string-hash order reach a
    verdict."""
    out = _outcome(name, hash_seed="1")
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[name], _explained(out)


def _export_digest(name: str, where: Path) -> tuple[str, str]:
    """The digest of one export and the check's stdout."""
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
    return h.hexdigest(), done.stdout


@pytest.mark.parametrize("name", sorted(EXPORT_GOLDEN))
def test_check_export_is_byte_identical(name, tmp_path):
    digest, stdout = _export_digest(name, tmp_path)
    lines = stdout.splitlines() or ["(no output)"]
    # each obligation prints as "  [mark] rule@path note"
    rules = [line.split("] ", 1)[1].split("@", 1)[0]
             for line in lines if line.startswith("  [")]
    assert digest == EXPORT_GOLDEN[name], _readable(lines[0], rules)


# Each record holds two digests over the calls in order: "nodes" hashes
# (antecedent, consequent, verdict, nodes) and "verdicts" the same
# without nodes, with the readable totals beside them.
PROVER_GOLDEN = {
    "nodes": "81e7b4d79ac0cfa4b21188030c39652376ad62b0aa1f089ae5fea32df505d1b3",
    "verdicts": "e36f9694f37d104d05c4b90079c5fcde329260248bf804532936796bb46145a3",
    "calls": 54, "proved": 54, "total_nodes": 981,
}

CORPUS_PROVER_GOLDEN = {
    "nodes": "a1000c4d150da6d15f7ab995329f3cbce400e12b4fdc0ebae955a60643bcc5fe",
    "verdicts": "0ecdecea5c833f8402ef05fbb31fc09ba3a1b03cb9c1e576f2972c81f21f76cc",
    "calls": 53, "proved": 51, "total_nodes": 584,
}

_RECORDER = """
import hashlib, json
from ubhl.assertions.prover import Prover
from ubhl.lang.ast import pretty_expr

calls = []
prove = Prover.prove_implication


def recorded(self, antecedent, consequent):
    verdict = prove(self, antecedent, consequent)
    calls.append((f"{pretty_expr(antecedent)}\\t{pretty_expr(consequent)}\\t{verdict}",
                  verdict, self.nodes))
    return verdict


def report():
    def digest(lines):
        return hashlib.sha256("".join(lines).encode()).hexdigest()
    print(json.dumps({
        "nodes": digest(f"{text}\\t{nodes}\\n" for text, _, nodes in calls),
        "verdicts": digest(f"{text}\\n" for text, _, _ in calls),
        "calls": len(calls),
        "proved": sum(verdict for _, verdict, _ in calls),
        "total_nodes": sum(nodes for _, _, nodes in calls),
    }))


Prover.prove_implication = recorded
"""

_PROVER_SCRIPT = _RECORDER + """
from ubhl.cases.registry import case_proof, case_source, check_case
from ubhl.embed.crosscheck import crosscheck
from ubhl.lang.parser import parse_program
from ubhl.lang.typecheck import typecheck

for name in ("rnm", "sv", "mwsv"):
    check_case(name)
program = parse_program(case_source("rnm"))
typecheck(program)
crosscheck(program, case_proof("rnm"))
report()
"""

_CORPUS_PROVER_SCRIPT = _RECORDER + """
import importlib.util, sys
from pathlib import Path
from ubhl.checker import ProofScript, check
from ubhl.lang.parser import parse_program
from ubhl.lang.typecheck import typecheck

root, tests = Path(sys.argv[1]), sys.argv[2]
sys.path.insert(0, tests)
sys.dont_write_bytecode = True
from corpus import generate_corpus

spec = importlib.util.spec_from_file_location("bench_inputs", root / "bench" / "inputs.py")
inputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(inputs)

for program, script, _ in generate_corpus():
    check(program, script)
for case, mutate in inputs.MUTANTS.values():
    base = root / "cases" / case
    program = parse_program((base / "program.ubhl").read_text())
    typecheck(program)
    doc = mutate(json.loads((base / "proof.json").read_text()))
    check(program, ProofScript.from_json(json.dumps(doc)))
report()
"""


@lru_cache(maxsize=None)
def _prover_record(script: str, hash_seed: str) -> dict:
    src = str(Path(ubhl.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", script,
                           str(Path(src).parent), str(Path(__file__).parent)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _totals(record: dict) -> str:
    return (f"{record['calls']} calls, {record['proved']} proved, "
            f"{record['total_nodes']} nodes")


def _assert_pinned(record: dict, golden: dict, keys: tuple[str, ...]) -> None:
    got = {k: record[k] for k in keys}
    assert got == {k: golden[k] for k in keys}, \
        f"{_totals(record)}; pinned {_totals(golden)}"


_VERDICTS = ("verdicts", "calls", "proved")
_NODES = ("nodes", "total_nodes")


def test_prover_verdicts_are_byte_identical():
    _assert_pinned(_prover_record(_PROVER_SCRIPT, "0"), PROVER_GOLDEN, _VERDICTS)


def test_prover_calls_are_byte_identical():
    _assert_pinned(_prover_record(_PROVER_SCRIPT, "0"), PROVER_GOLDEN, _NODES)


def test_prover_calls_do_not_depend_on_the_hash_seed():
    """The prover's caches are keyed by structure and iterated in
    insertion order, so string-hash order must not reach its search."""
    _assert_pinned(_prover_record(_PROVER_SCRIPT, "1"), PROVER_GOLDEN,
                   _VERDICTS + _NODES)


def test_corpus_and_mutant_prover_verdicts_are_byte_identical():
    _assert_pinned(_prover_record(_CORPUS_PROVER_SCRIPT, "0"), CORPUS_PROVER_GOLDEN,
                   _VERDICTS)


def test_corpus_and_mutant_prover_calls_are_byte_identical():
    _assert_pinned(_prover_record(_CORPUS_PROVER_SCRIPT, "0"), CORPUS_PROVER_GOLDEN,
                   _NODES)


def test_corpus_and_mutant_prover_calls_do_not_depend_on_the_hash_seed():
    _assert_pinned(_prover_record(_CORPUS_PROVER_SCRIPT, "1"), CORPUS_PROVER_GOLDEN,
                   _VERDICTS + _NODES)
