"""Byte-identity of validation reports.

Each digest is the SHA-256 of `validate_case(...).to_json()` at a fixed
seed and a small trial count, recorded from the tree-walking trial
interpreter. Any change to the execution core must keep RNG draw order,
evaluation order and failure classification, so every report, at every
`jobs`, stays byte-identical.
"""

import hashlib

import pytest

from ubhl.cases.registry import validate_case

# (case, adversary, trials, seed, extra checks, loop cap) -> digest
GOLDEN = [
    (("rnm", None, 60, 3, None, 100000),
     "038997b828ddf4681e1ed383e59d362b0c6e1dc4fd3d1f07ecde7d13437e0bf9"),
    # a cap of 3 aborts every trial: all 20 count as failures
    (("rnm", None, 20, 4, None, 3),
     "293ff4fc5de849a39b0b131eb0b3dbd8313f40a685f59aca7847e5fa5c4b2ea3"),
    (("sv", "fixed", 40, 3, {"first_true": "res[1] == true"}, 100000),
     "ab7fc206d139d172fa428f31513aa4d8c63b88c915b3bd5e454f5dbe144bcc26"),
    (("sv", "random", 40, 3, None, 100000),
     "1b96ed9a60b27387f6b3881a4a0fa3809cd5c2d6725545cbeaa6e9ef1bb23c3e"),
    (("sv", "adaptive", 40, 3, None, 100000),
     "638dabd898e292bd8ecf2e5e7da4cf9ef2f10d257ab5f394433be6dc32547d33"),
    (("mwsv", "fixed", 30, 3, None, 100000),
     "1393c15ea944ed8f9d1cfce8ff121aa0c60565003ad493748069779a1f05c9db"),
    (("mwsv", "random", 30, 3, None, 100000),
     "f1991adc696d4698872e6b0b28be7f5e344ee1e028cb2a5b907e27f1ea60a9a1"),
    (("mwsv", "adaptive", 30, 3, {"none_answered": "u == 0"}, 100000),
     "fe4678928c1a8c606f6da2ad52bbe882dc730c0fed7d87c2b8a99b11e982b394"),
]


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("run,digest", GOLDEN,
                         ids=[f"{r[0]}-{r[1]}-cap{r[5]}" for r, _ in GOLDEN])
def test_validate_report_is_byte_identical(run, digest, jobs):
    name, adversary, trials, seed, extras, loop_cap = run
    report = validate_case(name, trials=trials, seed=seed, adversary=adversary,
                           extra_checks=extras, loop_cap=loop_cap, jobs=jobs)
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == digest
