"""Materialize the shipped case files.

Layout per case: <name>/program.ubhl, <name>/proof.json,
<name>/params/default.json. The Python builders are the source of
truth; this writer keeps the on-disk copies in sync.
"""

from __future__ import annotations

import json
from pathlib import Path

from .registry import CASE_NAMES, DEFAULT_PARAMS, case_proof, case_source


def export_cases(target: Path) -> list[str]:
    written: list[str] = []
    for name in CASE_NAMES:
        case_dir = target / name
        (case_dir / "params").mkdir(parents=True, exist_ok=True)
        prog = case_dir / "program.ubhl"
        prog.write_text(case_source(name))
        written.append(str(prog))
        proof = case_dir / "proof.json"
        proof.write_text(case_proof(name).to_json() + "\n")
        written.append(str(proof))
        params = case_dir / "params" / "default.json"
        params.write_text(json.dumps(DEFAULT_PARAMS[name], indent=1, sort_keys=True) + "\n")
        written.append(str(params))
    return written
