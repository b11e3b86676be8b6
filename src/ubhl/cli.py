"""Batch command-line front end.

Subcommands: check, run, exact, embed, validate, obligations, cases.
Exit codes: 0 fully verified, 1 rejection or error, 2 accepted with
obligations awaiting an external solver.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import TYPE_CHECKING

from . import CASE_NAMES
from .lang.parser import UbhlSyntaxError, parse_program
from .lang.typecheck import UbhlTypeError, typecheck

if TYPE_CHECKING:
    from .checker.kernel import CheckResult
    from .checker.proof import ProofScript

# Each command imports the layers it runs inside its cmd_* function, so
# `ubhl check` never loads the trial runner and `ubhl run` never loads
# the kernel.


def _load_program(path: str):
    text = Path(path).read_text()
    program = parse_program(text)
    typecheck(program)
    return program


def _load_proof(path: str) -> ProofScript:
    from .checker.proof import ProofScript

    return ProofScript.from_json(Path(path).read_text())


def _out_dir(args) -> Path:
    out = args.out or os.environ.get("UBHL_OUT", "ubhl-results")
    p = Path(out)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _report_check(result: CheckResult, verbose: bool = True) -> int:
    print(result.summary())
    if verbose:
        for ob in result.obligations:
            mark = {"builtin_proved": "+", "exported": ">", "unknown": "?"}[ob.status.value]
            print(f"  [{mark}] {ob.name()} {ob.note}")
    if not result.accepted:
        return 1
    return 0 if result.fully_proved else 2


def cmd_check(args) -> int:
    from .checker.kernel import check

    program = _load_program(args.program)
    script = _load_proof(args.proof)
    result = check(program, script)
    code = _report_check(result, verbose=not args.quiet)
    if args.export and result.accepted:
        n = _export_obligations(script, result, Path(args.export))
        print(f"exported {n} obligation(s) to {args.export}")
    return code


def _export_obligations(script, result: CheckResult, out: Path,
                        only_open: bool = False) -> int:
    from .assertions.obligations import ObStatus
    from .assertions.smtlib import Inexpressible, emit_smtlib

    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    count = 0
    for i, ob in enumerate(result.obligations):
        if only_open and ob.status == ObStatus.BUILTIN_PROVED:
            continue
        name = f"{script.entry['proc']}__{ob.name().replace('@', '_').replace('.', '-')}_{i}.smt2"
        try:
            text = emit_smtlib(ob, result.sorts)
        except Inexpressible as exc:
            manifest.append({"obligation": ob.name(), "status": ob.status.value,
                             "file": None, "note": f"inexpressible: {exc}"})
            continue
        (out / name).write_text(text)
        if ob.status == ObStatus.UNKNOWN:
            ob.status = ObStatus.EXPORTED
        manifest.append({"obligation": ob.name(), "status": ob.status.value,
                         "file": name, "note": ob.note})
        count += 1
    (out / "manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    return count


def cmd_obligations(args) -> int:
    from .checker.kernel import check

    program = _load_program(args.program)
    script = _load_proof(args.proof)
    result = check(program, script)
    if not result.accepted:
        print(result.summary())
        return 1
    n = _export_obligations(script, result, Path(args.export),
                            only_open=args.open_only)
    print(f"exported {n} obligation(s) to {args.export}")
    return 0 if result.fully_proved else 2


def cmd_run(args) -> int:
    from .semantics.trial import run_trial

    program = _load_program(args.program)
    overrides = _parse_overrides(program, args.set or [])
    mem = run_trial(program, args.entry, Fraction(args.arg), {},
                    seed=args.seed, overrides=overrides)
    out = {k: _pretty_value(v) for k, v in sorted(mem.to_dict().items())}
    print(json.dumps(out, indent=1, sort_keys=True))
    return 0


def cmd_exact(args) -> int:
    from .semantics.exact import Budget, denote_exact, initial_memory

    program = _load_program(args.program)
    overrides = _parse_overrides(program, args.set or [])
    proc = program.procs[args.entry]
    mem = initial_memory(program, overrides)
    budget = Budget(max_loop_iters=args.loop_budget,
                    laplace_radius=args.truncation_radius)
    dist = denote_exact(program, proc.body, mem, budget)
    rows = sorted(dist.support.items(), key=lambda kv: -kv[1])
    print(f"support: {len(rows)} memories, residual {float(dist.residual):.3e}")
    for mem_i, mass in rows[:args.limit]:
        vals = {k: _pretty_value(v) for k, v in mem_i.to_dict().items()}
        shown = "error" if mem_i.error else json.dumps(vals, sort_keys=True)
        print(f"  {float(mass):.6g}  {shown}")
    return 0


def cmd_embed(args) -> int:
    from .embed.crosscheck import crosscheck
    from .lang.ast import pretty_command

    program = _load_program(args.program)
    script = _load_proof(args.proof)
    report = crosscheck(program, script)
    if not report.checker_accepted:
        print("derivation rejected; nothing to embed")
        return 1
    out = _out_dir(args)
    inst_path = out / "instrumented.ubhl"
    inst_path.write_text(pretty_command(report.instrumented) + "\n")
    manifest = {
        "ghost": report.triple.ghost,
        "wp_obligations": report.wp_total,
        "wp_proved": report.wp_proved,
        "consistent": report.consistent,
        "obligations": [
            {"name": ob.name(), "status": ob.status.value, "note": ob.note}
            for ob in report.obligations
        ],
    }
    (out / "wp-manifest.json").write_text(json.dumps(manifest, indent=1, sort_keys=True))
    print(f"instrumented program: {inst_path}")
    print(f"wp obligations: {report.wp_proved}/{report.wp_total} proved;"
          f" pipelines consistent: {report.consistent}")
    return 0 if report.wp_all_proved else 2


def cmd_validate(args) -> int:
    from .cases.registry import DEFAULT_PARAMS, build_case, validate_case

    params = dict(DEFAULT_PARAMS[args.case])
    if args.params:
        params.update(json.loads(Path(args.params).read_text()))
    for key, flag in (("Q", args.Q), ("eps", args.eps), ("beta", args.beta)):
        if flag is not None:
            params[key] = flag
    menu = build_case(args.case, params).adversary_menu
    adversaries = [args.adversary] if args.adversary else list(menu) or [None]
    out = _out_dir(args)
    code = 0
    for adv_name in adversaries:
        report = validate_case(args.case, params, trials=args.trials,
                               seed=args.seed, adversary=adv_name,
                               jobs=args.jobs)
        tag = adv_name or "none"
        path = out / f"validate-{args.case}-{tag}-seed{args.seed}.json"
        path.write_text(report.to_json() + "\n")
        status = "ok" if report.verdict else "VIOLATION"
        print(f"{args.case}[{tag}]: rate {report.estimate.failure_rate:.4f}"
              f" (upper95 {report.estimate.clopper_pearson_upper_95:.4f})"
              f" vs index {report.theorem_index:.4f} -> {status}  [{path}]")
        if not report.verdict:
            code = 1
    return code


def cmd_cases(args) -> int:
    from .cases.export import export_cases

    target = Path(args.dir)
    files = export_cases(target)
    for f in files:
        print(f)
    return 0


def _parse_overrides(program, pairs):
    from .semantics.values import parse_value

    sorts, out = program.store_sorts(), {}
    for pair in pairs:
        name, _, raw = pair.partition("=")
        if name not in sorts:
            raise ValueError(f"--set {name}: not a variable of the program")
        try:
            out[name] = parse_value(sorts[name], raw)
        except ValueError as exc:
            raise ValueError(f"--set {name}: {exc}") from None
    return out


def _pretty_value(v):
    from .dp.queries import Database, Query
    from .semantics.values import ArrayVal

    if isinstance(v, Fraction):
        return float(v)
    if isinstance(v, frozenset):
        return sorted(v)
    if isinstance(v, ArrayVal):
        return {str(k): _pretty_value(x) for k, x in v.items}
    if isinstance(v, Database):
        return {"counts": [float(c) for c in v.counts]}
    if isinstance(v, Query):
        return {"offset": float(v.offset), "weights": [float(w) for w in v.weights]}
    return v


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ubhl", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("check", help="check a proof script against a program")
    p.add_argument("program")
    p.add_argument("proof")
    p.add_argument("--quiet", action="store_true")
    p.add_argument("--export", help="directory for SMT-LIB export of all obligations")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("obligations", help="export obligations as SMT-LIB files")
    p.add_argument("program")
    p.add_argument("proof")
    p.add_argument("--export", required=True)
    p.add_argument("--open-only", action="store_true",
                   help="export only undischarged obligations")
    p.set_defaults(fn=cmd_obligations)

    p = sub.add_parser("run", help="run one seeded trial")
    p.add_argument("program")
    p.add_argument("--entry", default="main")
    p.add_argument("--arg", default="0")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--set", action="append", metavar="VAR=VALUE")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("exact", help="exact output sub-distribution")
    p.add_argument("program")
    p.add_argument("--entry", default="main")
    p.add_argument("--loop-budget", type=int, default=64)
    p.add_argument("--truncation-radius", type=int, default=200)
    p.add_argument("--limit", type=int, default=20)
    p.add_argument("--set", action="append", metavar="VAR=VALUE")
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("embed", help="ghost-code embedding and WP cross-check")
    p.add_argument("program")
    p.add_argument("proof")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("validate", help="Monte Carlo validation of a case study")
    p.add_argument("case", choices=CASE_NAMES)
    p.add_argument("--Q", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--adversary")
    p.add_argument("--params", help="JSON file with extra parameters")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("cases", help="materialize the shipped case files")
    p.add_argument("--dir", default="cases")
    p.set_defaults(fn=cmd_cases)
    return ap


# what bad input raises: a file that cannot be read, a program or
# script that does not parse or typecheck, an unknown procedure, a
# malformed value, or a run that fails
_INPUT_ERRORS = (OSError, UbhlSyntaxError, UbhlTypeError, KeyError, ValueError,
                 ZeroDivisionError)
# a run's failures, by (module, class): only a command that loaded the
# module can raise its class, so a command that did not is not made to
# load it
_RUN_ERRORS = (("ubhl.semantics.evalexpr", "UbhlRuntimeError"),
               ("ubhl.semantics.trial", "TrialAborted"))


def _input_errors() -> tuple[type, ...]:
    return _INPUT_ERRORS + tuple(getattr(sys.modules[module], name)
                                 for module, name in _RUN_ERRORS if module in sys.modules)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _input_errors() as exc:
        shown = f"unknown name {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: {shown}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
