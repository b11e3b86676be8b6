"""ubhl benchmark: four workloads, end-to-end metrics, checked outputs.

    python3 bench/run.py --workload check --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-check

Run from the root of a checkout. The run repeats whole passes of its
workload (bench/inputs.py) for about --seconds. Every job of a
pass runs in a fresh interpreter started by this process, one at a
time, so at most two processes are alive. The last line of standard
output is one JSON object: correct, attempted, failed and the metrics,
each the median over the run's passes. With --trace 0 these are the
end-to-end metrics; with --trace 1 the jobs are traced and the metrics
are the per-layer ones, and the spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402

JOB_TIMEOUT_S = 170


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # string hashing decides set iteration order inside the prover; a
    # fixed seed removes that source of run-to-run spread
    env["PYTHONHASHSEED"] = "0"
    return env


def run_job(job: dict, trace: bool, env: dict) -> dict:
    """Start one worker, wait for it, and return its result with the
    set-up time measured from the moment it was started."""
    spec = dict(job, trace=trace)
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=JOB_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker for {job['kind']} exited {proc.returncode}:\n"
                           f"{proc.stderr[-3000:]}")
    out = json.loads(lines[-1])
    end = out["setup_end"] if out["setup_end"] is not None else time.perf_counter()
    out["setup_s"] = end - started
    return out


def run_pass(jobs: list[dict], trace: bool, env: dict) -> dict:
    results = [run_job(job, trace, env) for job in jobs]
    timed = sum(r["timed_s"] for r in results)
    trials = sum(r["trials"] for r in results)
    return {
        "setup_s": sum(r["setup_s"] for r in results),
        "pass_s": timed,
        "peak_rss_mb": max(r["rss_mb"] for r in results),
        # Monte Carlo trials on validate, ghost trials on embed, proof
        # checks on check, exact evaluations on exact
        "trials_per_s": trials / timed,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "problems": [p for r in results for p in r["problems"]],
        "errors": [e for r in results for e in r["errors"]],
        "results": results,
    }


END_TO_END = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MB", "trials_per_s": "trials/s"}


def per_layer(passes: list[dict]) -> tuple[dict, list]:
    import tracing

    values: dict[str, list] = {}
    units: dict[str, str] = {}
    missing = set()
    for p in passes:
        total: dict = {}
        for r in p["results"]:
            missing.update(r["missing"])
            for k, v in r["partials"].items():
                total[k] = total.get(k, 0) + v
        for name, m in tracing.finish(total, missing).items():
            units[name] = m["unit"]
            values.setdefault(name, []).append(m["value"])
    metrics = {}
    for name, vals in values.items():
        if None in vals:
            metrics[name] = {"value": None, "unit": units[name], "missing": True}
        else:
            metrics[name] = {"value": statistics.median(vals), "unit": units[name]}
    spans = [{"pass": i, "job": j, "spans": r["spans"]}
             for i, p in enumerate(passes) for j, r in enumerate(p["results"])]
    return metrics, spans


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(inputs.JOBS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="short mode: feed each workload's checks a planted wrong answer")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ubhl" / "__init__.py").is_file() or not (ROOT / "cases").is_dir():
        print(f"error: no ubhl sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.self_check:
        import selftest
        return selftest.main()
    if args.workload is None or args.seed < 0:
        ap.error("--workload and a non-negative --seed are required")

    env = worker_env()
    jobs = inputs.jobs(args.workload, args.seed)
    trace = bool(args.trace)
    run_job({"kind": "warmup"}, False, env)
    # whole passes only: another starts while the run's median pass
    # still fits in --seconds, so a run ends within about --seconds
    passes, walls = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        passes.append(run_pass(jobs, trace, env))
        walls.append(time.perf_counter() - began)
        if time.perf_counter() - start + statistics.median(walls) > args.seconds:
            break

    problems = [p for ps in passes for p in ps["problems"]]
    errors = [e for ps in passes for e in ps["errors"]]
    for line in (problems + errors)[:20]:
        print(line, file=sys.stderr)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if trace:
        metrics, spans = per_layer(passes)
        (OUT / f"spans-{tag}.json").write_text(json.dumps(spans))
    else:
        metrics = {name: {"value": statistics.median(p[name] for p in passes), "unit": unit}
                   for name, unit in END_TO_END.items()}
    per_pass = [{k: p[k] for k in ("setup_s", "pass_s", "peak_rss_mb", "trials_per_s",
                                   "attempted", "failed")} for p in passes]
    (OUT / f"result-{tag}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "passes": per_pass,
         "metrics": metrics}, indent=1))
    print(json.dumps({"correct": not problems,
                      "attempted": sum(p["attempted"] for p in passes),
                      "failed": sum(p["failed"] for p in passes),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
