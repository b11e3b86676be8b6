"""What each workload runs, made from the run's seed.

A pass is a list of jobs; each job runs in its own fresh interpreter
(bench/worker.py), so no cache or verdict carries from one job to the
next. Every pass of a run repeats the same jobs, so each run attempts
whole rounds of the same operations.
"""

from __future__ import annotations

import json
import random

# the shipped cases' default parameters, restated so the checks know
# them without asking the program
RNM_PARAMS = {"size": 10, "eps": 1.0, "beta": 0.2}
SV_PARAMS = {"Q": 20, "eps": 1.0, "beta": 0.2, "threshold": 3.0, "universe": 8,
             "counts": [2, 1, 0, 1, 0, 1, 0, 1]}
MWSV_PARAMS = {"Q": 10, "eps": 40.0, "beta": 0.25, "universe": 8, "n": 6,
               "counts": [3, 1, 0, 0, 1, 0, 1, 0]}
CASE_PARAMS = {"rnm": RNM_PARAMS, "sv": SV_PARAMS, "mwsv": MWSV_PARAMS}


# ── check: tampered proof scripts; every one must fail to verify ──


def _walk(node: dict):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


def _find(doc: dict, pred) -> dict:
    return next(n for n in _walk(doc["root"]) if pred(n))


def _swap(doc: dict, old: str, new: str) -> dict:
    text = json.dumps(doc)
    if old not in text:
        raise ValueError(f"mutation target {old!r} not in the script")
    return json.loads(text.replace(old, new))


def _index_lowered(doc: dict) -> dict:
    doc["root"]["index"] = "beta/2"
    doc["root"]["children"][0]["index"] = "beta/2"
    return doc


def _loop_bound_shrunk(doc: dict) -> dict:
    _find(doc, lambda n: n.get("rule") == "while")["bound"] = "size(R0) - 1"
    return doc


def _sampling_budget_halved(doc: dict) -> dict:
    _find(doc, lambda n: n.get("rule") == "rand"
          and n.get("schema") == "lap_acc")["site_index"] = "beta/(2*size(R0))"
    return doc


def _rnm_margin_tightened(doc: dict) -> dict:
    return _swap(doc, "(4/eps)*log(size(R0)/beta)", "(3/eps)*log(size(R0)/beta)")


def _iteration_budget_changed(doc: dict) -> dict:
    _find(doc, lambda n: n.get("rule") == "while")["iter_index"] = "beta/(Q+2)"
    return doc


def _sv_margin_tightened(doc: dict) -> dict:
    return _swap(doc, "(6/eps)*log((Q+1)/beta)", "(5/eps)*log((Q+1)/beta)")


def _adversary_pre_malformed(doc: dict) -> dict:
    ext = _find(doc, lambda n: n.get("rule") == "ext" and "forall v" in n.get("pre", ""))
    ext["pre"] = ext["post"]
    return doc


MUTANTS = {
    "rnm-index-lowered": ("rnm", _index_lowered),
    "rnm-loop-bound-shrunk": ("rnm", _loop_bound_shrunk),
    "rnm-sampling-budget-halved": ("rnm", _sampling_budget_halved),
    "rnm-margin-tightened": ("rnm", _rnm_margin_tightened),
    "sv-index-lowered": ("sv", _index_lowered),
    "sv-iteration-budget-changed": ("sv", _iteration_budget_changed),
    "sv-margin-tightened": ("sv", _sv_margin_tightened),
    "sv-adversary-pre-malformed": ("sv", _adversary_pre_malformed),
}


def check_jobs(seed: int) -> list[dict]:
    """The three shipped cases and every mutant, one cold process each,
    in an order drawn from the seed; mwsv also exports its open
    obligations."""
    jobs = [{"kind": "check", "case": c, "mutant": None, "smtlib": c == "mwsv"}
            for c in ("rnm", "sv", "mwsv")]
    jobs += [{"kind": "check", "case": case, "mutant": m, "smtlib": False}
             for m, (case, _) in MUTANTS.items()]
    random.Random(seed).shuffle(jobs)
    return jobs


# ── embed: the rnm cross-check and ghost trials ──

GHOST_TRIALS = 200


def embed_jobs(seed: int) -> list[dict]:
    return [{"kind": "embed", "case": "rnm", "params": RNM_PARAMS,
             "ghost_seed": seed, "ghost_trials": GHOST_TRIALS}]


# ── validate: Monte Carlo trials of every case and adversary ──

VALIDATE_PLAN = (("rnm", None, 600),
                 ("sv", "fixed", 150), ("sv", "random", 150), ("sv", "adaptive", 150),
                 ("mwsv", "fixed", 100), ("mwsv", "random", 100), ("mwsv", "adaptive", 100))
VALIDATE_LABELS = tuple(case if adv is None else f"{case}-{adv}"
                        for case, adv, _ in VALIDATE_PLAN)
RECHECKED_TRIALS = 4


def validate_jobs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    runs = [{"case": case, "adversary": adv, "trials": n, "seed": seed, "label": label,
             "recheck": sorted(rng.sample(range(n), RECHECKED_TRIALS))}
            for (case, adv, n), label in zip(VALIDATE_PLAN, VALIDATE_LABELS)]
    return [{"kind": "validate", "params": CASE_PARAMS, "runs": runs}]


# ── exact: enumeration of rnm and single-site programs ──


def exact_jobs(seed: int) -> list[dict]:
    rng = random.Random(seed)
    eps_lap = rng.choice(["1/2", "1", "3/2", "2"])
    mean = rng.randint(-5, 5)
    p_num = rng.randint(1, 15)
    lo = rng.randint(-20, 20)
    items = [
        {"label": "rnm-2", "rnm": {"size": 2, "eps": 1.0, "beta": 0.2,
                                   "qscore": [rng.randint(0, 3) for _ in range(2)]},
         "radius": 24},
        {"label": "rnm-3", "rnm": {"size": 3, "eps": 1.0, "beta": 0.2,
                                   "qscore": [rng.randint(0, 3) for _ in range(3)]},
         "radius": 8},
        {"label": "lap", "eps": eps_lap, "mean": mean, "radius": 200,
         "source": f"var x : real;\nproc main(w) {{\n  x <$ lap({eps_lap}, {mean});\n}} return 0",
         "bad": f"abs(x - ({mean})) > 3"},
        {"label": "bern", "p": [p_num, 16],
         "source": f"var b : bool;\nproc main(w) {{\n  b <$ bern({p_num}/16);\n}} return 0",
         "bad": "b == true"},
        {"label": "unifint", "lo": lo, "hi": lo + 63,
         "source": f"var u : int;\nproc main(w) {{\n  u <$ unifint({lo}, {lo + 63});\n}} return 0",
         "bad": f"u < {lo + 16}"},
    ]
    return [{"kind": "exact", "items": items}]


JOBS = {"check": check_jobs, "embed": embed_jobs, "validate": validate_jobs,
        "exact": exact_jobs}


def jobs(workload: str, seed: int) -> list[dict]:
    return JOBS[workload](seed)
