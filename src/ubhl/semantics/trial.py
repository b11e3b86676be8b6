"""Seeded Monte Carlo execution and failure-rate estimation.

`CompiledProgram` is the trial binding of the command compiler
(`semantics.commands`): it compiles a program's commands once, and
each trial runs them on a fresh store and a `RunState` (RNG stream,
adversaries, external store, loop cap). Compiled with ghost sites, the
same core also tracks the embedding's ghost (`ubhl.embed.runtime`).

A trial is a deterministic function of (program, argument, adversaries,
seed, trial index): the closures draw and evaluate in the order of the
source. Counts add, so `run_chunked` runs trials in chunks, in one
process or a pool, and sums what a per-trial classifier reports.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Any, Callable, Iterable, Mapping, Optional, Union

from ..dp.laplace import lap_sample
from ..lang.ast import Expr, ExtCall, Program, Sample, While
from .commands import (
    AdversaryStrategy, Commands, SitePath, Step, StoreDict, initial_memory,
)
from .evalexpr import (
    UbhlRuntimeError, compile_expr, compile_write, dist_params, eval_in_memory,
)
from .rng import TrialRng
from .values import Memory, Value


class TrialAborted(Exception):
    """Loop-budget guard tripped; counted as a failure by estimators."""


@dataclass(slots=True)
class RunState:
    """What a trial changes besides its store; the ghost fields change
    only at sampling sites that have a spec."""
    rng: TrialRng
    adversaries: Mapping[str, AdversaryStrategy]
    loop_cap: int = 1_000_000
    ext: dict[str, Value] = field(init=False, default_factory=dict)
    ghost: Fraction = field(init=False, default=Fraction(0))
    executed: list[SitePath] = field(init=False, default_factory=list)
    filtered: bool = field(init=False, default=False)


_DRAW = {
    "bern": lambda rng, p: rng.bernoulli(p),
    "unifint": lambda rng, lo, hi: rng.unif_int(lo, hi),
    "lap": lambda rng, eps, mean: lap_sample(float(eps), mean, rng),
}


def _halt(store: StoreDict, run: RunState) -> None:
    """What runs after an entry procedure's body or a loop's body."""


class CompiledProgram(Commands):
    """The trial binding of the command compiler: a sample draws one
    value from the run's RNG, a loop runs until its guard fails or the
    run's loop cap trips, and an external call asks the run's
    adversary. Each entry procedure is compiled on first use.

    With `sites` (site path -> spec with `index` and `post`), every
    sampling site that has a spec also charges the spec's index to the
    run's ghost and evaluates its post over the logical environment
    chained with the store.
    """

    def __init__(self, program: Program, sites: Optional[Mapping[SitePath, Any]] = None,
                 logical_env: Optional[Mapping[str, Value]] = None):
        super().__init__(program)
        self._sites = dict(sites or {})
        self._logical_env = dict(logical_env or {})
        self._defaults = initial_memory(program).to_dict()
        self._entries: dict[str, tuple[Step, Callable]] = {}

    def execute(self, entry: str, arg: Value, run: RunState,
                overrides: Optional[Mapping[str, Value]] = None) -> StoreDict:
        """Run procedure `entry` on `arg`; the final store."""
        proc = self.program.procs[entry]
        store = dict(self._defaults)
        store.update(overrides or {})
        store[proc.arg] = arg
        if entry not in self._entries:
            self._entries[entry] = (self.compile(proc.body, (), _halt), compile_expr(proc.ret))
        body, ret = self._entries[entry]
        body(store, run)
        store["res"] = ret(store)
        return store

    def memory(self, store: StoreDict) -> Memory:
        """The memory of a store that `execute` returned."""
        return Memory.of_written(tuple(store.items()), len(self._defaults))

    def _sample(self, c: Sample, path: SitePath, k: Step) -> Step:
        args, name = [compile_expr(a) for a in c.dist.args], c.dist.name
        write, draw = compile_write(c.target), _DRAW.get(name)
        spec = self._sites.get(path)
        if spec is not None:
            k = self._site(spec, path, k)

        def sample(store, run):
            params = dist_params(name, [f(store) for f in args])
            write(store, draw(run.rng, *params))
            k(store, run)
        return sample

    def _site(self, spec: Any, path: SitePath, k: Step) -> Step:
        """`k` after the ghost bookkeeping of the site at `path`."""
        index, post, env = compile_expr(spec.index), compile_expr(spec.post), self._logical_env

        def site(store, run):
            scope = dict(env)
            scope.update(store)
            run.ghost += Fraction(index(scope))
            run.executed.append(path)
            if not bool(post(scope)):
                run.filtered = True
            k(store, run)
        return site

    def _while(self, c: While, path: SitePath, k: Step) -> Step:
        guard, body = compile_expr(c.guard), self.compile(c.body, path + ("b",), _halt)

        def loop(store, run):
            iters = 0
            while guard(store):
                body(store, run)
                iters += 1
                if iters >= run.loop_cap:
                    raise TrialAborted(f"loop exceeded {run.loop_cap} iterations")
            k(store, run)
        return loop

    def _ext_call(self, c: ExtCall, path: SitePath, k: Step) -> Step:
        args, write, name = [compile_expr(a) for a in c.args], compile_write(c.target), c.ext

        def ext_call(store, run):
            strat = run.adversaries.get(name)
            if strat is None:
                raise UbhlRuntimeError(f"no adversary bound for {name!r}")
            run.ext, value = strat.respond(run.ext, tuple(f(store) for f in args), run.rng)
            write(store, value)
            k(store, run)
        return ext_call


def run_trial(program: Union[Program, CompiledProgram], entry: str, arg: Value,
              adversaries: Mapping[str, AdversaryStrategy], seed: int,
              trial: int = 0, overrides: Optional[dict[str, Value]] = None,
              loop_cap: int = 1_000_000) -> Memory:
    """One sampled execution; deterministic in (program, arg, seed, trial).
    Pass a CompiledProgram to run many trials of one compilation."""
    core = program if isinstance(program, CompiledProgram) else CompiledProgram(program)
    run = RunState(TrialRng(seed, trial), adversaries, loop_cap)
    return core.memory(core.execute(entry, arg, run, overrides))


@dataclass
class EstimateReport:
    trials: int
    failures: int
    failure_rate: float
    clopper_pearson_upper_95: float
    seed: int
    params: dict

    def to_json(self) -> str:
        return json.dumps({
            "trials": self.trials,
            "failures": self.failures,
            "rate": self.failure_rate,
            "upper95": self.clopper_pearson_upper_95,
            "seed": self.seed,
            "params": self.params,
        }, sort_keys=True)


def _log_binom_cdf(k: int, n: int, p: float) -> float:
    """log Pr[X <= k] for X ~ Binomial(n, p)."""
    if p <= 0:
        return 0.0
    if p >= 1:
        return 0.0 if k >= n else -math.inf
    log_p = math.log(p)
    log_1p = math.log1p(-p)
    total = -math.inf
    for i in range(0, k + 1):
        term = (math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                + i * log_p + (n - i) * log_1p)
        if total == -math.inf:
            total = term
        else:
            hi, lo = max(total, term), min(total, term)
            total = hi + math.log1p(math.exp(lo - hi))
    return total


def clopper_pearson_upper(failures: int, trials: int, confidence: float = 0.95) -> float:
    """Exact one-sided binomial upper confidence bound."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if failures >= trials:
        return 1.0
    alpha = 1.0 - confidence
    lo, hi = failures / trials, 1.0
    for _ in range(80):
        mid = (lo + hi) / 2
        if _log_binom_cdf(failures, trials, mid) > math.log(alpha):
            lo = mid
        else:
            hi = mid
    return hi


Classifier = Callable[[int], Iterable]


def _tally(make_classifier: Callable[[Any], Classifier], spec: Any,
           start: int, count: int) -> Counter:
    classify = make_classifier(spec)
    counts: Counter = Counter()
    for i in range(start, start + count):
        counts.update(classify(i))
    return counts


def run_chunked(make_classifier: Callable[[Any], Classifier], spec: Any,
                trials: int, jobs: int = 1) -> Counter:
    """How often each key is reported over trials 0 .. trials-1, where
    `make_classifier(spec)` gives the classifier and `classify(i)` the
    keys that count for trial i. Each chunk of trials makes its
    classifier (and so compiles) once. With jobs > 1 the chunks run in
    a process pool, so `make_classifier` and `spec` must pickle. A
    count below 1 is refused before any trial runs: no rate exists."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if jobs <= 1:
        return _tally(make_classifier, spec, 0, trials)
    size = (trials + jobs - 1) // jobs
    starts = range(0, trials, size)
    counts = [min(size, trials - s) for s in starts]
    # imported here so that a run with jobs=1 loads no process machinery
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return sum(pool.map(_tally, repeat(make_classifier), repeat(spec), starts, counts),
                   Counter())


def _failure_classifier(spec) -> Classifier:
    program, entry, arg, adversaries, bad, seed, overrides, env, loop_cap = spec
    core, bad_code = CompiledProgram(program), compile_expr(bad)

    def classify(i):
        try:
            mem = run_trial(core, entry, arg, adversaries, seed, i, overrides, loop_cap)
            return ("failure",) if bool(eval_in_memory(bad_code, mem, env)) else ()
        except (TrialAborted, UbhlRuntimeError):
            return ("failure",)
    return classify


def estimate_failure(program: Program, entry: str, arg: Value,
                     adversaries: Mapping[str, AdversaryStrategy],
                     bad: Expr, trials: int, seed: int,
                     env: Optional[dict[str, Value]] = None,
                     overrides: Optional[dict[str, Value]] = None,
                     loop_cap: int = 1_000_000, jobs: int = 1,
                     params: Optional[dict] = None) -> EstimateReport:
    """Monte Carlo estimate of the probability the `bad` assertion holds
    in the final memory. Aborted or erroring trials count as failures."""
    spec = (program, entry, arg, dict(adversaries), bad, seed, overrides,
            env or {}, loop_cap)
    failures = run_chunked(_failure_classifier, spec, trials, jobs)["failure"]
    rate = failures / trials
    return EstimateReport(
        trials=trials, failures=failures, failure_rate=rate,
        clopper_pearson_upper_95=clopper_pearson_upper(failures, trials),
        seed=seed, params=params or {})
