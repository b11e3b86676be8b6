"""Seeded Monte Carlo execution and failure-rate estimation.

`CompiledProgram` compiles a program's commands and procedure calls
into nested closures once (expressions: `evalexpr.compile_expr`); each
trial runs them on a fresh store and a `RunState` (RNG stream,
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
from ..lang.ast import (
    Assign, Call, Command, Expr, ExtCall, If, Program, Sample, Seq, Skip,
    While,
)
from .evalexpr import (
    UbhlRuntimeError, compile_expr, compile_write, dist_params, eval_in_memory,
)
from .exact import initial_memory
from .rng import TrialRng
from .values import Memory, Value

StoreDict = dict[str, Value]
SitePath = tuple[str, ...]


class TrialAborted(Exception):
    """Loop-budget guard tripped; counted as a failure by estimators."""


class AdversaryStrategy:
    """External procedure implementation.

    Operates only on its own store `ext`; may draw from `rng`. Exact
    evaluation passes rng=None, so strategies used there must be
    deterministic.
    """

    def respond(self, ext: dict[str, Value], args: tuple[Value, ...],
                rng: Optional[TrialRng]) -> tuple[dict[str, Value], Value]:
        raise NotImplementedError


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


Step = Callable[[StoreDict, RunState], None]

_DRAW = {
    "bern": lambda rng, p: rng.bernoulli(p),
    "unifint": lambda rng, lo, hi: rng.unif_int(lo, hi),
    "lap": lambda rng, eps, mean: lap_sample(float(eps), mean, rng),
}


class CompiledProgram:
    """A program's procedures as closures, each compiled on first use.

    With `sites` (site path -> spec with `index` and `post`), every
    sampling site that has a spec also charges the spec's index to the
    run's ghost and evaluates its post over the logical environment
    chained with the store. A site's path is static: `1`/`2` into a
    sequence, `t`/`e` into a branch, `b` into a loop body, and a called
    procedure's body is compiled under its caller's path.
    """

    def __init__(self, program: Program, sites: Optional[Mapping[SitePath, Any]] = None,
                 logical_env: Optional[Mapping[str, Value]] = None):
        self.program = program
        self._sites = dict(sites or {})
        self._logical_env = dict(logical_env or {})
        self._defaults = initial_memory(program).to_dict()
        self._procs: dict[tuple[str, SitePath], tuple[Step, Callable]] = {}

    def execute(self, entry: str, arg: Value, run: RunState,
                overrides: Optional[Mapping[str, Value]] = None) -> StoreDict:
        """Run procedure `entry` on `arg`; the final store."""
        proc = self.program.procs[entry]
        store = dict(self._defaults)
        store.update(overrides or {})
        store[proc.arg] = arg
        body, ret = self._proc(entry, ())
        body(store, run)
        store["res"] = ret(store)
        return store

    def _proc(self, name: str, path: SitePath) -> tuple[Step, Callable]:
        key = (name, path)
        if key not in self._procs:
            proc = self.program.procs[name]
            self._procs[key] = (self._command(proc.body, path), compile_expr(proc.ret))
        return self._procs[key]

    def _command(self, c: Command, path: SitePath) -> Step:
        make = _COMMANDS.get(type(c))
        if make is None:
            def unsupported(store, run):
                raise UbhlRuntimeError(f"unsupported command: {c!r}")
            return unsupported
        return make(self, c, path)

    def _seq(self, c: Seq, path: SitePath) -> Step:
        first = self._command(c.first, path + ("1",))
        second = self._command(c.second, path + ("2",))

        def seq(store, run):
            first(store, run)
            second(store, run)
        return seq

    def _assign(self, c: Assign, path: SitePath) -> Step:
        e, write = compile_expr(c.expr), compile_write(c.target)
        return lambda store, run: write(store, e(store))

    def _sample(self, c: Sample, path: SitePath) -> Step:
        args, name = [compile_expr(a) for a in c.dist.args], c.dist.name
        write, draw = compile_write(c.target), _DRAW.get(name)

        def sample(store, run):
            params = dist_params(name, [f(store) for f in args])
            write(store, draw(run.rng, *params))
        spec = self._sites.get(path)
        if spec is None:
            return sample
        index, post, env = compile_expr(spec.index), compile_expr(spec.post), self._logical_env

        def site(store, run):
            sample(store, run)
            scope = dict(env)
            scope.update(store)
            run.ghost += Fraction(index(scope))
            run.executed.append(path)
            if not bool(post(scope)):
                run.filtered = True
        return site

    def _if(self, c: If, path: SitePath) -> Step:
        guard = compile_expr(c.guard)
        then = self._command(c.then, path + ("t",))
        els = self._command(c.els, path + ("e",))
        return lambda store, run: (then if guard(store) else els)(store, run)

    def _while(self, c: While, path: SitePath) -> Step:
        guard, body = compile_expr(c.guard), self._command(c.body, path + ("b",))

        def loop(store, run):
            iters = 0
            while guard(store):
                body(store, run)
                iters += 1
                if iters >= run.loop_cap:
                    raise TrialAborted(f"loop exceeded {run.loop_cap} iterations")
        return loop

    def _call(self, c: Call, path: SitePath) -> Step:
        arg, write, name = compile_expr(c.arg), compile_write(c.target), c.proc

        def call(store, run):
            callee = self.program.procs[name]
            store[callee.arg] = arg(store)
            body, ret = self._proc(name, path)
            body(store, run)
            write(store, ret(store))
        return call

    def _ext_call(self, c: ExtCall, path: SitePath) -> Step:
        args, write, name = [compile_expr(a) for a in c.args], compile_write(c.target), c.ext

        def ext_call(store, run):
            strat = run.adversaries.get(name)
            if strat is None:
                raise UbhlRuntimeError(f"no adversary bound for {name!r}")
            run.ext, value = strat.respond(run.ext, tuple(f(store) for f in args), run.rng)
            write(store, value)
        return ext_call


_COMMANDS: dict[type, Callable[[CompiledProgram, Any, SitePath], Step]] = {
    Skip: lambda self, c, path: lambda store, run: None,
    Seq: CompiledProgram._seq, Assign: CompiledProgram._assign, Sample: CompiledProgram._sample,
    If: CompiledProgram._if, While: CompiledProgram._while,
    Call: CompiledProgram._call, ExtCall: CompiledProgram._ext_call,
}


def run_trial(program: Union[Program, CompiledProgram], entry: str, arg: Value,
              adversaries: Mapping[str, AdversaryStrategy], seed: int,
              trial: int = 0, overrides: Optional[dict[str, Value]] = None,
              loop_cap: int = 1_000_000) -> Memory:
    """One sampled execution; deterministic in (program, arg, seed, trial).
    Pass a CompiledProgram to run many trials of one compilation."""
    core = program if isinstance(program, CompiledProgram) else CompiledProgram(program)
    run = RunState(TrialRng(seed, trial), adversaries, loop_cap)
    return Memory(core.execute(entry, arg, run, overrides).items())


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
    a process pool, so `make_classifier` and `spec` must pickle."""
    if jobs <= 1 or trials < 1:
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
