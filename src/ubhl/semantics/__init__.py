"""Executable semantics: exact sub-distributions and seeded trials.

The names below are loaded from their submodule on first use (PEP 562),
so importing the package, or a module that needs only one evaluator,
does not load the trial runner or the exact enumerator. To re-export a
name, add it to `_EXPORTS` under the submodule that defines it.
"""

from importlib import import_module

_EXPORTS = {
    "commands": ("AdversaryStrategy", "initial_memory"),
    "evalexpr": ("DivisionByZero", "UbhlRuntimeError", "UnboundedQuantifierAtRuntime",
                 "eval_expr", "eval_in_memory"),
    "exact": ("Budget", "SubDist", "denote_exact"),
    "rng": ("TrialRng",),
    "trial": ("EstimateReport", "TrialAborted",
              "clopper_pearson_upper", "estimate_failure", "run_trial"),
    "values": ("ArrayVal", "Memory"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_OWNER)


def __getattr__(name):
    if name not in _OWNER:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | _OWNER.keys())
