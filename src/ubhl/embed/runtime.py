"""Ghost trials: seeded runs that also track the embedding's ghost.

Samples still draw from their original distributions, the ghost
accumulates each executed site's index, and a failed assumed site
postcondition marks the trial filtered (the axiom's failure mass). Used
to test ghost conservation: on every unfiltered path, the final ghost
equals the sum of the indices at executed sites. The runs use the trial
core (`semantics.trial.CompiledProgram`) compiled with the sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Union

from ..lang.ast import Program
from ..semantics.commands import AdversaryStrategy
from ..semantics.rng import TrialRng
from ..semantics.trial import CompiledProgram, RunState
from ..semantics.values import Memory, Value
from .instrument import SitePath, SiteSpec


@dataclass
class GhostTrial:
    memory: Memory
    ghost: Fraction
    executed_sites: list[SitePath]
    filtered: bool          # an assumed site postcondition failed


def run_ghost_trial(program: Union[Program, CompiledProgram], entry: str, arg: Value,
                    sites: Mapping[SitePath, SiteSpec],
                    logical_env: Mapping[str, Value], seed: int, trial: int = 0,
                    adversaries: Optional[Mapping[str, AdversaryStrategy]] = None,
                    overrides: Optional[dict[str, Value]] = None) -> GhostTrial:
    """One ghost trial; deterministic in (program, sites, arg, seed,
    trial). To run many trials of one compilation, pass a
    CompiledProgram compiled with these `sites` and `logical_env`."""
    core = (program if isinstance(program, CompiledProgram)
            else CompiledProgram(program, sites, logical_env))
    run = RunState(TrialRng(seed, trial), adversaries or {})
    store = core.execute(entry, arg, run, overrides)
    return GhostTrial(memory=core.memory(store), ghost=run.ghost,
                      executed_sites=run.executed, filtered=run.filtered)
