"""Side conditions the kernel must discharge or export."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..lang.ast import DistExpr, Expr


class ObStatus(enum.Enum):
    BUILTIN_PROVED = "builtin_proved"
    EXPORTED = "exported"
    UNKNOWN = "unknown"


@dataclass
class Obligation:
    rule: str                      # proof rule that generated it
    path: tuple[str, ...]          # position in the proof tree
    note: str = ""
    status: ObStatus = ObStatus.UNKNOWN

    def name(self) -> str:
        loc = ".".join(self.path) if self.path else "root"
        return f"{self.rule}@{loc}"


@dataclass
class Implication(Obligation):
    antecedent: Optional[Expr] = None
    consequent: Optional[Expr] = None


@dataclass
class AxiomPremise(Obligation):
    schema: str = ""
    dist: Optional[DistExpr] = None
    post: Optional[Expr] = None
    index: Optional[Expr] = None
