"""The proof kernel and its supporting pieces."""

from .axioms import SchemaMismatch, instantiate_axiom, lap_acc_covers
from .index import NegativeIndex, index_equal, index_eval, index_leq
from .kernel import CheckResult, check
from .proof import ProofNode, ProofScript

__all__ = [
    "CheckResult", "NegativeIndex", "ProofNode", "ProofScript",
    "SchemaMismatch", "check", "index_equal", "index_eval", "index_leq",
    "instantiate_axiom", "lap_acc_covers",
]
