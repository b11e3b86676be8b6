"""First-order assertion toolkit: the normal form, obligations, the
built-in prover, and SMT-LIB export."""

from .normform import assertions_equal, canon_assertion, terms_equal
from .obligations import AxiomPremise, Implication, Obligation, ObStatus
from .prover import Prover
from .smtlib import Inexpressible, emit_smtlib


__all__ = [
    "AxiomPremise", "Implication", "Inexpressible", "Obligation", "ObStatus",
    "Prover", "assertions_equal", "canon_assertion", "emit_smtlib",
    "terms_equal",
]
