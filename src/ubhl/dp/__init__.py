"""Noise analytics, the query algebra, and the synthetic-db updater."""

from .laplace import (
    DomainError, lap_acc_threshold, lap_masses_exact, lap_pmf, lap_sample,
    lap_tail, lap_tail_closed,
)
from .mw import (
    mw_alpha_formulas, mw_init, mw_step, potential, solve_feasible_alpha,
    step_decrease_bound,
)
from .queries import (
    Database, DimensionMismatch, NotLinear, Query, db_add, db_size, db_zero,
    error_query, eval_query, inv_query, make_db, make_query, neg_query,
)

__all__ = [
    "Database", "DimensionMismatch", "DomainError", "NotLinear", "Query",
    "db_add", "db_size", "db_zero", "error_query", "eval_query",
    "inv_query", "lap_acc_threshold", "lap_masses_exact", "lap_pmf",
    "lap_sample", "lap_tail", "lap_tail_closed", "make_db", "make_query",
    "mw_alpha_formulas", "mw_init", "mw_step", "neg_query", "potential",
    "solve_feasible_alpha", "step_decrease_bound",
]
