"""Noise analytics, the query algebra, and the synthetic-db updater."""

from .laplace import (
    DomainError, lap_acc_threshold, lap_masses_exact, lap_pmf, lap_sample,
    lap_tail, lap_tail_closed,
)
from .mw import (
    SynthDB, mw_alpha_formulas, mw_init, mw_step, potential,
    solve_feasible_alpha, step_decrease_bound,
)
from .queries import (
    Database, DimensionMismatch, EmptyDatabase, NotLinear, Query, db_add,
    db_size, db_zero, dump_db_text, error_query, eval_query, inv_query,
    load_db_text, make_db, make_query, neg_query,
)

__all__ = [
    "Database", "DimensionMismatch", "DomainError", "EmptyDatabase",
    "NotLinear", "Query", "SynthDB", "db_add", "db_size",
    "db_zero", "dump_db_text", "error_query", "eval_query", "inv_query",
    "lap_acc_threshold", "lap_masses_exact", "lap_pmf", "lap_sample",
    "lap_tail", "lap_tail_closed", "load_db_text", "make_db", "make_query",
    "mw_alpha_formulas", "mw_init", "mw_step", "neg_query", "potential",
    "solve_feasible_alpha", "step_decrease_bound",
]
