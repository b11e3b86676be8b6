"""Concrete syntax, typed AST and static checks."""

from .ast import (
    Command, Expr, Program, free_vars, modified_vars, pretty_command,
    pretty_expr, pretty_program, subst_expr, subst_lvalue,
)
from .parser import (
    DuplicateProcedure, UbhlSyntaxError, parse_expr, parse_program,
)
from .typecheck import (
    ExternalMemoryViolation, TypeMismatch, UbhlTypeError, UnboundVariable,
    assertion_env, typecheck,
)

__all__ = [
    "Command", "DuplicateProcedure", "Expr", "ExternalMemoryViolation",
    "Program", "TypeMismatch", "UbhlSyntaxError", "UbhlTypeError",
    "UnboundVariable", "assertion_env", "free_vars", "modified_vars",
    "parse_expr", "parse_program",
    "pretty_command", "pretty_expr", "pretty_program", "subst_expr",
    "subst_lvalue", "typecheck",
]
