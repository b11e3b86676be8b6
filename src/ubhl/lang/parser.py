"""Regular-expression lexer and recursive-descent parser.

One grammar serves program files (.ubhl), assertions inside proof
scripts, and index expressions; quantifiers are rejected later where
they are not allowed (program code).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .ast import (
    BINARY_OPS, DOMAIN_PREC, ArrayT, Assign, Assume, BinOp, BOOL, BoolLit,
    Call, Command, DB, DistExpr, Expr, ExtCall, ExternDecl, FuncCall, Havoc,
    If, Index, INT, LValue, NumLit, Procedure, Program, Quant, QUERY,
    RangeDom, REAL, Sample, SetDom, SETINT, SetLit, Skip, SortDom, Store,
    Type, UnOp, Var, While, seq_of,
)
from .typecheck import DIST_SIGS

KEYWORDS = {
    "proc", "extern", "var", "extvar", "return", "skip", "if", "else",
    "while", "true", "false", "forall", "exists", "in", "store",
    "havoc", "assume",
    "bool", "int", "real", "query", "db", "set",
}


class UbhlSyntaxError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {msg}")
        self.msg = msg
        self.line = line
        self.col = col


class DuplicateProcedure(UbhlSyntaxError):
    pass


@dataclass
class Token:
    kind: str   # ident, num, sym, eof
    text: str
    line: int
    col: int


_SYMBOLS = [
    "<==>", "==>", "<$", "<@", "<-", "<=", ">=", "==", "!=", "&&", "||",
    "..", "(", ")", "{", "}", "[", "]", ",", ";", ":", ".", "+", "-", "*",
    "/", "<", ">", "!", "=",
]

# One alternation, tried in order: longer symbols come before their
# prefixes, and any other character is an error. `\d` is a decimal
# digit; a word that starts with some other numeric character (`²`)
# is not an identifier.
_TOKEN_RE = re.compile(r"""
    (?P<space>[ \t\r]+) | (?P<newline>\n) | (?P<comment>//[^\n]*)
  | (?P<num>\d+(?:\.\d+)?) | (?P<ident>\w+)
  | (?P<sym>""" + "|".join(map(re.escape, _SYMBOLS)) + r""") | (?P<bad>.)
""", re.VERBOSE)


def tokenize(text: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN_RE.finditer(text):
        kind, start = m.lastgroup, m.start()
        col = start - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, m.end()
        elif kind == "bad" or (kind == "ident" and not (m[0][0].isalpha() or m[0][0] == "_")):
            raise UbhlSyntaxError(f"unexpected character {m[0][0]!r}", line, col)
        elif kind not in ("space", "comment"):
            toks.append(Token(kind, m[0], line, col))
    toks.append(Token("eof", "", line, len(text) - line_start + 1))
    return toks


class Parser:
    def __init__(self, text: str):
        self.toks = tokenize(text)
        self.pos = 0
        # procedure names, known before any body is parsed, so that
        # `x <- f(e)` becomes a call wherever f is declared
        self.procs = {name.text for word, name in zip(self.toks, self.toks[1:])
                      if word.kind == "ident" and word.text == "proc"}

    # ── token helpers ──

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at_sym(self, s: str) -> bool:
        t = self.peek()
        return t.kind == "sym" and t.text == s

    def at_word(self, w: str) -> bool:
        t = self.peek()
        return t.kind == "ident" and t.text == w

    def accept_sym(self, s: str) -> bool:
        if self.at_sym(s):
            self.pos += 1
            return True
        return False

    def accept_word(self, w: str) -> bool:
        if self.at_word(w):
            self.pos += 1
            return True
        return False

    def expect_sym(self, s: str) -> Token:
        t = self.peek()
        if not self.at_sym(s):
            raise UbhlSyntaxError(f"expected {s!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def expect_word(self, w: str) -> Token:
        t = self.peek()
        if not self.at_word(w):
            raise UbhlSyntaxError(f"expected {w!r}, found {t.text!r}", t.line, t.col)
        return self.next()

    def expect_ident(self) -> Token:
        t = self.peek()
        if t.kind != "ident" or t.text in KEYWORDS:
            raise UbhlSyntaxError(f"expected identifier, found {t.text!r}", t.line, t.col)
        return self.next()

    def err(self, msg: str) -> UbhlSyntaxError:
        t = self.peek()
        return UbhlSyntaxError(msg, t.line, t.col)

    # ── types ──

    def parse_type(self) -> Type:
        t = self.peek()
        if self.accept_word("bool"):
            base: Type = BOOL
        elif self.accept_word("int"):
            base = INT
        elif self.accept_word("real"):
            base = REAL
        elif self.accept_word("query"):
            base = QUERY
        elif self.accept_word("db"):
            base = DB
        elif self.accept_word("set"):
            self.expect_sym("<")
            self.expect_word("int")
            self.expect_sym(">")
            base = SETINT
        else:
            raise UbhlSyntaxError(f"expected type, found {t.text!r}", t.line, t.col)
        while self.at_sym("["):
            self.next()
            self.expect_sym("]")
            base = ArrayT(base)
        return base

    # ── expressions ──

    def parse_expr(self, min_prec: int = 1) -> Expr:
        """Precedence climbing over BINARY_OPS: the longest expression
        whose binary operators bind at min_prec or tighter."""
        left = self.parse_unary()
        # operators the right operand refused bind no higher up: after
        # a comparison none of its level (no chaining), after any
        # operator none tighter
        limit = float("inf")
        while True:
            op = self.peek().text
            prec, assoc = BINARY_OPS.get(op, (0, ""))
            if not min_prec <= prec < limit:
                return left
            self.next()
            right = self.parse_expr(prec if assoc == "right" else prec + 1)
            left = BinOp(op, left, right)
            limit = prec if assoc == "none" else prec + 1

    def parse_list(self, item, close: str) -> tuple:
        """Comma-separated items up to and including `close`."""
        items = []
        if not self.at_sym(close):
            items.append(item())
            while self.accept_sym(","):
                items.append(item())
        self.expect_sym(close)
        return tuple(items)

    def parse_unary(self) -> Expr:
        if self.at_sym("!") or self.at_sym("-"):
            return UnOp(self.next().text, self.parse_unary())
        e = self.parse_atom()
        while self.accept_sym("["):
            e = Index(e, self.parse_expr())
            self.expect_sym("]")
        return e

    def parse_atom(self) -> Expr:
        t = self.peek()
        if self.accept_sym("("):
            e = self.parse_expr()
            self.expect_sym(")")
            return e
        if self.accept_sym("{"):
            return SetLit(self.parse_list(self.parse_expr, "}"))
        if t.kind == "num":
            self.next()
            if "." in t.text:
                return NumLit(Fraction(t.text), REAL)
            return NumLit(Fraction(int(t.text)), INT)
        if self.accept_word("true"):
            return BoolLit(True)
        if self.accept_word("false"):
            return BoolLit(False)
        if self.at_word("forall") or self.at_word("exists"):
            return self.parse_quant()
        if self.accept_word("store"):
            self.expect_sym("(")
            arr = self.parse_expr()
            self.expect_sym(",")
            idx = self.parse_expr()
            self.expect_sym(",")
            val = self.parse_expr()
            self.expect_sym(")")
            return Store(arr, idx, val)
        if t.kind == "ident" and t.text not in KEYWORDS:
            self.next()
            if self.accept_sym("("):
                if t.text in self.procs:
                    raise _call_in_expression(t)
                return FuncCall(t.text, self.parse_list(self.parse_expr, ")"))
            return Var(t.text)
        raise UbhlSyntaxError(f"expected expression, found {t.text!r}", t.line, t.col)

    def parse_quant(self) -> Expr:
        kind = self.next().text
        var = self.expect_ident().text
        if self.accept_sym(":"):
            dom: SetDom | RangeDom | SortDom = SortDom(self.parse_type())
        else:
            self.expect_word("in")
            first = self.parse_expr(DOMAIN_PREC)
            if self.accept_sym(".."):
                hi = self.parse_expr(DOMAIN_PREC)
                dom = RangeDom(first, hi)
            else:
                dom = SetDom(first)
        self.expect_sym(".")
        body = self.parse_expr()
        return Quant(kind, var, dom, body)

    # ── commands ──

    def parse_lvalue(self) -> LValue:
        base = self.expect_ident().text
        if self.accept_sym("["):
            idx = self.parse_expr()
            self.expect_sym("]")
            return LValue(base, idx)
        return LValue(base)

    def parse_block(self) -> Command:
        self.expect_sym("{")
        stmts: list[Command] = []
        while not self.at_sym("}"):
            stmts.append(self.parse_stmt())
        self.expect_sym("}")
        return seq_of(stmts)

    def parse_stmt(self) -> Command:
        if self.accept_word("skip"):
            self.expect_sym(";")
            return Skip()
        if self.at_word("if"):
            self.next()
            self.expect_sym("(")
            guard = self.parse_expr()
            self.expect_sym(")")
            then = self.parse_block()
            els: Command = Skip()
            if self.accept_word("else"):
                els = self.parse_block()
            return If(guard, then, els)
        if self.at_word("while"):
            self.next()
            self.expect_sym("(")
            guard = self.parse_expr()
            self.expect_sym(")")
            body = self.parse_block()
            return While(guard, body)
        # instrumented programs (written by `ubhl embed`) only
        if self.accept_word("havoc"):
            target = self.parse_lvalue()
            self.expect_sym(";")
            return Havoc(target)
        if self.accept_word("assume"):
            assertion = self.parse_expr()
            self.expect_sym(";")
            return Assume(assertion)
        lv = self.parse_lvalue()
        if self.accept_sym("<$"):
            name_tok = self.expect_ident()
            if name_tok.text not in DIST_SIGS:
                raise UbhlSyntaxError(
                    f"unknown distribution constructor {name_tok.text!r}",
                    name_tok.line, name_tok.col)
            self.expect_sym("(")
            args = self.parse_list(self.parse_expr, ")")
            self.expect_sym(";")
            return Sample(lv, DistExpr(name_tok.text, args))
        if self.accept_sym("<@"):
            name_tok = self.expect_ident()
            self.expect_sym("(")
            args = self.parse_list(self.parse_expr, ")")
            self.expect_sym(";")
            return ExtCall(lv, name_tok.text, args)
        if self.accept_sym("<-"):
            if self.at_sym(";"):
                raise self.err("missing right-hand side of assignment")
            name = self.peek()
            if name.text in self.procs and self.toks[self.pos + 1].text == "(":
                self.pos += 2
                args = self.parse_list(self.parse_expr, ")")
                if not self.at_sym(";"):
                    raise _call_in_expression(name)
                if len(args) != 1:
                    raise UbhlSyntaxError(
                        f"internal procedure {name.text!r} takes exactly one argument",
                        name.line, name.col)
                self.next()
                return Call(lv, name.text, args[0])
            expr = self.parse_expr()
            self.expect_sym(";")
            return Assign(lv, expr)
        raise self.err("expected '<-', '<$' or '<@' after lvalue")

    # ── programs ──

    def parse_program(self) -> Program:
        prog = Program()
        while True:
            if self.accept_word("var"):
                name = self.expect_ident()
                self.expect_sym(":")
                t = self.parse_type()
                self.expect_sym(";")
                if name.text in prog.vars or name.text in prog.extvars:
                    raise UbhlSyntaxError(
                        f"duplicate variable {name.text!r}", name.line, name.col)
                prog.vars[name.text] = t
            elif self.accept_word("extvar"):
                name = self.expect_ident()
                self.expect_sym(":")
                t = self.parse_type()
                self.expect_sym(";")
                if name.text in prog.vars or name.text in prog.extvars:
                    raise UbhlSyntaxError(
                        f"duplicate variable {name.text!r}", name.line, name.col)
                prog.extvars[name.text] = t
            elif self.accept_word("extern"):
                name = self.expect_ident()
                self.expect_sym("(")
                arg_types = self.parse_list(self.parse_type, ")")
                self.expect_sym(":")
                ret = self.parse_type()
                self.expect_sym(";")
                if name.text in prog.externs:
                    raise UbhlSyntaxError(
                        f"duplicate external procedure {name.text!r}", name.line, name.col)
                prog.externs[name.text] = ExternDecl(name.text, arg_types, ret)
            elif self.at_word("proc"):
                break
            else:
                t = self.peek()
                raise UbhlSyntaxError(
                    f"expected declaration or 'proc', found {t.text!r}", t.line, t.col)
        while self.at_word("proc"):
            tok = self.next()
            name = self.expect_ident()
            self.expect_sym("(")
            arg = self.expect_ident().text
            self.expect_sym(")")
            body = self.parse_block()
            self.expect_word("return")
            ret = self.parse_expr()
            self.accept_sym(";")
            if name.text in prog.procs:
                raise DuplicateProcedure(
                    f"duplicate procedure {name.text!r}", name.line, name.col)
            prog.procs[name.text] = Procedure(name.text, arg, body, ret)
        t = self.peek()
        if t.kind != "eof":
            raise UbhlSyntaxError(f"unexpected trailing input {t.text!r}", t.line, t.col)
        if not prog.procs:
            raise UbhlSyntaxError("program has no procedures", t.line, t.col)
        return prog


def _call_in_expression(name: Token) -> UbhlSyntaxError:
    return UbhlSyntaxError(
        f"procedure {name.text!r} may only be called as 'x <- {name.text}(e);'",
        name.line, name.col)


def parse_program(text: str) -> Program:
    return Parser(text).parse_program()


# expression trees are immutable, so sharing parses is safe; proof
# checking re-reads the same assertion strings constantly
@lru_cache(maxsize=200000)
def parse_expr(text: str) -> Expr:
    p = Parser(text)
    e = p.parse_expr()
    t = p.peek()
    if t.kind != "eof":
        raise UbhlSyntaxError(f"unexpected trailing input {t.text!r}", t.line, t.col)
    return e

