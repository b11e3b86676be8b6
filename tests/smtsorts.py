"""A small sort checker for the SMT-LIB scripts `emit_smtlib` writes.

It reads the fragment of SMT-LIB v2 the exporter uses, requires every
sort and symbol to be declared before its first use, and infers the
sort of every term: no implicit Int/Real widening, as in a strictly
sorted solver. `check_script` raises `SortError` on the first fault.
"""

from __future__ import annotations

import re

_TOKEN = re.compile(r"[()]|[^\s()]+")


class SortError(Exception):
    pass


def parse(text: str) -> list:
    """The script's commands as nested lists of atoms."""
    stack: list[list] = [[]]
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append([])
        elif tok == ")":
            if len(stack) == 1:
                raise SortError("unbalanced ')'")
            done = stack.pop()
            stack[-1].append(done)
        else:
            stack[-1].append(tok)
    if len(stack) != 1:
        raise SortError("unbalanced '('")
    return stack[0]


_NUMERIC = ("Int", "Real")


class _Checker:
    def __init__(self):
        self.sorts = {"Int", "Real", "Bool"}
        self.funs: dict[str, tuple[tuple, object]] = {}

    def sort(self, s):
        if isinstance(s, str):
            if s not in self.sorts:
                raise SortError(f"undeclared sort {s}")
            return s
        if len(s) == 3 and s[0] == "Array":
            return ("Array", self.sort(s[1]), self.sort(s[2]))
        raise SortError(f"bad sort {s}")

    def declare(self, name: str, params, ret) -> None:
        if name in self.funs:
            raise SortError(f"{name} declared twice")
        self.funs[name] = (tuple(self.sort(p) for p in params), self.sort(ret))

    def command(self, cmd: list) -> None:
        head = cmd[0]
        if head in ("set-logic", "check-sat"):
            return
        if head == "declare-sort":
            self.sorts.add(cmd[1])
        elif head == "declare-fun":
            self.declare(cmd[1], cmd[2], cmd[3])
        elif head == "declare-const":
            self.declare(cmd[1], (), cmd[2])
        elif head == "define-fun":
            local = {x: self.sort(s) for x, s in cmd[2]}
            if self.term(cmd[4], local) != self.sort(cmd[3]):
                raise SortError(f"body of {cmd[1]} is not of sort {cmd[3]}")
            self.declare(cmd[1], [s for _, s in cmd[2]], cmd[3])
        elif head == "assert":
            if self.term(cmd[1], {}) != "Bool":
                raise SortError(f"asserted term is not Bool: {cmd[1]}")
        else:
            raise SortError(f"unknown command {head}")

    def term(self, t, local: dict):
        if isinstance(t, str):
            return self.atom(t, local)
        head, args = t[0], t[1:]
        if head in ("forall", "exists"):
            inner = dict(local)
            inner.update({x: self.sort(s) for x, s in args[0]})
            return self.want(self.term(args[1], inner), "Bool", t)
        if isinstance(head, list):
            if head[:2] == ["as", "const"]:
                arr = self.sort(head[2])
                if arr[0] != "Array" or self.term(args[0], local) != arr[2]:
                    raise SortError(f"bad constant array {t}")
                return arr
            raise SortError(f"bad application {t}")
        got = [self.term(a, local) for a in args]
        if head in ("and", "or", "=>", "not"):
            for s in got:
                self.want(s, "Bool", t)
            return "Bool"
        if head == "=":
            self.same(got, t)
            return "Bool"
        if head == "ite":
            self.want(got[0], "Bool", t)
            return self.same(got[1:], t)
        if head in ("<", "<=", ">", ">="):
            self.numeric(got, t)
            return "Bool"
        if head in ("+", "-", "*"):
            return self.numeric(got, t)
        if head == "/":
            for s in got:
                self.want(s, "Real", t)
            return "Real"
        if head == "to_real":
            self.want(got[0], "Int", t)
            return "Real"
        if head == "select":
            arr = got[0]
            if arr[0] != "Array" or got[1] != arr[1]:
                raise SortError(f"bad select {t}")
            return arr[2]
        if head == "store":
            arr = got[0]
            if arr[0] != "Array" or got[1:] != [arr[1], arr[2]]:
                raise SortError(f"bad store {t}")
            return arr
        if head not in self.funs:
            raise SortError(f"undeclared function {head}")
        params, ret = self.funs[head]
        if tuple(got) != params:
            raise SortError(f"{head} applied to {got}, declared {list(params)}")
        return ret

    def atom(self, a: str, local: dict):
        if a in local:
            return local[a]
        if a in ("true", "false"):
            return "Bool"
        if re.fullmatch(r"\d+", a):
            return "Int"
        if re.fullmatch(r"\d+\.\d+", a):
            return "Real"
        params, ret = self.funs.get(a, (None, None))
        if params != ():
            raise SortError(f"undeclared constant {a}")
        return ret

    def want(self, got, sort, t):
        if got != sort:
            raise SortError(f"{got} where {sort} is needed in {t}")
        return got

    def same(self, got: list, t):
        if any(s != got[0] for s in got):
            raise SortError(f"mixed sorts {got} in {t}")
        return got[0]

    def numeric(self, got: list, t):
        s = self.same(got, t)
        if s not in _NUMERIC:
            raise SortError(f"{s} is not numeric in {t}")
        return s


def check_script(text: str) -> None:
    """Raise SortError unless every command of text is well-sorted."""
    checker = _Checker()
    for cmd in parse(text):
        checker.command(cmd)
