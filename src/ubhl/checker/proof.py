"""Proof scripts: an explicit derivation tree in JSON.

Schema (docs/formats.md):
  {
    "logicals": {"beta": "real", "Q": "int", "R0": "set<int>"},
    "entry": {"proc": "main", "arg": "0", "result": "res"},
    "root": { "rule": ..., "pre": ..., "post": ..., "index": ...,
              ...rule-specific annotations..., "children": [...] }
  }
Assertions and indices use the same concrete syntax as program files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from ..lang.parser import Parser, UbhlSyntaxError
from ..lang.ast import Type

RULES = {"skip", "assn", "rand", "seq", "if", "while", "call", "ext",
         "weak", "frame", "and", "or", "false"}


@dataclass
class ProofNode:
    rule: str
    pre: str
    post: str
    index: str
    children: list["ProofNode"] = field(default_factory=list)
    annotations: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        out: dict[str, Any] = {"rule": self.rule, "pre": self.pre,
                               "post": self.post, "index": self.index}
        out.update(self.annotations)
        if self.children:
            out["children"] = [c.to_dict() for c in self.children]
        return out

    @staticmethod
    def from_dict(d: dict) -> "ProofNode":
        rule = d.get("rule")
        if rule not in RULES:
            raise ValueError(f"unknown proof rule {rule!r}")
        ann = {k: v for k, v in d.items()
               if k not in ("rule", "pre", "post", "index", "children")}
        return ProofNode(
            rule=rule,
            pre=d.get("pre", "true"),
            post=d.get("post", "true"),
            index=d.get("index", "0"),
            children=[ProofNode.from_dict(c) for c in d.get("children", [])],
            annotations=ann,
        )


@dataclass
class ProofScript:
    logicals: dict[str, Type]
    entry: dict[str, str]           # proc, arg, result
    root: ProofNode

    def to_json(self) -> str:
        logicals = {k: str(t) for k, t in self.logicals.items()}
        return json.dumps({"logicals": logicals, "entry": self.entry,
                           "root": self.root.to_dict()}, indent=1)

    @staticmethod
    def from_json(text: str) -> "ProofScript":
        d = json.loads(text)
        logicals: dict[str, Type] = {}
        for name, tstr in d.get("logicals", {}).items():
            p = Parser(tstr)
            logicals[name] = p.parse_type()
            t = p.peek()
            if t.kind != "eof":
                raise UbhlSyntaxError(f"bad sort for logical {name!r}", t.line, t.col)
        entry = d.get("entry")
        if not entry or "proc" not in entry:
            raise ValueError("proof script needs an entry procedure")
        entry.setdefault("arg", "0")
        entry.setdefault("result", "res")
        return ProofScript(logicals=logicals, entry=entry,
                           root=ProofNode.from_dict(d["root"]))
