"""Runtime values and immutable memories.

All numerics are exact: ints stay ints, reals are Fractions. Arrays are
total maps with a per-type default, so reads never fail. Memories are
hashable so sub-distributions can key on them.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Any, Iterable, Optional

from ..dp.queries import Database, Query
from ..lang.ast import (
    INT, ArrayT, BoolT, DbT, IntT, QueryT, RealT, SetIntT, Type, _keeps_hash,
)


@_keeps_hash
@dataclass(frozen=True)
class ArrayVal:
    """Total map int -> value with a default; `items` is sorted by index."""
    default: Any
    items: tuple[tuple[int, Any], ...] = ()

    def get(self, idx: int) -> Any:
        for k, v in self.items:
            if k == idx:
                return v
        return self.default

    def set(self, idx: int, value: Any) -> "ArrayVal":
        items = self.items
        if items and idx <= items[-1][0]:
            m = dict(items)
            if value == self.default and idx not in m:
                return self
            m[idx] = value
            return ArrayVal(self.default, tuple(sorted(m.items())))
        # past the last index: appending keeps the items sorted
        return self if value == self.default else ArrayVal(self.default, items + ((idx, value),))


Value = Any  # bool | int | Fraction | frozenset[int] | ArrayVal | Query | Database


def default_value(t: Type) -> Value:
    if isinstance(t, BoolT):
        return False
    if isinstance(t, IntT):
        return 0
    if isinstance(t, RealT):
        return Fraction(0)
    if isinstance(t, SetIntT):
        return frozenset()
    if isinstance(t, ArrayT):
        return ArrayVal(default_value(t.elem))
    if isinstance(t, QueryT):
        return Query(Fraction(0), ())
    if isinstance(t, DbT):
        return Database(())
    raise TypeError(f"no default for type {t}")


def parse_value(t: Type, text: str) -> Value:
    """The value of sort `t` that `text` writes: a real as a decimal or
    a fraction such as 1/3, any other sort as JSON: an int, `true` or
    `false`, a set<int> or an array as a list of its elements, an
    array's from index 0. A query or db has no written form. Raises
    ValueError."""
    try:
        if isinstance(t, RealT):
            return Fraction(text)
        return _json_value(t, json.loads(text, parse_float=Fraction))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"{text!r} is not a value of sort {t}") from None


def _json_value(t: Type, v: Any) -> Value:
    if isinstance(t, SetIntT) and isinstance(v, list):
        return frozenset(_json_value(INT, x) for x in v)
    if isinstance(t, ArrayT) and isinstance(v, list):
        arr = ArrayVal(default_value(t.elem))
        for i, x in enumerate(v):
            arr = arr.set(i, _json_value(t.elem, x))
        return arr
    # JSON true and false are not numbers
    if isinstance(t, BoolT) and isinstance(v, bool) or isinstance(t, IntT) and type(v) is int:
        return v
    if isinstance(t, RealT) and type(v) in (int, Fraction):
        return Fraction(v)
    raise ValueError(v)


class Memory:
    """Immutable internal store; external stores are plain dicts owned
    by the trial runner (adversaries mutate them freely)."""

    __slots__ = ("_items", "_hash", "error")

    def __init__(self, items: Iterable[tuple[str, Value]] = (), error: bool = False):
        self._items = tuple(sorted(dict(items).items()))
        self.error = error
        self._hash: Optional[int] = None

    @classmethod
    def _of_sorted(cls, items: tuple[tuple[str, Value], ...], error: bool = False) -> "Memory":
        m = object.__new__(cls)
        m._items, m.error, m._hash = items, error, None
        return m

    @classmethod
    def of_written(cls, items: tuple[tuple[str, Value], ...], seeded: int) -> "Memory":
        """The memory over the items of a store (a dict) that was seeded
        with `seeded` names in sorted order and then only written: they
        are still in order unless a write added a name, and only then
        are they sorted."""
        return cls._of_sorted(items if len(items) == seeded else tuple(sorted(items)))

    @staticmethod
    def error_memory() -> "Memory":
        return Memory((), error=True)

    def get(self, name: str) -> Value:
        for k, v in self._items:
            if k == name:
                return v
        raise KeyError(name)

    def set(self, name: str, value: Value) -> "Memory":
        items = self._items
        i = bisect_left(items, name, key=itemgetter(0))
        j = i + 1 if i < len(items) and items[i][0] == name else i
        return Memory._of_sorted(items[:i] + ((name, value),) + items[j:], self.error)

    def to_dict(self) -> dict[str, Value]:
        return dict(self._items)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Memory) and self._items == other._items
                and self.error == other.error)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._items, self.error))
        return self._hash

    def __repr__(self) -> str:
        if self.error:
            return "Memory(<error>)"
        inner = ", ".join(f"{k}={v}" for k, v in self._items)
        return f"Memory({inner})"
