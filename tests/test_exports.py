"""Every name a `ubhl` package exports in `__all__` resolves, so
deleting a function cannot leave a dangling export, every name defined
in `src/` is used somewhere, so dead code cannot pile up, and the
prover stays within its line budget."""

import ast
import importlib
import pkgutil
import sys
from collections import Counter
from pathlib import Path

import pytest

import ubhl

PACKAGES = sorted(m.name for m in pkgutil.walk_packages(ubhl.__path__, "ubhl.")
                  if m.ispkg)


def test_every_subpackage_is_listed():
    assert PACKAGES == ["ubhl.assertions", "ubhl.cases", "ubhl.checker", "ubhl.dp",
                        "ubhl.embed", "ubhl.lang", "ubhl.semantics"]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name, monkeypatch):
    """A lazy package (one with a module `__getattr__`) loads each name
    on first use; this test forgets the names it has loaded so far, so
    every lookup below goes through that path."""
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    if "__getattr__" in vars(module):
        for n in exported:
            monkeypatch.delitem(vars(module), n, raising=False)
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing
    # each name is the object its defining module holds
    for n in exported:
        value = getattr(module, n)
        owner = getattr(value, "__module__", None)
        if owner is not None:
            assert getattr(sys.modules[owner], n) is value, n
    star = {}
    exec(f"from {name} import *", star)
    assert all(star[n] is getattr(module, n) for n in exported)
    assert set(exported) <= set(dir(module))
    with pytest.raises(AttributeError):
        module.no_such_name


# a name the code reaches only by string: the kernel dispatches each
# proof rule through getattr(self, "_rule_" + rule)
DISPATCHED = ("Checker._rule_",)
REPO = Path(__file__).resolve().parent.parent


def _definitions(tree: ast.Module):
    """(qualified name, bare name, definition node) of every module-level
    def, class and constant, and of every method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    yield t.id, t.id, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    yield f"{node.name}.{sub.name}", sub.name, sub


def _references(tree: ast.Module, path: Path) -> list[tuple[str, int, bool]]:
    """Every name the code mentions, with its line and whether it is
    read as an attribute: variables, attributes and imported names. A
    package's `__init__` only re-exports what it imports, so its imports
    are not uses."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.append((node.id, node.lineno, False))
        elif isinstance(node, ast.Attribute):
            out.append((node.attr, node.lineno, True))
        elif isinstance(node, ast.ImportFrom) and path.name != "__init__.py":
            out.extend((alias.name, node.lineno, False) for alias in node.names)
    return out


def test_every_src_name_is_referenced_outside_its_definition():
    """A method counts as used only where it is read as an attribute, so
    a local variable of the same name does not keep it alive. Dunders are
    exempt, module-level ones too: the interpreter reaches a class's
    `__eq__` or a module's `__getattr__` by protocol, and tools read
    `__version__`."""
    trees = {p: ast.parse(p.read_text()) for d in ("src", "tests", "bench")
             for p in sorted((REPO / d).rglob("*.py"))}
    refs = {p: _references(tree, p) for p, tree in trees.items()}
    uses = Counter(name for found in refs.values() for name, _, _ in found)
    attr_uses = Counter(name for found in refs.values() for name, _, attr in found if attr)
    dead = []
    for path, tree in trees.items():
        if REPO / "src" not in path.parents:
            continue
        for qualified, name, node in _definitions(tree):
            if name.startswith("__") or qualified.startswith(DISPATCHED):
                continue
            method = qualified != name
            inside = sum(1 for n, line, attr in refs[path]
                         if n == name and (attr or not method)
                         and node.lineno <= line <= node.end_lineno)
            if (attr_uses if method else uses)[name] == inside:
                dead.append(f"{path.relative_to(REPO)}:{node.lineno} {qualified}")
    assert not dead


# the prover is the largest module of the trusted base; a change that
# grows it past this has to shrink it elsewhere
PROVER_MAX_LINES = 1060


def test_prover_stays_within_its_line_budget():
    lines = len((REPO / "src" / "ubhl" / "assertions" / "prover.py").read_text().splitlines())
    assert lines <= PROVER_MAX_LINES, f"prover.py has {lines} lines, over {PROVER_MAX_LINES}"
