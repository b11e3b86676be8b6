"""Every name a `ubhl` package exports in `__all__` resolves, so
deleting a function cannot leave a dangling export."""

import importlib
import pkgutil

import pytest

import ubhl

PACKAGES = sorted(m.name for m in pkgutil.walk_packages(ubhl.__path__, "ubhl.")
                  if m.ispkg)


def test_every_subpackage_is_listed():
    assert PACKAGES == ["ubhl.assertions", "ubhl.cases", "ubhl.checker", "ubhl.dp",
                        "ubhl.embed", "ubhl.lang", "ubhl.semantics"]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported))
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing
