"""The public names: every name a module lists in __all__ resolves, and
every name the package re-exports is public in the module it comes from."""

import ast
import importlib
import inspect
import pkgutil

import pytest

import bowlab

MODULES = ["bowlab"] + [f"bowlab.{m.name}" for m in pkgutil.iter_modules(bowlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_listed_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_reexports_are_public_in_their_module():
    imports = [node for node in ast.parse(inspect.getsource(bowlab)).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"bowlab.{node.module}")
        assert [a.name for a in node.names if a.name not in module.__all__] == [], node.module
