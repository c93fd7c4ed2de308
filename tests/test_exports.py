"""The public names: every name a module lists in __all__ resolves,
every name the package re-exports is public in the module it comes from,
and every public function or class is used outside the tests or is
listed, with its reason, as kept."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


ROOT = Path(__file__).resolve().parent.parent
# the files whose use makes a public name needed
USERS = sorted([*(ROOT / "src" / "bowlab").glob("*.py"), *(ROOT / "demos").glob("*.py"),
                *(ROOT / "benchmark").glob("*.py"), ROOT / "tests" / "test_acceptance.py"])
# public names that nothing in USERS references, each with why it stays
UNUSED_BUT_KEPT = {
    "triangle_gauge_action": "the bit-for-bit reference for gauge_action in "
                             "test_action_differential_columns",
    "moment_differential": "BENCHMARK.json's per_layer metrics name it",
    "from_quiver_point": "the public inverse of the reduction, by which tests pin "
                         "solve_fiber's lift",
}


def _references(node, inside=frozenset()) -> set:
    """Every name and attribute node under node, except the uses of a
    function or class name inside that function's or class's own body."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    found = set()
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    found -= inside
    for child in ast.iter_child_nodes(node):
        found |= _references(child, inside)
    return found


def test_every_public_function_and_class_has_a_user():
    used = set().union(*(_references(ast.parse(path.read_text(encoding="utf-8")))
                         for path in USERS))
    public = set()
    for name in MODULES:
        module = importlib.import_module(name)
        public |= {n for n in module.__all__ if inspect.isfunction(getattr(module, n))
                   or inspect.isclass(getattr(module, n))}
    assert sorted(public - used) == sorted(UNUSED_BUT_KEPT)
