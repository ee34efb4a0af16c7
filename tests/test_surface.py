"""Guards against code in ``src/lteusim`` that only the tests reach.

A public module-level function or class, and a public method of any
class, must be named somewhere in the package besides its own definition,
and every ``ScenarioConfig`` field must be read somewhere besides its
validation. Scalar oracles and other test helpers belong in ``tests/``.
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import pytest

from lteusim.scenario import ScenarioConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "lteusim"

# (module, name) -> why it may stay unreferenced for now
ALLOWED = {
    ("game", "expected_utility"):
        "ROADMAP item 6 makes it the shared expectation routine of "
        "verify_mixed_ne",
}

TREES = {path.stem: ast.parse(path.read_text())
         for path in sorted(SRC.glob("*.py"))}


def _names(tree):
    """Every Name id and Attribute attr under ``tree``, with multiplicity."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
    return names


PACKAGE_NAMES = sum((_names(tree) for tree in TREES.values()), Counter())

DEFINITIONS = [(module, node) for module, tree in TREES.items()
               for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_")]
CHECKED = [(module, node) for module, node in DEFINITIONS
           if (module, node.name) not in ALLOWED]
# (module, class name, method) for every method without a leading _
METHODS = [(module, cls.name, node) for module, tree in TREES.items()
           for cls in tree.body if isinstance(cls, ast.ClassDef)
           for node in cls.body
           if isinstance(node, ast.FunctionDef)
           and not node.name.startswith("_")]


def _used_outside(name, node):
    return PACKAGE_NAMES[name] > _names(node)[name]


@pytest.mark.parametrize(
    "module,node", CHECKED,
    ids=[f"{module}.{node.name}" for module, node in CHECKED])
def test_public_name_is_used_in_the_package(module, node):
    assert _used_outside(node.name, node), (
        f"{module}.{node.name} is named nowhere else in src/lteusim; "
        "move it to tests/ or delete it")


@pytest.mark.parametrize(
    "module,cls,node", METHODS,
    ids=[f"{module}.{cls}.{node.name}" for module, cls, node in METHODS])
def test_public_method_is_used_in_the_package(module, cls, node):
    assert _used_outside(node.name, node), (
        f"{module}.{cls}.{node.name} is named nowhere else in src/lteusim; "
        "move it to tests/ or delete it")


def test_allowlist_is_current():
    # an entry goes once its name is used, or gone
    allowed = [(module, node) for module, node in DEFINITIONS
               if (module, node.name) in ALLOWED]
    assert len(allowed) == len(ALLOWED)
    for module, node in allowed:
        assert not _used_outside(node.name, node), (module, node.name)


def test_every_config_field_is_read():
    config_class = next(node for node in TREES["scenario"].body
                        if isinstance(node, ast.ClassDef)
                        and node.name == "ScenarioConfig")
    validation = next(node for node in config_class.body
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "__post_init__")
    # the field declarations are names too
    own = _names(validation) + Counter(
        stmt.target.id for stmt in config_class.body
        if isinstance(stmt, ast.AnnAssign))
    unread = [f.name for f in dataclasses.fields(ScenarioConfig)
              if PACKAGE_NAMES[f.name] <= own[f.name]]
    assert unread == []
