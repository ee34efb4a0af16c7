"""Guards against code and state in ``src/lteusim`` that only the tests
reach.

A public module-level function or class, and a public method of any
class, must be named somewhere in the package besides its own definition,
a public module-level constant must be loaded somewhere in the package,
and every ``ScenarioConfig`` field must be read somewhere besides its
validation. Every public dataclass field and every public ``self.X =``
attribute of a class must be read somewhere in the package: an attribute
load of that name, or a string constant equal to it (``getattr`` and the
CSV column lists read fields by name). Writes do not count, and neither
do attribute loads on an imported module (``np.``, ``sys.``, ``esn.``).
The check goes by name, so a read of another object's attribute of the
same name hides an unread one. Scalar oracles and other test helpers
belong in ``tests/``.
"""

import ast
import dataclasses
from collections import Counter
from pathlib import Path

import pytest

from lteusim.scenario import ScenarioConfig

SRC = Path(__file__).resolve().parents[1] / "src" / "lteusim"

# (module, name) -> why it may stay unreferenced for now
ALLOWED = {}

# "module.Class.method" -> why it may stay unreferenced for now
ALLOWED_METHODS = {
    "game.JointEvaluator.utility_of":
        "bench/tracer.py wraps it by name until ROADMAP item 2's benchmark "
        "change",
}

# "module.Class.attr" -> why it may stay unread in the package; one entry
# per field, so a new unread field of the same class is still caught
ALLOWED_UNREAD = {
    "harness.RoundRecord.total_reward":
        "the played joint's total for callers of run(); test_harness.py "
        "checks it against the utilities",
    "harness.RoundRecord.greedy_total":
        "the greedy joint's total for callers of run()",
    "harness.RoundRecord.association":
        "the greedy serving map for callers of run(); test_harness.py's "
        "association checks read it",
    "harness.RoundRecord.user_rates":
        "the played joint's rates, built only when records are kept; "
        "test_harness.py's serving checks read it",
    "harness.MonteCarloResult.base_seed":
        "names the replications' seed to callers of monte_carlo()",
    "harness.MonteCarloResult.pooled_cdf_bps":
        "the pooled rate CDF for callers of monte_carlo()",
    "harness.MonteCarloResult.run_sum_rates":
        "per-run results, for paired per-seed comparisons of algorithms",
    "harness.MonteCarloResult.run_median_rates":
        "per-run results, for paired per-seed comparisons of algorithms",
    "harness.MonteCarloResult.run_converged_at":
        "per-run results, for paired per-seed comparisons of algorithms",
    "harness.MonteCarloResult.run_decoupled_users":
        "per-run results, for paired per-seed comparisons of algorithms",
    "game.ExpectedUtility.exact":
        "bench/tracer.py counts the exact branch of beta_expectation",
    "game.ExpectedUtility.stderr":
        "test_agents.py's three-standard-error checks of beta_expectation "
        "read it",
    "scenario.Topology.wap_positions":
        "ROADMAP item 1 removes it with its RNG draw and the golden re-pin",
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
CHECKED_METHODS = [(module, cls, node) for module, cls, node in METHODS
                   if f"{module}.{cls}.{node.name}" not in ALLOWED_METHODS]
# "module.NAME" for every module-level assignment without a leading _
CONSTANTS = [f"{module}.{target.id}" for module, tree in TREES.items()
             for node in tree.body
             if isinstance(node, (ast.Assign, ast.AnnAssign))
             for target in (node.targets if isinstance(node, ast.Assign)
                            else [node.target])
             if isinstance(target, ast.Name)
             and not target.id.startswith("_")]
# loads of a name, bare (``P_SBS_W``) or from a module (``rates.P_SBS_W``);
# the assignment that defines a constant is a store and does not count
LOADS = Counter(
    node.id if isinstance(node, ast.Name) else node.attr
    for tree in TREES.values() for node in ast.walk(tree)
    if isinstance(node, (ast.Name, ast.Attribute))
    and isinstance(node.ctx, ast.Load))


def _used_outside(name, node):
    return PACKAGE_NAMES[name] > _names(node)[name]


def _modules(tree):
    """Names ``tree`` binds to modules: ``import x`` (as ``x``, or its
    alias) and ``from . import x``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            names.update(a.asname or a.name for a in node.names)
    return names


def _on_module(node, modules):
    """Whether ``node`` is a module name or a dotted path from one."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id in modules


def _reads(tree):
    modules = _modules(tree)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and not _on_module(node.value, modules)):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


# every attribute load on an object other than an imported module, and
# every str constant in the package: the reads
READS = Counter(name for tree in TREES.values() for name in _reads(tree))


def _is_dataclass(cls):
    # @dataclass or @dataclass(...)
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
               == "dataclass" for d in cls.decorator_list)


def _attributes(cls):
    """Public dataclass fields and public ``self.X`` targets of ``cls``."""
    names = []
    if _is_dataclass(cls):
        names += [stmt.target.id for stmt in cls.body
                  if isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)]
    names += [node.attr for node in ast.walk(cls)
              if isinstance(node, ast.Attribute)
              and isinstance(node.ctx, ast.Store)
              and isinstance(node.value, ast.Name) and node.value.id == "self"]
    return [name for name in dict.fromkeys(names) if not name.startswith("_")]


# "module.Class.attr" for every attribute the rule covers
ATTRIBUTES = [f"{module}.{cls.name}.{name}"
              for module, tree in TREES.items()
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for name in _attributes(cls)]


def _unread(attribute):
    return READS[attribute.rsplit(".", 1)[1]] == 0


@pytest.mark.parametrize(
    "module,node", CHECKED,
    ids=[f"{module}.{node.name}" for module, node in CHECKED])
def test_public_name_is_used_in_the_package(module, node):
    assert _used_outside(node.name, node), (
        f"{module}.{node.name} is named nowhere else in src/lteusim; "
        "move it to tests/ or delete it")


@pytest.mark.parametrize(
    "module,cls,node", CHECKED_METHODS,
    ids=[f"{module}.{cls}.{node.name}"
         for module, cls, node in CHECKED_METHODS])
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


@pytest.mark.parametrize("entry", sorted(ALLOWED_METHODS))
def test_method_allowlist_is_current(entry):
    # an entry goes once its method is used, or gone
    found = [node for module, cls, node in METHODS
             if f"{module}.{cls}.{node.name}" == entry]
    assert len(found) == 1, entry
    assert not _used_outside(found[0].name, found[0]), entry


@pytest.mark.parametrize(
    "attribute", [a for a in ATTRIBUTES if a not in ALLOWED_UNREAD])
def test_public_attribute_is_read_in_the_package(attribute):
    assert not _unread(attribute), (
        f"nothing in src/lteusim reads {attribute}; delete it")


@pytest.mark.parametrize("constant", CONSTANTS)
def test_public_constant_is_read_in_the_package(constant):
    assert LOADS[constant.rsplit(".", 1)[1]] > 0, (
        f"nothing in src/lteusim reads {constant}; move it to tests/ or "
        "delete it")


@pytest.mark.parametrize("entry", sorted(ALLOWED_UNREAD))
def test_unread_allowlist_is_current(entry):
    # an entry goes once its attribute is read, or gone
    assert entry in ATTRIBUTES and _unread(entry), entry


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
