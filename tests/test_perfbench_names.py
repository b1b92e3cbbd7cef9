"""The package names the benchmark harness reads resolve.

``perfbench/tracer.py`` wraps ``TARGETS`` by name, and ``workloads.py`` and
``run.py`` call package functions by attribute; a rename in the package
would otherwise surface only when the benchmark or its tracer runs.  The
harness files are read with ``ast``, not imported."""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = {"cli", "fock", "gaussian", "montecarlo"}


def _tree(name: str) -> ast.Module:
    path = PERFBENCH / name
    return ast.parse(path.read_text(), filename=str(path))


def _targets() -> list:
    """The (module, attribute) pairs of the tracer's ``TARGETS`` list."""
    for node in _tree("tracer.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            return [(entry.elts[0].value, entry.elts[1].value) for entry in node.value.elts]
    raise LookupError("perfbench/tracer.py defines no TARGETS list")


def _attribute_uses(name: str) -> set:
    """(module, attribute) for each ``cli.x``-style use of a package module,
    also spelled ``vacfilter.cli.x``."""
    uses = set()
    for node in ast.walk(_tree(name)):
        if not isinstance(node, ast.Attribute):
            continue
        owner = node.value
        if isinstance(owner, ast.Name) and owner.id in MODULES:
            uses.add((owner.id, node.attr))
        elif (isinstance(owner, ast.Attribute) and isinstance(owner.value, ast.Name)
              and owner.value.id == "vacfilter"):
            uses.add((owner.attr, node.attr))
    return uses


def _imported_names(name: str) -> set:
    """(module, name) for each ``from vacfilter... import name`` and each
    ``import vacfilter...``; the module is relative to the package."""
    names = set()
    for node in ast.walk(_tree(name)):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "vacfilter":
            sub = node.module.partition(".")[2]
            names.update((sub, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update((alias.name.partition(".")[2], None) for alias in node.names
                         if alias.name.split(".")[0] == "vacfilter")
    return names


def _resolve(module: str, attr):
    owner = importlib.import_module(f"vacfilter.{module}" if module else "vacfilter")
    if attr is None:
        return owner
    head, _, method = attr.partition(".")
    if not hasattr(owner, head):  # ``from vacfilter import cli`` names a submodule
        return importlib.import_module(f"{owner.__name__}.{head}")
    value = getattr(owner, head)
    return vars(value)[method] if method else value  # the tracer patches the class dict


def _ids(pairs) -> list:
    return [".".join(filter(None, ("vacfilter", module, attr))) for module, attr in pairs]


TARGETS = _targets()
ATTRIBUTES = sorted(_attribute_uses("workloads.py") | _attribute_uses("run.py"))
IMPORTS = sorted(_imported_names("workloads.py") | _imported_names("run.py")
                 | _imported_names("tracer.py"), key=str)


def test_the_harness_reads_names_from_every_module_it_imports():
    # the scan finds what the harness is known to use, so an empty scan fails
    assert {module for module, _ in _attribute_uses("workloads.py")} == MODULES
    assert ("cli", "build_parser") in ATTRIBUTES
    assert ("montecarlo", "run_trials") in TARGETS


@pytest.mark.parametrize("module, attr", TARGETS, ids=_ids(TARGETS))
def test_tracer_targets_resolve(module, attr):
    assert callable(_resolve(module, attr))


@pytest.mark.parametrize("module, attr", ATTRIBUTES, ids=_ids(ATTRIBUTES))
def test_module_attributes_resolve(module, attr):
    _resolve(module, attr)


@pytest.mark.parametrize("module, name", IMPORTS, ids=_ids(IMPORTS))
def test_imported_names_resolve(module, name):
    _resolve(module, name)
