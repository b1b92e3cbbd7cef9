"""Source rules for the package: no ``assert`` statements (they vanish under
``python -O``), no bare or ``Exception``/``BaseException`` handlers (they
swallow failures that should surface), and no scipy module but
``scipy.special`` (none at all in ``fock.py``), whose imports cost more than
the rest of the package."""

import ast
from pathlib import Path

import pytest

import vacfilter

SOURCES = sorted(Path(vacfilter.__file__).parent.glob("*.py"))
BROAD = {"Exception", "BaseException"}


def _caught_names(handler: ast.ExceptHandler) -> set:
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id for t in types if isinstance(t, ast.Name)}


def violations(path: Path) -> list:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Assert):
            found.append(f"{path.name}:{node.lineno}: assert statement")
        elif isinstance(node, ast.ExceptHandler):
            if node.type is None:
                found.append(f"{path.name}:{node.lineno}: bare except")
            elif _caught_names(node) & BROAD:
                found.append(f"{path.name}:{node.lineno}: broad except")
    return found


def _imported_modules(node) -> list:
    """Absolute module names an import statement loads; ``from scipy import x``
    counts as ``scipy.x``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        if node.module == "scipy":
            return [f"scipy.{alias.name}" for alias in node.names]
        return [node.module]
    return []


def scipy_violations(path: Path) -> list:
    allowed = set() if path.name == "fock.py" else {"scipy.special"}
    nodes = sorted((node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                    if isinstance(node, (ast.Import, ast.ImportFrom))),
                   key=lambda node: node.lineno)
    return [f"{path.name}:{node.lineno}: imports {module}"
            for node in nodes for module in _imported_modules(node)
            if module.split(".")[0] == "scipy" and module not in allowed]


def test_sources_found():
    assert len(SOURCES) >= 9


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_assert_or_broad_except(path):
    assert violations(path) == []


def test_rules_catch_each_pattern(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(
        "assert True\n"
        "try:\n    pass\nexcept:\n    pass\n"
        "try:\n    pass\nexcept (ValueError, Exception):\n    pass\n"
        "try:\n    pass\nexcept BaseException:\n    raise\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
    )
    assert violations(bad) == ["bad.py:1: assert statement", "bad.py:4: bare except",
                               "bad.py:8: broad except", "bad.py:12: broad except"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_scipy_special(path):
    assert scipy_violations(path) == []


def test_scipy_rule_catches_each_pattern(tmp_path):
    lines = ("import scipy\n"
             "from scipy.linalg import expm\n"
             "import numpy, scipy.optimize as opt\n"
             "def f():\n    from scipy import special, stats\n"
             "from scipy.special import gammaln\n"
             "import scipy.special\n"
             "from .scipy import x\n")
    bad = tmp_path / "bad.py"
    bad.write_text(lines)
    assert scipy_violations(bad) == [
        "bad.py:1: imports scipy", "bad.py:2: imports scipy.linalg",
        "bad.py:3: imports scipy.optimize", "bad.py:5: imports scipy.stats"]
    fock = tmp_path / "fock.py"
    fock.write_text(lines)
    assert scipy_violations(fock) == [
        "fock.py:1: imports scipy", "fock.py:2: imports scipy.linalg",
        "fock.py:3: imports scipy.optimize", "fock.py:5: imports scipy.special",
        "fock.py:5: imports scipy.stats", "fock.py:6: imports scipy.special",
        "fock.py:7: imports scipy.special"]
