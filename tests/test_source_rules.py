"""Source rules for the package: no ``assert`` statements (they vanish under
``python -O``), no bare or ``Exception``/``BaseException`` handlers (they
swallow failures that should surface), no scipy module but
``scipy.special`` (none at all in ``fock.py``), whose imports cost more than
the rest of the package, one writer of command output: only ``cli.main``
calls ``cli._emit``, and only ``_emit`` writes to ``sys.stdout``, and a
security layer that imports nothing from ``gaussian``, so the
Gaussian-mixture calculus stays off its hot path, and no environment
variable read, so a command's behaviour depends on its argv alone."""

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


def _scoped(node, scope=None):
    """(innermost enclosing function name, node) for every node below ``node``."""
    for child in ast.iter_child_nodes(node):
        yield scope, child
        inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
        yield from _scoped(child, inner)


def _writes_stdout(node) -> bool:
    if isinstance(node, ast.Attribute):
        return (node.attr == "stdout" and isinstance(node.value, ast.Name)
                and node.value.id == "sys")
    if isinstance(node, ast.ImportFrom):
        return node.module == "sys" and any(alias.name == "stdout" for alias in node.names)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "print" and not any(kw.arg == "file" for kw in node.keywords))


def output_violations(path: Path) -> list:
    """References to ``_emit`` outside ``cli.main``, and stdout writes (``sys.stdout``,
    ``from sys import stdout``, ``print`` without ``file=``) outside ``cli._emit``."""
    in_cli = path.name == "cli.py"
    found = []
    for scope, node in _scoped(ast.parse(path.read_text(), filename=str(path))):
        emit = (isinstance(node, ast.Name) and node.id == "_emit"
                or isinstance(node, ast.Attribute) and node.attr == "_emit")
        if emit and not (in_cli and scope == "main"):
            found.append(f"{path.name}:{node.lineno}: refers to _emit")
        elif _writes_stdout(node) and not (in_cli and scope == "_emit"):
            found.append(f"{path.name}:{node.lineno}: writes to sys.stdout")
    return found


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_main_emits_and_only_emit_writes_stdout(path):
    assert output_violations(path) == []


def test_output_rule_catches_each_pattern(tmp_path):
    lines = ("import sys\n"
             "from sys import stdout\n"
             "def _emit(args):\n    sys.stdout.write('x')\n    print('y', file=sys.stderr)\n"
             "def main():\n    _emit(None)\n    print('z')\n"
             "def cmd_x(args):\n    _emit(args)\n    sys.stdout.write('w')\n"
             "    return cli._emit\n")
    cli = tmp_path / "cli.py"
    cli.write_text(lines)
    assert output_violations(cli) == [
        "cli.py:2: writes to sys.stdout", "cli.py:8: writes to sys.stdout",
        "cli.py:10: refers to _emit", "cli.py:11: writes to sys.stdout",
        "cli.py:12: refers to _emit"]
    other = tmp_path / "other.py"
    other.write_text(lines)
    assert output_violations(other) == [
        "other.py:2: writes to sys.stdout", "other.py:4: writes to sys.stdout",
        "other.py:7: refers to _emit", "other.py:8: writes to sys.stdout",
        "other.py:10: refers to _emit", "other.py:11: writes to sys.stdout",
        "other.py:12: refers to _emit"]


def gaussian_import_violations(path: Path) -> list:
    """Imports of ``vacfilter.gaussian`` or of any of its names.  Relative
    imports are read as ``vacfilter`` ones."""
    nodes = sorted((node for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
                    if isinstance(node, (ast.Import, ast.ImportFrom))),
                   key=lambda node: node.lineno)
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            found += [f"{path.name}:{node.lineno}: imports gaussian"
                      for alias in node.names if alias.name == "vacfilter.gaussian"]
            continue
        module = ".".join(filter(None, ("vacfilter" if node.level else "", node.module)))
        for alias in node.names:
            if module == "vacfilter" and alias.name == "gaussian":
                found.append(f"{path.name}:{node.lineno}: imports gaussian")
            elif module == "vacfilter.gaussian":
                found.append(f"{path.name}:{node.lineno}: imports gaussian.{alias.name}")
    return found


def test_qkd_imports_nothing_from_gaussian():
    assert gaussian_import_violations(Path(vacfilter.__file__).parent / "qkd.py") == []


def test_gaussian_rule_catches_each_pattern(tmp_path):
    bad = tmp_path / "qkd.py"
    bad.write_text("from . import gaussian\n"
                   "from .gaussian import (\n    CovMatrix,\n    NumericsError,\n"
                   "    entropy_g,\n)\n"
                   "import numpy, vacfilter.gaussian as g\n"
                   "from vacfilter import fock, gaussian\n"
                   "def f():\n    from vacfilter.gaussian import symplectic_eigenvalues\n"
                   "from .fock import tmsv_state\n"
                   "from .qkd import NumericsError, entropy_g\n")
    assert gaussian_import_violations(bad) == [
        "qkd.py:1: imports gaussian", "qkd.py:2: imports gaussian.CovMatrix",
        "qkd.py:2: imports gaussian.NumericsError", "qkd.py:2: imports gaussian.entropy_g",
        "qkd.py:7: imports gaussian", "qkd.py:8: imports gaussian",
        "qkd.py:10: imports gaussian.symplectic_eigenvalues"]


ENVIRON = {"environ", "environb", "getenv", "getenvb"}


def environ_violations(path: Path) -> list:
    """Reads of the environment: ``os.environ`` (also ``.get`` and indexing),
    ``os.getenv`` and their bytes twins, and ``from os import`` of any of them."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if (isinstance(node, ast.Attribute) and node.attr in ENVIRON
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            found.append((node.lineno, f"reads os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [(node.lineno, f"imports os.{alias.name}")
                      for alias in node.names if alias.name in ENVIRON]
    return [f"{path.name}:{line}: {what}" for line, what in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_environment_variable_read(path):
    assert environ_violations(path) == []


def test_environ_rule_catches_each_pattern(tmp_path):
    bad = tmp_path / "cli.py"
    bad.write_text("import os\n"
                   "from os import environ, path\n"
                   "def f():\n"
                   "    a = os.environ.get('VACFILTER_CONFIG')\n"
                   "    b = os.environ['HOME']\n"
                   "    c = os.getenv('PATH')\n"
                   "    return os.path.join(a, b, c), os.fstat(1), environ\n")
    assert environ_violations(bad) == [
        "cli.py:2: imports os.environ", "cli.py:4: reads os.environ",
        "cli.py:5: reads os.environ", "cli.py:6: reads os.getenv"]
