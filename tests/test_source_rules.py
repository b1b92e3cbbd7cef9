"""Source rules for the package: no ``assert`` statements (they vanish under
``python -O``), no bare or ``Exception``/``BaseException`` handlers (they
swallow failures that should surface), no scipy module but
``scipy.special`` (none at all in ``fock.py``), whose imports cost more than
the rest of the package, one writer of command output: only ``cli.main``
calls ``cli._emit``, and only ``_emit`` writes to ``sys.stdout``, and a
security layer that imports nothing from ``gaussian``, so the
Gaussian-mixture calculus stays off its hot path, no environment
variable read, so a command's behaviour depends on its argv alone, and no
definition that nothing reads but the tests written for it."""

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


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TESTS = Path(__file__).resolve().parent

# Definitions that nothing in the package or perfbench reads, each kept
# because a test compares shipped code against it: "file::function" (or
# "file::Class::method") of that test under tests/.
TEST_REFERENCES = {
    "montecarlo.verification_chi2":
        "test_acceptance.py::TestAcceptance::test_criterion_11_figure_data",
}


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _non_dunder_defs(body) -> list:
    return [node for node in body if _is_def(node) and not _is_dunder(node.name)]


def _assigned_names(node) -> list:
    """Names a module-level ``x = ...``, ``x: T = ...`` or ``x, y = ...`` binds."""
    targets = (node.targets if isinstance(node, ast.Assign)
               else [node.target] if isinstance(node, ast.AnnAssign) else [])
    return [n for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store) and not _is_dunder(n.id)]


def definitions(path: Path) -> list:
    """(line, "module.name") of each module-level function, class and assigned
    name, and (line, "module.Class.name") of each method or property; dunders,
    which Python reads by protocol, are left out."""
    body = ast.parse(path.read_text(), filename=str(path)).body
    found = [(n.lineno, f"{path.stem}.{n.id}") for node in body for n in _assigned_names(node)]
    for node in _non_dunder_defs(body):
        found.append((node.lineno, f"{path.stem}.{node.name}"))
        if isinstance(node, ast.ClassDef):
            found += [(item.lineno, f"{path.stem}.{node.name}.{item.name}")
                      for item in _non_dunder_defs(node.body)]
    return sorted(found)


def read_names(path: Path) -> tuple:
    """(bare, qualified) reads of a file.  ``bare``: every name it loads, as
    ``x`` or ``obj.x``.  ``qualified``: "module.x" for each ``x`` it loads by
    bare name (module is the file's own), imports from a module, or reads as
    an attribute of a module (``fock.x``, ``vacfilter.fock.x``).  The strings
    of a module-level ``TARGETS`` list (the tracer wraps those by name) add
    each dotted part to ``bare`` and each dotted string to ``qualified``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bare, qualified = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            bare.add(node.id)
            qualified.add(f"{path.stem}.{node.id}")
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            bare.add(node.attr)
            owner = node.value
            if isinstance(owner, (ast.Name, ast.Attribute)):
                module = owner.id if isinstance(owner, ast.Name) else owner.attr
                qualified.add(f"{module}.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.rsplit(".", 1)[-1]
            qualified |= {f"{module}.{alias.name}" for alias in node.names}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets):
            strings = {c.value for c in ast.walk(node.value)
                       if isinstance(c, ast.Constant) and isinstance(c.value, str)}
            bare |= {part for text in strings for part in text.split(".")}
            qualified |= {text for text in strings if "." in text}
    return bare, qualified


def unread_definitions(sources, readers, references) -> list:
    """Definitions in ``sources`` that no file of ``readers`` reads and
    ``references`` does not list, and ``references`` entries that are read or
    not defined.  A module-level definition counts as read by its qualified
    name (``read_names``), a method or property by its bare name, so a read of
    a same-named attribute can hide an unread method, but a read definition is
    never flagged."""
    bare, qualified = set(), set()
    for path in readers:
        path_bare, path_qualified = read_names(path)
        bare |= path_bare
        qualified |= path_qualified
    found, defined = [], set()
    for path in sources:
        for line, name in definitions(path):
            defined.add(name)
            read = name.rsplit(".", 1)[1] in bare if name.count(".") == 2 else name in qualified
            if read:
                if name in references:
                    found.append(f"{path.name}:{line}: {name} is read; drop its test reference")
            elif name not in references:
                found.append(f"{path.name}:{line}: {name} is never read")
    return found + [f"{name} is listed but not defined" for name in sorted(references)
                    if name not in defined]


def test_every_definition_is_read_or_test_referenced():
    readers = SOURCES + sorted(PERFBENCH.glob("*.py"))
    assert unread_definitions(SOURCES, readers, TEST_REFERENCES) == []


@pytest.mark.parametrize("name, test", sorted(TEST_REFERENCES.items()))
def test_each_test_reference_names_a_test_that_reads_it(name, test):
    file_name, *qualified = test.split("::")
    scope = ast.parse((TESTS / file_name).read_text())
    for part in qualified:
        scope = next(node for node in scope.body if _is_def(node) and node.name == part)
    attr = name.rsplit(".", 1)[1]
    assert any(isinstance(node, ast.Name) and node.id == attr
               or isinstance(node, ast.Attribute) and node.attr == attr
               for node in ast.walk(scope))


def test_unread_rule_catches_each_pattern(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("class Box:\n"
                   "    def __init__(self):\n        self.size = 1\n"
                   "    @property\n    def area(self):\n        return 0\n"
                   "    def grow(self):\n        return helper()\n"
                   "    def shrink(self):\n        pass\n"
                   "def helper():\n    def inner():\n        pass\n"
                   "def unread():\n    pass\n"
                   "class Unused:\n    pass\n"
                   "def stored():\n    pass\n"
                   "def traced():\n    pass\n"
                   "def kept():\n    pass\n"
                   "def listed_but_read():\n    pass\n"
                   "def __getattr__(name):\n    pass\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from mod import Box, listed_but_read\n"
                      "Box().grow()\n"
                      "listed_but_read()\n"
                      "stored = 'unread'\n"
                      "TARGETS = [('mod', 'traced', 'mod.traced', None)]\n")
    references = {"mod.kept": "test_mod.py::test_kept",
                  "mod.listed_but_read": "test_mod.py::test_read",
                  "mod.gone": "test_mod.py::test_gone"}
    assert unread_definitions([src], [src, reader], references) == [
        "mod.py:5: mod.Box.area is never read", "mod.py:9: mod.Box.shrink is never read",
        "mod.py:14: mod.unread is never read", "mod.py:16: mod.Unused is never read",
        "mod.py:18: mod.stored is never read",
        "mod.py:24: mod.listed_but_read is read; drop its test reference",
        "mod.gone is listed but not defined"]


def test_unread_rule_catches_unread_constants(tmp_path):
    src = tmp_path / "mod.py"
    src.write_text("__all__ = ['run']\n"
                   "STEP = 1e-2\n"
                   "LEVELS, TOL = 6, 1e-8\n"
                   "LIMIT: int = 3\n"
                   "COUNT: int = 0\n"
                   "TABLE = {}\n"
                   "TABLE['step'] = STEP\n"
                   "def run():\n    return LIMIT\n")
    reader = tmp_path / "reader.py"
    reader.write_text("from mod import run\nrun()\n")
    assert unread_definitions([src], [src, reader], {}) == [
        "mod.py:3: mod.LEVELS is never read", "mod.py:3: mod.TOL is never read",
        "mod.py:5: mod.COUNT is never read"]


def test_unread_rule_qualifies_module_level_reads(tmp_path):
    # a same-named function read in another module once hid mod.shared
    src = tmp_path / "mod.py"
    src.write_text("def shared():\n    pass\n"
                   "def imported():\n    pass\n"
                   "def attribute():\n    pass\n"
                   "def dotted():\n    pass\n"
                   "class Box:\n    def shared(self):\n        pass\n")
    other = tmp_path / "other.py"
    other.write_text("import pkg.mod\n"
                     "from pkg.mod import imported\n"
                     "from pkg import mod\n"
                     "def shared():\n    pass\n"
                     "shared()\n"
                     "mod.attribute()\n"
                     "pkg.mod.dotted()\n"
                     "other_mod.imported()\n"
                     "print(mod.Box)\n")
    assert unread_definitions([src], [src, other], {}) == ["mod.py:1: mod.shared is never read"]
    assert unread_definitions([src, other], [src, other], {}) == [
        "mod.py:1: mod.shared is never read"]
