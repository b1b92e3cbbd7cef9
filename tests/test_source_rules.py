"""Source rules for the package: no ``assert`` statements (they vanish under
``python -O``) and no bare or ``Exception``/``BaseException`` handlers (they
swallow failures that should surface)."""

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
