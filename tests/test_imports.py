"""Import rules for the package, each checked in a fresh interpreter: a
command loads only the scipy modules it uses, and ``import vacfilter``
loads no submodule until one of its public names is read."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vacfilter

SRC = Path(vacfilter.__file__).resolve().parent.parent
HEAVY_SCIPY = {"scipy.linalg", "scipy.optimize", "scipy.stats"}

# Runs one statement, then prints the loaded scipy and vacfilter modules as
# the last line of standard output.
PROBE = """
import json, sys
exec(sys.argv[1])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "vacfilter"))))
"""


def probe(statement: str) -> list:
    """Standard output lines of PROBE run on ``statement``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE, statement], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def loaded_after(statement: str) -> set:
    return set(json.loads(probe(statement)[-1]))


def scipy_loaded(statement: str) -> set:
    return {m for m in loaded_after(statement) if m.split(".")[0] == "scipy"}


def cli_run(*argv: str) -> str:
    return f"from vacfilter.cli import main\nif main({list(argv)!r}): sys.exit('command failed')"


@pytest.mark.parametrize("statement", [
    "import vacfilter.qkd",
    cli_run("qkd", "pmin", "--eta", "0.63", "--pd", "5e-4"),
    cli_run("qkd", "keyrate", "--optimize", "--p", "0.5", "--eta", "0.63", "--pd", "5e-4"),
    cli_run("qkd", "keyrate", "--eta", "0.63", "--pd", "5e-4"),
], ids=["import-qkd", "qkd-pmin", "qkd-keyrate-optimize", "qkd-keyrate"])
def test_security_path_loads_no_scipy(statement):
    assert scipy_loaded(statement) == set()


@pytest.mark.parametrize("statement", [
    cli_run("acceptance", "--detector", "hdr", "--eta", "0.63", "--match-error", "5.3e-3"),
    cli_run("gain", "--detector", "hds", "--eta", "0.63", "--match-error", "5.3e-3",
            "--p", "0.02"),
], ids=["acceptance", "gain"])
def test_closed_form_tables_load_only_scipy_special(statement):
    loaded = loaded_after(statement)
    assert "scipy.special" in loaded
    assert loaded & HEAVY_SCIPY == set()


@pytest.mark.parametrize("statement", [
    "import vacfilter.fock",
    cli_run("oracle", "noclick"),
    cli_run("oracle", "coherent"),
], ids=["import-fock", "oracle-noclick", "oracle-coherent"])
def test_fock_path_loads_no_scipy(statement):
    assert scipy_loaded(statement) == set()


@pytest.mark.parametrize("argv", [
    None,
    ["simulate", "--detector", "apd", "--eta", "0.8", "--pd", "1e-3", "--p", "0.5",
     "--alpha-sq", "2", "--trials", "1000", "--error-target", "0.01"],
    ["figures", "fig3", "--trials", "2000", "--out", "{tmp}"],
], ids=["import-montecarlo", "simulate-error-target", "figures-fig3"])
def test_montecarlo_path_loads_only_scipy_special(argv, tmp_path):
    statement = ("import vacfilter.montecarlo" if argv is None else
                 cli_run(*(a.format(tmp=tmp_path / "fig3.csv") for a in argv)))
    loaded = scipy_loaded(statement)
    assert "scipy.special" in loaded
    assert loaded & HEAVY_SCIPY == set()


def test_package_import_loads_no_submodule():
    assert loaded_after("import vacfilter") == {"vacfilter"}


def test_public_names_resolve_on_first_use():
    statement = """
import vacfilter
vacfilter.Apd
first = sorted(m for m in sys.modules if m.startswith("vacfilter."))
owners = {}
for name in vacfilter.__all__:
    obj = getattr(vacfilter, name)
    if getattr(sys.modules[obj.__module__], name) is not obj or name not in dir(vacfilter):
        sys.exit(f"{name} does not resolve to {obj.__module__}.{name}")
    owners[name] = obj.__module__
try:
    vacfilter.no_such_name
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps([first, sorted(set(owners.values())), unknown]))
"""
    first, owners, unknown = json.loads(probe(statement)[-2])
    assert first == ["vacfilter.detectors"]
    assert owners == [f"vacfilter.{m}" for m in
                      ("detectors", "gaussian", "metrics", "montecarlo", "qkd", "signal_model")]
    assert "no_such_name" in unknown
