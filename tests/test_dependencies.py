"""The package imports only the standard library and numpy, reads no
environment variable (the sieve budget is set by ``--budget`` alone),
and computes nothing at import."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import polignac

MODULES = sorted(Path(polignac.__file__).parent.glob("*.py"))
ENVIRONMENT_READS = {"environ", "environb", "getenv", "getenvb"}


def test_every_module_is_checked():
    assert {m.stem for m in MODULES} >= {"arith", "census", "cli", "primepairs", "wheel"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_imports_are_stdlib_numpy_or_relative(module):
    for node in ast.walk(ast.parse(module.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.partition(".")[0]
            assert top in sys.stdlib_module_names or top == "numpy", (module.name, name)


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_no_environment_reads(module):
    for node in ast.walk(ast.parse(module.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            assert not (node.value.id == "os" and node.attr in ENVIRONMENT_READS), (
                module.name, node.lineno
            )
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            assert not {a.name for a in node.names} & ENVIRONMENT_READS, module.name


def test_import_sieves_nothing():
    # A fresh interpreter: this process's prime table is already full.
    # Every process that imports polignac pays for what runs at import.
    probe = (
        "import polignac, polignac.cli\n"
        "from polignac import arith\n"
        "print(len(arith._PRIMES), len(arith._PRIMORIALS))"
    )
    src = str(Path(polignac.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.split() == ["0", "0"]
