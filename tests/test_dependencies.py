"""The package imports only the standard library and numpy, reads no
environment variable (the sieve budget is set by ``--budget`` alone),
computes nothing and starts no thread at import, and has no public name
that only its own tests reach."""

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


POOL_MODULES = {"concurrent", "multiprocessing"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.name)
def test_no_pool_import_at_module_level(module):
    # A pool module is imported by the pass that uses it, so importing
    # the package imports none and starts no thread.  Everything outside
    # a function body runs at import, so only function bodies are skipped.
    nodes = [ast.parse(module.read_text())]
    while nodes:
        node = nodes.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        nodes += ast.iter_child_nodes(node)
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        assert not {name.partition(".")[0] for name in names} & POOL_MODULES, (
            module.name, node.lineno
        )


def test_import_starts_no_thread():
    probe = (
        "import sys, threading\n"
        "import polignac, polignac.cli\n"
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)"
    )
    src = str(Path(polignac.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout
    assert out.split() == ["1", "False"]


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


def test_import_runs_no_package_function():
    # Defining names is all an import does: no function of the package
    # runs, so no table, array or constant is computed at import.  A
    # fresh interpreter traces every call into the package's files;
    # module and class bodies are not functions (no CO_NEWLOCALS), and
    # comprehensions and lambdas are skipped by their '<...>' names.
    src = Path(polignac.__file__).parent
    probe = (
        "import inspect, sys\n"
        "calls = []\n"
        "def trace(frame, event, arg):\n"
        "    code = frame.f_code\n"
        f"    if (event == 'call' and code.co_filename.startswith({str(src)!r})\n"
        "            and code.co_flags & inspect.CO_NEWLOCALS and code.co_name[0] != '<'):\n"
        "        calls.append(code.co_qualname)\n"
        "sys.setprofile(trace)\n"
        "import polignac, polignac.cli\n"
        "sys.setprofile(None)\n"
        "print(calls)"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src.parent)},
    ).stdout
    assert out == "[]\n"


def _public_definitions(module):
    """Public top-level functions, classes and constants of a module."""
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def _references(path):
    """Every name a file reads: names, attributes, imported names, and
    strings that are identifiers (perfbench names what it traces as
    strings)."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                yield node.value


def test_every_public_name_is_reached():
    # A public name that only its own tests call is code to delete, or a
    # claim to check from `verify`.  The package's __init__ binds the
    # modules and nth_prime and primorial for perfbench, which reaches
    # nothing.
    root = Path(polignac.__file__).parent.parent.parent
    readers = [m for m in MODULES if m.name != "__init__.py"]
    readers += sorted((root / "demos").glob("*.py")) + sorted((root / "perfbench").glob("*.py"))
    reached = {name for path in readers for name in _references(path)}
    defined = {name for m in MODULES if m.name != "__init__.py" for name in _public_definitions(m)}
    unreached = sorted(defined - reached)
    assert not unreached, f"public names that nothing reaches: {unreached}"


def _attribute_path(node):
    """("pg", "census", "gap_census") for pg.census.gap_census, else None."""
    path = []
    while isinstance(node, ast.Attribute):
        path.append(node.attr)
        node = node.value
    return (node.id, *reversed(path)) if isinstance(node, ast.Name) else None


def test_perfbench_reads_resolve_on_the_package():
    # perfbench calls the package as pg.<module>.<fn> and
    # polignac.<name>, and traces TARGETS by
    # getattr(getattr(polignac, module), fn), after a bare
    # `import polignac`.  The files are parsed, not imported, and the
    # names resolved in a fresh interpreter, where no other import has
    # bound a submodule, so a binding deleted from __init__ fails here.
    bench = Path(polignac.__file__).parent.parent.parent / "perfbench"
    tracing = ast.parse((bench / "tracing.py").read_text())
    (targets,) = [
        node.value for node in tracing.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    paths = {(t.elts[0].value, t.elts[1].value) for t in targets.elts}
    assert len(paths) >= 10
    reads = {
        path[1:] for node in ast.walk(ast.parse((bench / "worker.py").read_text()))
        if (path := _attribute_path(node)) and path[0] in {"pg", "polignac"}
    }
    assert {("nth_prime",), ("primorial",), ("census", "gap_census")} <= reads
    probe = (
        "import functools, polignac\n"
        f"for path in {sorted(paths | reads)!r}:\n"
        "    try:\n"
        "        functools.reduce(getattr, path, polignac)\n"
        "    except AttributeError:\n"
        "        print('.'.join(path))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(Path(polignac.__file__).parent.parent)},
    ).stdout
    assert out == "", f"perfbench reads names the package does not bind: {out.split()}"


def test_coprimality_to_the_wheel_lives_in_wheel():
    # One "is this coprime to P_k#" path: outside wheel.py a gcd may only
    # test coprimality to 6, the codec's domain, so that no scan of its
    # own grows back elsewhere.
    for module in MODULES:
        if module.name == "wheel.py":
            continue
        for node in ast.walk(ast.parse(module.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "gcd":
                assert any(
                    isinstance(arg, ast.Constant) and arg.value == 6 for arg in node.args
                ), (module.name, node.lineno)
