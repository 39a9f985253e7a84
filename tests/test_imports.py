import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import twopartite

MODULES = sorted(Path(twopartite.__file__).parent.glob("*.py"))


def _absolute_imports(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_runtime_is_stdlib_only():
    assert len(MODULES) >= 10
    outside = {(path.name, name) for path in MODULES for name in _absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names | {"twopartite"}}
    assert not outside


def test_catalog_assembles_matrices():
    # the constructors assemble the pair-state matrix; build is the entry
    # point for edge lists from outside the package
    path = Path(twopartite.__file__).parent / "catalog.py"
    imported = {alias.name for node in ast.walk(ast.parse(path.read_text(), str(path)))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert "build" not in imported


def test_benchmark_boundaries_are_callable():
    # the traced benchmark wraps each of these names; one that stops
    # resolving shows there only as a MISSING line.  Loaded by path and
    # never installed, so no function of the package is rebound.
    path = Path(__file__).resolve().parent.parent / "bench" / "layers.py"
    spec = importlib.util.spec_from_file_location("bench_layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    assert layers.BOUNDARIES
    for name in layers.BOUNDARIES:
        module_name, *attrs = name.split(".")
        owner = importlib.import_module(f"twopartite.{module_name}")
        for attr in attrs:
            owner = getattr(owner, attr)
        assert callable(owner), name


def test_cli_import_loads_no_process_pool():
    # every command runs in one process, so a fresh interpreter importing
    # the CLI never loads the pool machinery
    env = dict(os.environ)
    src = str(Path(twopartite.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, twopartite.cli; "
            "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")
