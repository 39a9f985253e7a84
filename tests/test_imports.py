import ast
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
