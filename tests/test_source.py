"""Source-level properties of the package."""

import ast
from pathlib import Path

import anisointerp


def test_no_assert_statements():
    """Invariants must hold under ``python -O``, which strips ``assert``."""
    found = []
    for path in sorted(Path(anisointerp.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}"
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found


def test_no_unused_imports():
    """Every name a module imports is used in it, so deletions leave no
    dead imports behind (``__init__`` re-exports and is exempt)."""
    unused = []
    for path in sorted(Path(anisointerp.__file__).parent.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused
