"""Source-level properties of the package."""

import ast
import re
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


def test_no_orphan_public_names():
    """Every public top-level function or class is used by name in the
    package or re-exported by ``__init__``, so no entry point lingers
    without a caller; console scripts named in ``pyproject.toml`` count as
    used."""
    root = Path(anisointerp.__file__).parent
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(root.rglob("*.py"))}
    used = {node.id for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, ast.Name)}
    used |= {alias.asname or alias.name for node in ast.walk(trees["__init__.py"])
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    pyproject = (root.parents[1] / "pyproject.toml").read_text()
    scripts = set(re.findall(r'^\w[\w-]*\s*=\s*"anisointerp\.(\w+):(\w+)"', pyproject, re.M))
    orphans = [f"{name[:-3]}.{node.name}" for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_") and node.name not in used
               and (name[:-3], node.name) not in scripts]
    assert not orphans
