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
