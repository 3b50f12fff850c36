"""Source-level properties of the package."""

import ast
import re
import subprocess
import sys
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
    """Every public top-level function or class is used by name outside
    ``__init__``: in a package module, in ``demos/`` or ``perfbench/``, or
    as a backticked name in ``README.md``.  A re-export alone does not
    count, so an entry point that only the tests call fails here; console
    scripts named in ``pyproject.toml`` count as used.  Every class in
    ``errors.py`` is raised by some package module."""
    root = Path(anisointerp.__file__).parent
    repo = root.parents[1]
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(root.rglob("*.py"))}
    used = {node.id for name, tree in trees.items() if name != "__init__.py"
            for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for path in sorted([*repo.glob("demos/*.py"), *repo.glob("perfbench/*.py")]):
        tree = ast.parse(path.read_text(), filename=str(path))
        used |= {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                 if isinstance(node, (ast.Name, ast.Attribute))}
    readme = (repo / "README.md").read_text()
    used |= {part for span in re.findall(r"`((?:\w+\.)*\w+)", readme)
             for part in span.split(".")}
    pyproject = (repo / "pyproject.toml").read_text()
    scripts = set(re.findall(r'^\w[\w-]*\s*=\s*"anisointerp\.(\w+):(\w+)"', pyproject, re.M))
    orphans = [f"{name[:-3]}.{node.name}" for name, tree in trees.items() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not node.name.startswith("_") and node.name not in used
               and (name[:-3], node.name) not in scripts]
    raised = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    never_raised = [f"errors.{node.name}" for node in trees["errors.py"].body
                    if isinstance(node, ast.ClassDef) and node.name not in raised]
    assert not orphans and not never_raised, (orphans, never_raised)


def test_readme_quickstart_runs():
    """The first python block of ``README.md`` runs against the package, so
    the quick start cannot drift from the API."""
    readme = (Path(anisointerp.__file__).parents[2] / "README.md").read_text()
    code = re.search(r"^```python\n(.*?)^```", readme, re.S | re.M).group(1)
    exec(compile(code, "README.md", "exec"), {})


def test_no_orphan_private_names_or_constants():
    """Every private top-level function and every module-level constant is
    used by name somewhere in the package, so a helper or setting left
    behind by a deletion fails here (``__version__`` alone is exempt)."""
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(anisointerp.__file__).parent.rglob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    defined = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("_"):
                defined.append((name, node.name))
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign) else [])
            defined += [(name, t.id) for t in targets if isinstance(t, ast.Name)]
    orphans = [f"{name[:-3]}.{ident}" for name, ident in defined
               if ident not in used and ident != "__version__"]
    assert not orphans


PLANTED = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_planted(x):
    assert x < 5
"""


def test_a_failing_property_reports_its_example(tmp_path):
    """Under the repository's pytest settings a failing Hypothesis property
    ends in its falsifying example, not in an ``INTERNALERROR`` from a
    warning raised while Hypothesis explains the failure."""
    (tmp_path / "test_planted.py").write_text(PLANTED)
    config = Path(anisointerp.__file__).parents[2] / "pyproject.toml"
    run = subprocess.run([sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
                          "-c", str(config), "test_planted.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out
