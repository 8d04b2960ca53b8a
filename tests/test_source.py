"""Source hygiene: every name a package module imports is used, and is the standard library, numpy or lrdmd.

The README's library quick start runs as written.
"""

import ast
import sys
from pathlib import Path

import pytest

import lrdmd

# ``__init__`` imports names to re-export them, so it is not checked.
MODULES = sorted(p for p in Path(lrdmd.__file__).parent.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - used)


def test_checker_finds_unused_names():
    source = "from __future__ import annotations\nimport os.path\nimport numpy as np\nfrom a import b, c as d\n"
    source += "d(np.e)\n"
    assert unused_imports(source) == ["b", "os"]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_every_imported_name_is_used(path):
    assert unused_imports(path.read_text()) == []


#: Top-level packages a package module may import: ``pyproject.toml`` declares ``dependencies = ["numpy>=2.0"]``.
ALLOWED_ROOTS = set(sys.stdlib_module_names) | {"numpy", "lrdmd"}
EVERY_MODULE = sorted(Path(lrdmd.__file__).parent.glob("*.py"))


def imported_roots(source: str) -> set[str]:
    """Top-level packages that the absolute imports of ``source`` name, at any depth of the module."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_import_checker_finds_every_absolute_import():
    source = "from __future__ import annotations\nimport os.path, scipy.linalg as sl\nfrom numpy import linalg\n"
    source += "from . import io\nfrom .solver import fit\ndef f():\n    import pandas\n"
    assert imported_roots(source) == {"__future__", "os", "scipy", "numpy", "pandas"}
    assert imported_roots(source) - ALLOWED_ROOTS == {"scipy", "pandas"}


@pytest.mark.parametrize("path", EVERY_MODULE, ids=[p.stem for p in EVERY_MODULE])
def test_imports_only_declared_dependencies(path):
    assert imported_roots(path.read_text()) - ALLOWED_ROOTS == set()


def test_readme_quick_start_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert namespace["traj"].states.shape == (11, 50)
    assert len(namespace["errs"]) == 20
