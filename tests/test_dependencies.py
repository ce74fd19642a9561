"""Runtime dependencies of the package and its scripts: the standard library and numpy alone."""
import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "capdisc"
SCRIPTS = ROOT / "scripts"
ALLOWED = sys.stdlib_module_names | {"numpy"}


def imported_roots(source: str) -> set[str]:
    """Top-level modules of the absolute imports in `source`; relative ones stay in the package."""
    roots = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            roots.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.partition(".")[0])
    return roots


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_standard_library_and_numpy(path):
    assert imported_roots(path.read_text()) - ALLOWED == set()


@pytest.mark.parametrize("path", sorted(SCRIPTS.glob("*.py")), ids=lambda p: p.name)
def test_script_imports_only_capdisc_the_standard_library_and_numpy(path):
    assert imported_roots(path.read_text()) - ALLOWED - {"capdisc"} == set()


def test_the_scan_sees_every_kind_of_import():
    source = "import os.path, scipy.sparse as sp\nfrom numpy import linalg\nfrom . import geometry\n"
    source += "def f():\n    from mpmath import mp\n"
    assert imported_roots(source) == {"os", "scipy", "numpy", "mpmath"}
    assert imported_roots(source) - ALLOWED == {"scipy", "mpmath"}
    assert len(list(PACKAGE.rglob("*.py"))) >= 8
    assert len(list(SCRIPTS.glob("*.py"))) >= 4
