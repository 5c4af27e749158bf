"""The package imports only the standard library, itself and its declared dependencies."""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "budgetrag"


def _imported_roots(path: Path) -> set[str]:
    """Top-level names of every absolute import in a module, those inside functions included."""
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = ROOT / "pyproject.toml"
    if not pyproject.exists():
        pytest.skip("no pyproject.toml next to the tests")
    requirements = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["dependencies"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_") for req in requirements}
    imported = {}
    for module in sorted(PACKAGE.glob("*.py")):
        for root in _imported_roots(module):
            imported.setdefault(root, module.name)
    third_party = {root: module for root, module in imported.items()
                   if root not in sys.stdlib_module_names and root != "budgetrag"}
    assert {root: module for root, module in third_party.items() if root not in declared} == {}
    assert declared - third_party.keys() == set(), "declared but never imported"
