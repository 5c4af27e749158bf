"""No library function or class is left whose only callers are tests.

A module-level function or class under ``src/budgetrag/`` must be named
somewhere in ``src/`` or ``perfbench/`` (its tests aside): as a name, an attribute, or a
string (the benchmark's tracer patches names given as strings). Its own
definition does not count as a use. Imports do not either, so a name
that is only imported and never used still shows.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "budgetrag"

# ROADMAP item 6 gives these their CLI callers (retrieve telemetry, project --from-outcomes).
ALLOWED = {"context_stats", "summarize_usage"}
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions() -> dict[str, str]:
    """Name -> module of every module-level function and class in the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, _DEFINITIONS):
                found[node.name] = path.stem
    return found


def _uses() -> set[str]:
    """Every name, attribute and string constant in src/ and perfbench/, but the benchmark's own tests."""
    names = set()
    for path in sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]):
        if "tests" in path.relative_to(ROOT).parts:
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_library_function_and_class_has_a_caller_outside_the_tests():
    uses = _uses()
    unused = {f"{module}.{name}" for name, module in _definitions().items()
              if name not in uses and name not in ALLOWED}
    assert not unused, f"named only by tests (or by nothing): {sorted(unused)}"


def test_the_allowlist_names_only_definitions_without_a_caller():
    definitions, uses = _definitions(), _uses()
    assert {name for name in ALLOWED if name in definitions and name not in uses} == ALLOWED
