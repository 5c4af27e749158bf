"""No library function, class, method or property is left whose only callers are tests.

A module-level function or class under ``src/budgetrag/`` must be named
somewhere in ``src/`` or ``perfbench/`` (its tests aside): as a name, an attribute, or a
string (the benchmark's tracer patches names given as strings). Its own
definition does not count as a use. Imports do not either, so a name
that is only imported and never used still shows.

A public method or property of a package class (dunder methods aside)
must be named as an attribute in ``src/`` or ``perfbench/``, or as a
string in ``perfbench/`` (the tracer patches ``add``, ``search`` and
others by name).
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "budgetrag"

# ROADMAP item 6 gives this its CLI caller (retrieve telemetry).
ALLOWED = {"context_stats"}
_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions() -> dict[str, str]:
    """Name -> module of every module-level function and class in the package."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, _DEFINITIONS):
                found[node.name] = path.stem
    return found


def _methods() -> dict[str, str]:
    """module.Class.name -> name of every public method and property of a package class."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef):
                found |= {f"{path.stem}.{node.name}.{item.name}": item.name for item in node.body
                          if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                          and not item.name.startswith("_")}
    return found


def _uses_by_kind() -> dict[tuple[str, str], set[str]]:
    """(top directory, kind) -> every name ("name"), attribute ("attribute") and string constant
    ("string") in src/ and perfbench/, but the benchmark's own tests."""
    uses = {(top, kind): set() for top in ("src", "perfbench") for kind in ("name", "attribute", "string")}
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    uses[top, "name"].add(node.id)
                elif isinstance(node, ast.Attribute):
                    uses[top, "attribute"].add(node.attr)
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    uses[top, "string"].add(node.value)
    return uses


def _uses() -> set[str]:
    """Every name, attribute and string constant in src/ and perfbench/, but the benchmark's own tests."""
    return set().union(*_uses_by_kind().values())


def test_every_library_function_and_class_has_a_caller_outside_the_tests():
    uses = _uses()
    unused = {f"{module}.{name}" for name, module in _definitions().items()
              if name not in uses and name not in ALLOWED}
    assert not unused, f"named only by tests (or by nothing): {sorted(unused)}"


def test_the_allowlist_names_only_definitions_without_a_caller():
    definitions, uses = _definitions(), _uses()
    assert {name for name in ALLOWED if name in definitions and name not in uses} == ALLOWED


def test_every_public_method_and_property_has_a_caller_outside_the_tests():
    uses = _uses_by_kind()
    used = uses["src", "attribute"] | uses["perfbench", "attribute"] | uses["perfbench", "string"]
    unused = sorted(qualified for qualified, name in _methods().items() if name not in used)
    assert not unused, f"named only by tests (or by nothing): {unused}"
