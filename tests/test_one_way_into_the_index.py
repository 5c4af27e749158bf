"""Rows enter a ``VectorIndex`` only through ``add_many``.

``add_many`` checks every row (dimension, finite values, unit norm, u32
position, a key new to the batch and to the index) before it stores any.
A function that writes the row storage itself skips those checks: a
loader that did so accepted a checksum-valid file holding a NaN row, and
``search`` ranked it. So only ``VectorIndex.__init__``, which creates
the empty storage, and ``add_many`` may assign, subscript-assign, delete
or call a mutating method on ``_vectors``, ``_positions``,
``_patient_ids`` or ``_rows``, anywhere in the package.
"""

from __future__ import annotations

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "budgetrag"
STORAGE = {"_vectors", "_positions", "_patient_ids", "_rows"}
WRITERS = {"VectorIndex.__init__", "VectorIndex.add_many"}
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "update", "setdefault", "popitem", "sort",
            "reverse", "fill", "resize", "put", "itemset", "__setitem__", "__delitem__", "frombytes", "fromlist",
            "byteswap"}
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_storage(expr: ast.expr) -> bool:
    """``<obj>._rows`` or an item of it, such as ``<obj>._vectors[a:b]``."""
    while isinstance(expr, ast.Subscript):
        expr = expr.value
    return isinstance(expr, ast.Attribute) and expr.attr in STORAGE


def _is_write(node: ast.AST) -> bool:
    if isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, (ast.Store, ast.Del)):
        return _is_storage(node)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS and _is_storage(node.func.value))


def _writes() -> set[tuple[str, str]]:
    """(module, qualified name of the enclosing function) of every write to the row storage."""
    found = set()

    def visit(node: ast.AST, module: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if _is_write(child):
                found.add((module, scope))
            visit(child, module, f"{scope}.{child.name}".lstrip(".") if isinstance(child, _SCOPES) else scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return found


def test_only_init_and_add_many_write_the_row_storage():
    outside = sorted(f"{module}.{scope or '<module>'}" for module, scope in _writes()
                     if (module, scope) not in {("vindex", name) for name in WRITERS})
    assert not outside, f"write the index's rows without add_many's checks: {outside}"


def test_the_guard_sees_the_writes_of_init_and_add_many():
    assert {("vindex", name) for name in WRITERS} <= _writes()
