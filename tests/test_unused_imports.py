"""No import goes unused (CI's ``ruff check`` rule F401, offline).

CI lints ``src``, ``tests``, ``benchmarks`` and ``examples`` with ruff's
pyflakes rules, which are not installed everywhere the tests run. This
stdlib ``ast`` scan holds the most common of them here: every name an
import binds must be read somewhere in its scope (the module, or the
function the import sits in). A name counts as read when it appears as
an expression, inside a string annotation, or, for a module-level
import, in the module's ``__all__``. ``from __future__`` imports and
lines marked ``# noqa`` are exempt, as they are for ruff.

Print what it finds with ``python tests/test_unused_imports.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LINTED = ("src", "tests", "benchmarks", "examples")


def _scope(body):
    """``(imports, functions)`` among one scope's statements, at any depth.

    Class bodies belong to the enclosing scope; a function's body is a
    scope of its own.
    """
    imports, functions = [], []
    stack = list(body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imports.append(node)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions.append(node)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    stack.append(child)
                elif isinstance(child, (ast.excepthandler, ast.match_case)):
                    stack.extend(child.body)
    return imports, functions


def _exported(tree):
    """The string constants of module-level ``__all__`` assignments."""
    names = set()
    for node in tree.body:
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
            else []
        )
        if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
            for item in ast.walk(node.value):
                if isinstance(item, ast.Constant) and isinstance(item.value, str):
                    names.add(item.value)
    return names


def _read_names(tree):
    """Names *tree* reads: as expressions, or inside string annotations."""
    names = set()
    annotations = []
    for node in ast.walk(tree):
        kind = type(node)
        if kind is ast.Name:
            if not isinstance(node.ctx, ast.Store):
                names.add(node.id)
        elif kind is ast.arg or kind is ast.AnnAssign:
            annotations.append(node.annotation)
        elif kind is ast.FunctionDef or kind is ast.AsyncFunctionDef:
            annotations.append(node.returns)
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    names |= _read_names(ast.parse(node.value, mode="eval"))
                except SyntaxError:
                    pass
    return names


def unused_imports(path):
    """``(line, name)`` for each import *path* never reads in its scope."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    scopes = [tree]
    found = []
    while scopes:
        scope = scopes.pop()
        imports, functions = _scope(scope.body)
        scopes.extend(functions)
        if not imports:
            continue
        used = _read_names(scope) | (_exported(tree) if scope is tree else set())
        for node in imports:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa" in lines[n - 1] for n in range(node.lineno, node.end_lineno + 1)):
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound = alias.asname or (
                    alias.name.split(".")[0] if isinstance(node, ast.Import) else alias.name
                )
                if bound not in used:
                    found.append((node.lineno, bound))
    return sorted(found)


def scan():
    """Every unused import in the linted trees, as text lines."""
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for top in LINTED
        for path in sorted((ROOT / top).rglob("*.py"))
        for line, name in unused_imports(path)
    ]


def test_no_import_is_unused():
    found = scan()
    assert not found, f"{len(found)} unused imports:\n" + "\n".join(found)


def test_the_scan_sees_a_planted_unused_import(tmp_path):
    planted = tmp_path / "planted.py"
    planted.write_text(
        "from __future__ import annotations\n"
        "import math\n"
        "import os  # noqa: F401\n"
        "from typing import TYPE_CHECKING, List\n"
        "if TYPE_CHECKING:\n"
        "    from collections import OrderedDict\n"
        "__all__ = ['List']\n"
        "def f(x: 'OrderedDict') -> None:\n"
        "    import json\n"
        "    import sys\n"
        "    sys.exit()\n"
    )
    assert unused_imports(planted) == [(2, "math"), (9, "json")]


if __name__ == "__main__":
    print("\n".join(scan()) or "no unused imports")
