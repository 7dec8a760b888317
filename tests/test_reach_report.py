"""docs/reach.md names only functions that still exist in ``src/``.

``python tools/reach.py`` writes the report from a profile of
every product run; CI's ``reach`` job reruns it with ``--check``. This
cheap gate catches the common way it goes stale: a deletion that forgets
to regenerate it. Each ``path:line name`` entry must name a def (methods
as ``Class.method``, nested defs as ``outer.inner``) that ``ast`` finds
in that file.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT = REPO_ROOT / "docs" / "reach.md"
ENTRY = re.compile(r"^(src/\S+\.py):(\d+) (\S+)$", re.MULTILINE)


def qualified_defs(path: Path) -> set:
    """Every def in *path*, named the way the report names it."""
    names = set()

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names.add(prefix + child.name)
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return names


def test_every_reported_function_still_exists():
    entries = ENTRY.findall(REPORT.read_text(encoding="utf-8"))
    assert entries, "docs/reach.md lists no functions"
    missing = [
        f"{path}:{line} {name}"
        for path, line, name in entries
        if not (REPO_ROOT / path).is_file()
        or name not in qualified_defs(REPO_ROOT / path)
    ]
    assert not missing, "docs/reach.md is stale (run python tools/reach.py):\n" + "\n".join(
        missing
    )
