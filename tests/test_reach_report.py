"""docs/reach.md names only functions that still exist in ``src/``.

``python tools/reach.py`` writes the report from a line trace of
every product run; CI's ``reach`` job reruns it with ``--check``. This
cheap gate catches the common way it goes stale: a deletion that forgets
to regenerate it. Each ``path:line name`` entry must name a def (methods
as ``Class.method``, nested defs as ``outer.inner``) that ``ast`` finds
in that file, and each ``path:first-last name`` block must lie inside
the def it names.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
REPORT = REPO_ROOT / "docs" / "reach.md"
ENTRY = re.compile(r"^(src/\S+\.py):(\d+) (\S+)$", re.MULTILINE)
BLOCK = re.compile(r"^(src/\S+\.py):(\d+)-(\d+) (\S+)$", re.MULTILINE)


def qualified_defs(path: Path) -> dict:
    """Every def in *path*, named the way the report names it, to its line spans."""
    names: dict = {}

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                names.setdefault(prefix + child.name, []).append((first, child.end_lineno))
                walk(child, f"{prefix}{child.name}.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    walk(ast.parse(path.read_text(encoding="utf-8")), "")
    return names


def stale(entries, inside) -> list:
    """The entries whose file is gone or whose def no longer holds them."""
    return [
        entry
        for entry, path, name, lines in entries
        if not (REPO_ROOT / path).is_file()
        or not any(
            inside(span, lines)
            for span in qualified_defs(REPO_ROOT / path).get(name, ())
        )
    ]


def test_every_reported_function_still_exists():
    text = REPORT.read_text(encoding="utf-8")
    entries = ENTRY.findall(text)
    assert entries, "docs/reach.md lists no functions"
    missing = stale(
        [(f"{p}:{line} {n}", p, n, None) for p, line, n in entries],
        lambda span, _lines: True,
    )
    missing += stale(
        [(f"{p}:{a}-{b} {n}", p, n, (int(a), int(b))) for p, a, b, n in BLOCK.findall(text)],
        lambda span, lines: span[0] <= lines[0] <= lines[1] <= span[1],
    )
    assert not missing, "docs/reach.md is stale (run python tools/reach.py):\n" + "\n".join(
        missing
    )
