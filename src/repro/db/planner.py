"""Query planner: choose an access path for a predicate.

A ``WHERE`` is one predicate. Equality or ``IN`` on a column with a
hash index reads the index; any other predicate (or none) falls back to
a full scan, with the predicate as the residual filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple

from .query import Comparison, Predicate
from .table import Table

__all__ = ["AccessPath", "plan_access"]


@dataclass(frozen=True)
class AccessPath:
    """The chosen way to fetch candidate rows for a query.

    ``kind`` is one of ``"scan"``, ``"hash-eq"``, ``"in-list"``; index
    paths carry the column and the lookup values, a scan the residual
    predicate to apply per row.
    """

    kind: str
    column: Optional[str] = None
    values: Tuple[Any, ...] = ()
    residual: Optional[Predicate] = None


def plan_access(table: Table, where: Optional[Predicate]) -> AccessPath:
    """Choose the cheapest access path for *where* on *table*."""
    if where is None:
        return AccessPath(kind="scan")
    if where.column not in table.indexes:
        return AccessPath(kind="scan", residual=where)
    if isinstance(where, Comparison):
        return AccessPath(kind="hash-eq", column=where.column, values=(where.value,))
    return AccessPath(kind="in-list", column=where.column, values=where.values)
