"""Statement execution over :class:`Table` storage.

Execution returns both the result rows and an :class:`ExecutionStats`
describing the work done (rows examined, plan used); the database server
converts that work into simulated service time via the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..errors import QueryError
from .planner import plan_access
from .query import (
    Comparison,
    InList,
    Predicate,
    SelectStatement,
    Statement,
    UpdateStatement,
    aggregate_label,
)
from .table import Row, Table

__all__ = ["ExecutionStats", "ResultSet", "execute_statement", "evaluate_predicate"]


def group_order(key: Any) -> Tuple[bool, Any]:
    """Sort key for GROUP BY output: the NULL group first, then by value.

    A column holds one type plus NULL, and ``None`` does not compare
    with a number or a string.
    """
    return key is not None, key


@dataclass(frozen=True)
class ExecutionStats:
    """Work accounting for one executed statement."""

    plan: str
    rows_examined: int
    rows_matched: int
    rows_returned: int
    rows_written: int = 0

    def to_dict(self) -> dict:
        """A plain-dict form (what the server sends over the wire)."""
        return {
            "plan": self.plan,
            "rows_examined": self.rows_examined,
            "rows_matched": self.rows_matched,
            "rows_returned": self.rows_returned,
            "rows_written": self.rows_written,
            # Always 0 (no statement sorts); the key rides in every
            # reply, so dropping it would shrink each modelled reply.
            "sorted_rows": 0,
        }


@dataclass(frozen=True)
class ResultSet:
    """Rows plus metadata returned by :func:`execute_statement`."""

    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Any, ...], ...]
    stats: ExecutionStats

    def __len__(self) -> int:
        return len(self.rows)


def evaluate_predicate(table: Table, predicate: Predicate, row: Row) -> bool:
    """True if *row* satisfies *predicate*."""
    if isinstance(predicate, (Comparison, InList)):
        value = table.value(row, predicate.column)
        try:
            return predicate.matches(value)
        except TypeError as exc:
            raise QueryError(
                f"type mismatch comparing column {predicate.column!r}: {exc}"
            ) from exc
    raise QueryError(f"unsupported predicate: {predicate!r}")


def _match_rows(
    table: Table, where: Optional[Predicate]
) -> Tuple[List[Tuple[int, Row]], str, int]:
    """Rows matching *where*, with plan name and rows-examined count."""
    path = plan_access(table, where)
    if path.kind == "scan":
        # One pass over the rows; no id list, no per-row re-fetch.
        residual = path.residual
        matched = [
            (row_id, row)
            for row_id, row in table.scan()
            if residual is None or evaluate_predicate(table, residual, row)
        ]
        return matched, path.kind, table.row_count
    index = table.indexes[path.column]  # type: ignore[index]
    ids: List[int] = []
    for value in path.values:
        ids.extend(index.lookup(value))
    if path.kind == "in-list":
        ids = sorted(set(ids))
    return [(row_id, table.get(row_id)) for row_id in ids], path.kind, len(ids)


def _project(
    table: Table, rows: Sequence[Row], columns: Tuple[str, ...]
) -> Tuple[Tuple[str, ...], List[Tuple[Any, ...]]]:
    if not columns:
        return tuple(table.schema.column_names), [tuple(r) for r in rows]
    positions = [table.schema.index_of(c) for c in columns]
    return tuple(columns), [tuple(r[p] for p in positions) for r in rows]


def _execute_aggregate_select(
    table: Table,
    stmt: SelectStatement,
    rows: List[Row],
    plan: str,
    examined: int,
) -> ResultSet:
    """SELECT with ``COUNT(*)``, optionally grouped.

    Output columns: the grouping column first (when selected), then one
    ``count`` per ``COUNT(*)`` in the select list; groups come out in
    key order.
    """
    output_columns: List[str] = list(stmt.columns)
    output_columns.extend(aggregate_label(agg) for agg in stmt.aggregates)
    width = len(stmt.aggregates)
    if stmt.group_by is None:
        output_rows = [(len(rows),) * width]
    else:
        position = table.schema.index_of(stmt.group_by)
        groups: Dict[Any, int] = {}
        for row in rows:
            key = row[position]
            groups[key] = groups.get(key, 0) + 1
        output_rows = []
        for key in sorted(groups, key=group_order):
            counts = (groups[key],) * width
            output_rows.append((key,) + counts if stmt.columns else counts)
    return ResultSet(
        columns=tuple(output_columns),
        rows=tuple(output_rows),
        stats=ExecutionStats(plan, examined, len(rows), len(output_rows)),
    )


def execute_select(table: Table, stmt: SelectStatement) -> ResultSet:
    matched, plan, examined = _match_rows(table, stmt.where)
    rows = [row for _, row in matched]
    if stmt.aggregates:
        return _execute_aggregate_select(table, stmt, rows, plan, examined)
    columns, projected = _project(table, rows, stmt.columns)
    return ResultSet(
        columns=columns,
        rows=tuple(projected),
        stats=ExecutionStats(plan, examined, len(matched), len(projected)),
    )


def execute_update(table: Table, stmt: UpdateStatement) -> ResultSet:
    matched, plan, examined = _match_rows(table, stmt.where)
    changes = dict(stmt.assignments)
    for row_id, _ in matched:
        table.update(row_id, changes)
    return ResultSet(
        columns=(),
        rows=(),
        stats=ExecutionStats(plan, examined, len(matched), 0, len(matched)),
    )


def execute_statement(table: Table, stmt: Statement) -> ResultSet:
    """Dispatch *stmt* to the right executor for *table*."""
    if isinstance(stmt, SelectStatement):
        return execute_select(table, stmt)
    if isinstance(stmt, UpdateStatement):
        return execute_update(table, stmt)
    raise QueryError(f"unsupported statement: {stmt!r}")
