"""Statement execution over :class:`Table` storage.

Execution returns both the result rows and an :class:`ExecutionStats`
describing the work done (rows examined, plan used); the database server
converts that work into simulated service time via the cost model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Sequence, Tuple

from ..errors import QueryError
from .index import SortedIndex
from .planner import AccessPath, plan_access
from .query import (
    And,
    Between,
    Comparison,
    DeleteStatement,
    InList,
    InsertStatement,
    Like,
    Or,
    Predicate,
    SelectStatement,
    Statement,
    UpdateStatement,
)
from .table import Row, Table

__all__ = ["ExecutionStats", "ResultSet", "execute_statement", "evaluate_predicate"]


@dataclass(frozen=True)
class ExecutionStats:
    """Work accounting for one executed statement."""

    plan: str
    rows_examined: int
    rows_matched: int
    rows_returned: int
    rows_written: int = 0
    sorted_rows: int = 0

    def to_dict(self) -> dict:
        """A plain-dict form (what the server sends over the wire)."""
        return {
            "plan": self.plan,
            "rows_examined": self.rows_examined,
            "rows_matched": self.rows_matched,
            "rows_returned": self.rows_returned,
            "rows_written": self.rows_written,
            "sorted_rows": self.sorted_rows,
        }


@dataclass(frozen=True)
class ResultSet:
    """Rows plus metadata returned by :func:`execute_statement`."""

    columns: Tuple[str, ...]
    rows: Tuple[Tuple[Any, ...], ...]
    stats: ExecutionStats

    def __len__(self) -> int:
        return len(self.rows)

    def scalar(self) -> Any:
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise QueryError("scalar() requires exactly one row and column")
        return self.rows[0][0]


def evaluate_predicate(table: Table, predicate: Predicate, row: Row) -> bool:
    """True if *row* satisfies *predicate*."""
    if isinstance(predicate, And):
        return all(evaluate_predicate(table, p, row) for p in predicate.parts)
    if isinstance(predicate, Or):
        return any(evaluate_predicate(table, p, row) for p in predicate.parts)
    if isinstance(predicate, (Comparison, Between, InList, Like)):
        value = table.value(row, predicate.column)
        try:
            return predicate.matches(value)
        except TypeError as exc:
            raise QueryError(
                f"type mismatch comparing column {predicate.column!r}: {exc}"
            ) from exc
    raise QueryError(f"unsupported predicate: {predicate!r}")


def _candidate_ids(table: Table, path: AccessPath) -> List[int]:
    """Row ids, ascending, selected by an index access path."""
    index = table.indexes[path.column]  # type: ignore[index]
    if path.kind in ("hash-eq", "sorted-eq"):
        ids = index.lookup(path.equals)
    elif path.kind in ("range", "prefix-range"):
        assert isinstance(index, SortedIndex)
        ids = index.range(
            low=path.low,
            high=path.high,
            low_open=path.low_open,
            high_open=path.high_open,
        )
    elif path.kind == "in-list":
        seen: List[int] = []
        for value in path.values or ():
            seen.extend(index.lookup(value))
        ids = sorted(set(seen))
    else:  # pragma: no cover - planner only emits the kinds above
        raise QueryError(f"unknown access path kind: {path.kind!r}")
    return ids


def _match_rows(
    table: Table, where: Optional[Predicate]
) -> Tuple[List[Tuple[int, Row]], str, int]:
    """Rows matching *where*, with plan name and rows-examined count."""
    path = plan_access(table, where)
    candidates: Iterable[Tuple[int, Row]]
    if path.kind == "scan":
        # One pass over the live rows; no id list, no per-row re-fetch.
        candidates = table.scan()
        examined = table.row_count
    else:
        ids = _candidate_ids(table, path)
        candidates = zip(ids, map(table.get, ids))
        examined = len(ids)
    residual = path.residual
    matched = [
        (row_id, row)
        for row_id, row in candidates
        if row is not None
        and (residual is None or evaluate_predicate(table, residual, row))
    ]
    return matched, path.kind, examined


def _project(
    table: Table, rows: Sequence[Row], columns: Tuple[str, ...]
) -> Tuple[Tuple[str, ...], List[Tuple[Any, ...]]]:
    if not columns:
        return tuple(table.schema.column_names), [tuple(r) for r in rows]
    positions = [table.schema.index_of(c) for c in columns]
    return tuple(columns), [tuple(r[p] for p in positions) for r in rows]


def _aggregate_value(
    table: Table, function: str, column: Optional[str], rows: Sequence[Row]
) -> Any:
    """Evaluate one aggregate over *rows*."""
    if function == "COUNT":
        if column is None:
            return len(rows)
        position = table.schema.index_of(column)
        return sum(1 for row in rows if row[position] is not None)
    position = table.schema.index_of(column)  # type: ignore[arg-type]
    if function in ("SUM", "AVG") and table.schema.columns[position].type is str:
        raise QueryError(f"{function}({column}) needs a numeric column")
    values = [row[position] for row in rows if row[position] is not None]
    if not values:
        return None
    if function == "SUM":
        return sum(values)
    if function == "AVG":
        return sum(values) / len(values)
    if function == "MIN":
        return min(values)
    if function == "MAX":
        return max(values)
    raise QueryError(f"unknown aggregate function {function!r}")


def _execute_aggregate_select(
    table: Table,
    stmt: SelectStatement,
    rows: List[Row],
    plan: str,
    examined: int,
) -> ResultSet:
    """SELECT with aggregates, optionally grouped.

    Output columns: the grouping column first (when selected), then the
    aggregates in select-list order, labelled ``count``, ``sum_price``,
    and so on (see :func:`repro.db.query.aggregate_label`).
    """
    from .query import aggregate_label

    for _function, column in stmt.aggregates:
        if column is not None:
            table.schema.index_of(column)  # validate before computing

    output_columns: List[str] = list(stmt.columns)
    output_columns.extend(aggregate_label(agg) for agg in stmt.aggregates)

    if stmt.group_by is None:
        record = tuple(
            _aggregate_value(table, function, column, rows)
            for function, column in stmt.aggregates
        )
        output_rows = [record]
    else:
        position = table.schema.index_of(stmt.group_by)
        groups: dict = {}
        for row in rows:
            groups.setdefault(row[position], []).append(row)
        output_rows = []
        for key in sorted(groups):
            record_parts: List[Any] = []
            if stmt.columns:
                record_parts.append(key)
            record_parts.extend(
                _aggregate_value(table, function, column, groups[key])
                for function, column in stmt.aggregates
            )
            output_rows.append(tuple(record_parts))

    sorted_rows = 0
    if stmt.order_by is not None:
        if stmt.order_by not in output_columns:
            raise QueryError(
                f"ORDER BY {stmt.order_by!r} must name an output column "
                f"of the aggregate query: {output_columns!r}"
            )
        order_position = output_columns.index(stmt.order_by)
        output_rows.sort(key=lambda r: r[order_position], reverse=stmt.descending)
        sorted_rows = len(output_rows)
    if stmt.limit is not None:
        output_rows = output_rows[: stmt.limit]
    return ResultSet(
        columns=tuple(output_columns),
        rows=tuple(output_rows),
        stats=ExecutionStats(
            plan, examined, len(rows), len(output_rows), 0, sorted_rows
        ),
    )


def execute_select(table: Table, stmt: SelectStatement) -> ResultSet:
    matched, plan, examined = _match_rows(table, stmt.where)
    rows = [row for _, row in matched]
    if stmt.aggregates:
        return _execute_aggregate_select(table, stmt, rows, plan, examined)
    sorted_rows = 0
    if stmt.order_by is not None:
        position = table.schema.index_of(stmt.order_by)
        rows.sort(key=lambda r: r[position], reverse=stmt.descending)
        sorted_rows = len(rows)
    if stmt.limit is not None:
        rows = rows[: stmt.limit]
    columns, projected = _project(table, rows, stmt.columns)
    return ResultSet(
        columns=columns,
        rows=tuple(projected),
        stats=ExecutionStats(
            plan, examined, len(matched), len(projected), 0, sorted_rows
        ),
    )


def execute_insert(table: Table, stmt: InsertStatement) -> ResultSet:
    table.insert(dict(zip(stmt.columns, stmt.values)))
    return ResultSet(
        columns=(),
        rows=(),
        stats=ExecutionStats("insert", 0, 0, 0, rows_written=1),
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


def execute_delete(table: Table, stmt: DeleteStatement) -> ResultSet:
    matched, plan, examined = _match_rows(table, stmt.where)
    for row_id, _ in matched:
        table.delete(row_id)
    return ResultSet(
        columns=(),
        rows=(),
        stats=ExecutionStats(plan, examined, len(matched), 0, len(matched)),
    )


def execute_statement(table: Table, stmt: Statement) -> ResultSet:
    """Dispatch *stmt* to the right executor for *table*."""
    if isinstance(stmt, SelectStatement):
        return execute_select(table, stmt)
    if isinstance(stmt, InsertStatement):
        return execute_insert(table, stmt)
    if isinstance(stmt, UpdateStatement):
        return execute_update(table, stmt)
    if isinstance(stmt, DeleteStatement):
        return execute_delete(table, stmt)
    raise QueryError(f"unsupported statement: {stmt!r}")
