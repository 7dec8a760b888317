"""Materialized views: precomputed answers for hot query shapes.

The §V.A workload's hot query — ``SELECT COUNT(*) FROM records WHERE
grp = k`` — rescans (or re-probes) the base table for every request.
A :class:`MaterializedView` computes the *grouped* form of that shape
once (``SELECT grp, COUNT(*) FROM records GROUP BY grp``) and then
answers each keyed aggregate with a single dictionary probe, following
the ``materialized-views-pattern`` named in the roadmap.

Invalidation is hooked into the write path: a
:class:`ViewCatalog` installed on a :class:`~repro.db.engine.Database`
intercepts every statement — writes against a view's base table mark
the view *dirty*, and the next read that the view can answer triggers a
lazy refresh, amortized over every read until the next write. Reads the
view cannot answer fall through to the normal executor untouched, so
installing a catalog with no matching views changes nothing.

Refresh is per group. The view subscribes to its base table
(:meth:`~repro.db.table.Table.subscribe`) and keeps only the set of
*group keys* that changed rows belong to — the old row's key and the
new row's, so a row moved between groups touches both. A refresh
recounts just those groups from the base table's index on the grouping
column, so every ``COUNT(*)`` equals a full recompute, and a group left
empty is removed. The full recompute (the view's definition run through
the executor) is the first build, and runs again whenever the per-group
path has nothing to stand on: the grouping column has no index.

The served :class:`~repro.db.executor.ResultSet` carries
``plan="view:<name>"`` and a one-row ``rows_examined``, so the database
server's cost model naturally charges a view probe far less than a
table scan — that cost difference *is* the optimization. Refresh work
itself is never charged to modelled service time, whichever way it is
done: per-group refresh saves host time only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple, Union

from ..errors import QueryError
from ..metrics import MetricsRegistry
from .engine import Database
from .executor import ExecutionStats, ResultSet, execute_statement, group_order
from .parser import parse
from .query import (
    Comparison,
    InList,
    SelectStatement,
    Statement,
    UpdateStatement,
    aggregate_label,
)
from .table import Row, Table

__all__ = ["MaterializedView", "ViewCatalog"]


class MaterializedView:
    """One precomputed grouped aggregate over a base table.

    Parameters
    ----------
    name:
        Identifier; appears in the served plan as ``view:<name>``.
    database:
        The database holding the base table.
    definition:
        SQL (or parsed statement) of the form
        ``SELECT <group_col>, COUNT(*) FROM <table> GROUP BY
        <group_col>`` — a plain grouped count with no WHERE.
    """

    def __init__(
        self,
        name: str,
        database: Database,
        definition: Union[str, SelectStatement],
    ) -> None:
        stmt = parse(definition) if isinstance(definition, str) else definition
        if not isinstance(stmt, SelectStatement):
            raise QueryError(f"view {name!r}: definition must be a SELECT")
        if stmt.group_by is None or not stmt.aggregates:
            raise QueryError(
                f"view {name!r}: definition must be a grouped aggregate "
                f"(SELECT <col>, COUNT(*) FROM t GROUP BY <col>)"
            )
        if stmt.where is not None:
            raise QueryError(f"view {name!r}: definition must not filter")
        if stmt.columns != (stmt.group_by,):
            raise QueryError(
                f"view {name!r}: definition must select its grouping column"
            )
        self.name = name
        self.database = database
        self.definition = stmt
        self.table = stmt.table
        self.group_by = stmt.group_by
        self.aggregates = stmt.aggregates
        self._labels: Tuple[str, ...] = tuple(
            aggregate_label(agg) for agg in self.aggregates
        )
        self._index: Dict[object, Tuple] = {}
        #: The table object ``_index`` was built from and is subscribed to.
        self._source: Optional[Table] = None
        #: Group keys of rows changed in ``_source`` since the last refresh.
        self._touched: Set[object] = set()
        self.dirty = True
        self.refreshes = 0

    def refresh(self) -> None:
        """Bring the view up to date with the base table (clears ``dirty``).

        Only the groups written since the last refresh are recomputed,
        through the base table's index on the grouping column; without
        that index, or over a table object the view has not built from
        yet, the whole definition is recomputed.
        """
        table = self.database.table(self.table)
        if table is self._source and self.group_by in table.indexes:
            self._refresh_touched_groups(table)
        else:
            self._rebuild(table)
        self._touched = set()
        self.dirty = False
        self.refreshes += 1

    def _rebuild(self, table: Table) -> None:
        result = execute_statement(table, self.definition)
        # Definition output: the group key first, then the aggregates in
        # select-list order (see the executor's aggregate layout).
        self._index = {row[0]: tuple(row[1:]) for row in result.rows}
        if table is not self._source:
            self._source = table
            self._subscribe(table)

    def _subscribe(self, table: Table) -> None:
        position = table.schema.index_of(self.group_by)

        def note_row_change(old: Optional[Row], new: Optional[Row]) -> None:
            if old is not None:
                self._touched.add(old[position])
            if new is not None:
                self._touched.add(new[position])

        table.subscribe(note_row_change)

    def _refresh_touched_groups(self, table: Table) -> None:
        index = table.indexes[self.group_by]
        for key in self._touched:
            count = len(index.lookup(key))
            if count:
                self._index[key] = (count,) * len(self.aggregates)
            else:
                self._index.pop(key, None)

    def note_write(self) -> None:
        """Mark the view stale; the next served read refreshes first."""
        self.dirty = True

    def _empty_group_row(self) -> Tuple:
        # COUNT(*) over an empty group is 0.
        return (0,) * len(self.aggregates)

    def answer(self, stmt: SelectStatement) -> Optional[ResultSet]:
        """Serve *stmt* from the view, or ``None`` if it doesn't match.

        Matching shapes, given a definition grouped on ``g``:

        * ``SELECT <same aggregates> FROM t WHERE g = k`` — one probe
          (an absent group aggregates over no rows);
        * ``SELECT [g,] <same aggregates> FROM t WHERE g IN (...) GROUP
          BY g`` (or ``g = k``) — one probe per distinct listed key,
          present groups in key order;
        * the definition itself, with or without ``g`` in the select
          list (full grouped read) — the whole index in key order.

        The ungrouped ``WHERE g IN (...)`` form counts *across* groups;
        the per-group index does not hold that answer, so it falls
        through to the executor.
        """
        if stmt.table != self.table or stmt.aggregates != self.aggregates:
            return None
        where = stmt.where
        grouped = stmt.group_by is not None
        on_key = where is not None and where.column == self.group_by
        keys: Optional[Set[object]]
        if on_key and isinstance(where, Comparison):
            keys = {where.value}
        elif on_key and isinstance(where, InList) and grouped:
            keys = set(where.values)
        elif where is None and grouped:
            keys = None  # the full grouped read
        else:
            return None
        if not grouped:
            if stmt.columns:
                return None
        elif stmt.group_by != self.group_by or stmt.columns not in (
            (),
            (self.group_by,),
        ):
            return None
        if self.dirty:
            self.refresh()

        index = self._index
        if not grouped:
            (key,) = keys
            rows = [index.get(key) or self._empty_group_row()]
            examined = 1
        else:
            present = sorted(
                index if keys is None else keys & index.keys(), key=group_order
            )
            if stmt.columns:
                rows = [(key,) + index[key] for key in present]
            else:
                rows = [index[key] for key in present]
            examined = len(present if keys is None else keys)
        columns = stmt.columns + self._labels
        return ResultSet(
            columns=columns,
            rows=tuple(rows),
            stats=ExecutionStats(
                plan=f"view:{self.name}",
                rows_examined=examined,
                rows_matched=len(rows),
                rows_returned=len(rows),
            ),
        )

    def __repr__(self) -> str:
        return (
            f"<MaterializedView {self.name!r} on {self.table!r} "
            f"groups={len(self._index)} dirty={self.dirty}>"
        )


class ViewCatalog:
    """The set of materialized views installed on one database.

    Install with :meth:`Database.install_views`; the database then
    routes every statement through :meth:`intercept` — writes
    invalidate, answerable reads are served, everything else falls
    through to the executor.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics or MetricsRegistry()
        self._by_table: Dict[str, List[MaterializedView]] = {}
        self._h_hits = self.metrics.handle("db.view.hits")
        self._h_invalidations = self.metrics.handle("db.view.invalidations")

    @property
    def views(self) -> List[MaterializedView]:
        """Every registered view, in registration order."""
        return [v for views in self._by_table.values() for v in views]

    def create(
        self,
        name: str,
        database: Database,
        definition: Union[str, SelectStatement],
    ) -> MaterializedView:
        """Define, register, and return a view over *database*."""
        view = MaterializedView(name, database, definition)
        self._by_table.setdefault(view.table, []).append(view)
        return view

    def intercept(
        self, database: Database, stmt: Statement
    ) -> Optional[ResultSet]:
        """Apply the catalog to *stmt*; a ResultSet if a view served it.

        Write statements mark every view on their base table dirty and
        return ``None`` (the write still executes normally). Reads
        return the first matching view's answer, or ``None`` to fall
        through.
        """
        views = self._by_table.get(stmt.table)
        if not views:
            return None
        if isinstance(stmt, UpdateStatement):
            for view in views:
                if not view.dirty:
                    view.note_write()
                    self._h_invalidations.inc()
            return None
        if isinstance(stmt, SelectStatement):
            for view in views:
                result = view.answer(stmt)
                if result is not None:
                    self._h_hits.inc()
                    return result
        return None

    def __repr__(self) -> str:
        return f"<ViewCatalog views={[v.name for v in self.views]}>"
