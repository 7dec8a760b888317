"""Row storage with secondary index maintenance.

Rows are tuples held in a slotted list; deletion tombstones the slot so
row ids stay stable (indexes reference row ids). All mutations keep
every index consistent and report the changed row to the table's
observers (see :meth:`Table.subscribe`). Rows are written one way,
:meth:`Table.load`; :meth:`Table.insert` is a one-row load.
"""

from __future__ import annotations

from itertools import compress, count
from operator import itemgetter
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence,
    Tuple, Union,
)

from ..errors import QueryError
from .index import HashIndex, SortedIndex
from .schema import Column, Schema

__all__ = ["Table"]

Row = Tuple[Any, ...]

#: Called after each row change with ``(old row, new row)``: an insert
#: has no old row, a delete no new one.
RowObserver = Callable[[Optional[Row], Optional[Row]], None]

#: What a caller writes: values in schema order, or column name -> value.
RowValues = Union[Sequence[Any], Mapping[str, Any]]


class Table:
    """One table: a schema, row storage, and secondary indexes."""

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema = schema
        self._rows: List[Optional[Row]] = []
        self._live = 0
        self.indexes: Dict[str, Union[HashIndex, SortedIndex]] = {}
        self._observers: List[RowObserver] = []

    # -- bookkeeping -----------------------------------------------------

    @property
    def row_count(self) -> int:
        """Number of live (non-deleted) rows."""
        return self._live

    def __len__(self) -> int:
        return self._live

    # -- mutation --------------------------------------------------------

    def load(self, rows: Iterable[RowValues]) -> int:
        """Validate every row in *rows*, then store them in order.

        Returns the number of rows stored. Each row is a sequence in
        schema order or a mapping of column name to value (missing
        columns become ``None``; an unknown name raises
        :class:`~repro.errors.UnknownColumnError`). A tuple whose
        values' classes are exactly the column types is stored as
        given; any other row goes through
        :meth:`~repro.db.schema.Schema.coerce_row`, which lets ``None``
        through and widens an int bound for a float column. One bad row
        raises :class:`~repro.errors.QueryError` before any row is
        stored, so the table, its indexes and its observers are
        untouched.

        Stored rows get the row ids, index postings and observer calls
        successive :meth:`insert` calls would give them, one row at a
        time. A table with no index and no observer yet — the bulk-load
        case — skips that per-row pass; create its indexes afterwards.
        """
        schema = self.schema
        types = schema.types
        stored = self._rows
        append = stored.append
        start = len(stored)
        try:
            for values in rows:
                # type(True) is bool, so a bool never passes for an int.
                if values.__class__ is tuple and tuple(map(type, values)) == types:
                    append(values)
                else:
                    append(schema.coerce_row(values))
        except BaseException:
            del stored[start:]
            raise
        loaded = len(stored) - start
        if not (self.indexes or self._observers):
            self._live += loaded
            return loaded
        staged = stored[start:]
        del stored[start:]
        for row in staged:
            row_id = len(stored)
            append(row)
            self._live += 1
            for column, index in self.indexes.items():
                index.insert(row[schema.index_of(column)], row_id)
            for observer in self._observers:
                observer(None, row)
        return loaded

    def insert(self, values: RowValues) -> int:
        """Insert one row (a one-row :meth:`load`); returns its row id."""
        self.load((values,))
        return len(self._rows) - 1

    def delete(self, row_id: int) -> None:
        """Tombstone the row with *row_id*."""
        row = self._fetch(row_id)
        self._rows[row_id] = None
        self._live -= 1
        for column, index in self.indexes.items():
            index.remove(row[self.schema.index_of(column)], row_id)
        for observer in self._observers:
            observer(row, None)

    def update(self, row_id: int, changes: Mapping[str, Any]) -> None:
        """Overwrite columns of one row, keeping indexes consistent."""
        old = self._fetch(row_id)
        row = list(old)
        for column, value in changes.items():
            pos = self.schema.index_of(column)
            coerced = self.schema.columns[pos].coerce(value)
            index = self.indexes.get(column)
            if index is not None:
                index.remove(row[pos], row_id)
                index.insert(coerced, row_id)
            row[pos] = coerced
        new = tuple(row)
        self._rows[row_id] = new
        for observer in self._observers:
            observer(old, new)

    def _fetch(self, row_id: int) -> Row:
        if not 0 <= row_id < len(self._rows) or self._rows[row_id] is None:
            raise QueryError(f"no live row with id {row_id} in {self.name!r}")
        return self._rows[row_id]  # type: ignore[return-value]

    def subscribe(self, observer: RowObserver) -> None:
        """Call *observer* ``(old row, new row)`` after every row change.

        ``insert`` reports ``(None, row)``, ``delete`` ``(row, None)``
        and ``update`` both images — what a materialized view needs to
        know which groups a write touched.
        """
        self._observers.append(observer)

    # -- access ----------------------------------------------------------

    def get(self, row_id: int) -> Optional[Row]:
        """The row with *row_id*, or ``None`` if deleted/out of range."""
        if 0 <= row_id < len(self._rows):
            return self._rows[row_id]
        return None

    def scan(self) -> Iterator[Tuple[int, Row]]:
        """Iterate (row id, row) over all live rows."""
        for row_id, row in enumerate(self._rows):
            if row is not None:
                yield row_id, row

    def value(self, row: Row, column: str) -> Any:
        """The value of *column* within *row*."""
        return row[self.schema.index_of(column)]

    # -- indexes ---------------------------------------------------------

    def create_index(self, column: str, kind: str = "hash") -> None:
        """Build a secondary index over *column* (``"hash"`` or ``"sorted"``)."""
        position = self.schema.index_of(column)  # validates the column exists
        if column in self.indexes:
            raise QueryError(f"index on {self.name}.{column} already exists")
        if kind == "hash":
            index: Union[HashIndex, SortedIndex] = HashIndex(column)
        elif kind == "sorted":
            index = SortedIndex(column)
        else:
            raise QueryError(f"unknown index kind: {kind!r}")
        rows = self._rows
        # (value, row id) of each live row, row ids ascending. A row is a
        # non-empty tuple, so only a tombstone (None) is falsy.
        index.bulk_load(
            zip(map(itemgetter(position), filter(None, rows)), compress(count(), rows))
        )
        self.indexes[column] = index

    def __repr__(self) -> str:
        return (
            f"<Table {self.name!r} rows={self._live} "
            f"indexes={sorted(self.indexes)}>"
        )
