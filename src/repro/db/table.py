"""Row storage with secondary index maintenance.

Rows are tuples held in a slotted list; deletion tombstones the slot so
row ids stay stable (indexes reference row ids). All mutations keep
every index consistent and report the changed row to the table's
observers (see :meth:`Table.subscribe`).
"""

from __future__ import annotations

from typing import (
    Any, Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union,
)

from ..errors import QueryError
from .index import HashIndex, SortedIndex
from .schema import Column, Schema

__all__ = ["Table"]

Row = Tuple[Any, ...]

#: Called after each row change with ``(old row, new row)``: an insert
#: has no old row, a delete no new one.
RowObserver = Callable[[Optional[Row], Optional[Row]], None]


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

    def insert(self, values: Union[Sequence[Any], Mapping[str, Any]]) -> int:
        """Insert one row; returns its row id.

        *values* is either a sequence in schema order or a mapping of
        column name to value (missing columns become ``None``).
        """
        if isinstance(values, Mapping):
            row = self.schema.coerce_row(
                [values.get(c.name) for c in self.schema.columns]
            )
        else:
            row = self.schema.coerce_row(values)
        row_id = len(self._rows)
        self._rows.append(row)
        self._live += 1
        for column, index in self.indexes.items():
            index.insert(row[self.schema.index_of(column)], row_id)
        for observer in self._observers:
            observer(None, row)
        return row_id

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
        self.schema.index_of(column)  # validates the column exists
        if column in self.indexes:
            raise QueryError(f"index on {self.name}.{column} already exists")
        if kind == "hash":
            index: Union[HashIndex, SortedIndex] = HashIndex(column)
            for row_id, row in self.scan():
                index.insert(self.value(row, column), row_id)
        elif kind == "sorted":
            index = SortedIndex(column)
            index.bulk_load(
                (self.value(row, column), row_id) for row_id, row in self.scan()
            )
        else:
            raise QueryError(f"unknown index kind: {kind!r}")
        self.indexes[column] = index

    def __repr__(self) -> str:
        return (
            f"<Table {self.name!r} rows={self._live} "
            f"indexes={sorted(self.indexes)}>"
        )
