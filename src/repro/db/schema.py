"""Table schemas for the mini relational engine.

A schema is an ordered list of typed columns. Types are deliberately
minimal — ``int``, ``float``, ``str`` — which covers everything the
paper's workloads (keyed lookups over a 42,000-record table, movie
schedules, product catalogs) require.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Sequence, Tuple, Type, Union

from ..errors import QueryError, UnknownColumnError

__all__ = ["Column", "Schema", "SqlType"]

SqlType = Union[Type[int], Type[float], Type[str]]

_TYPE_NAMES: Dict[SqlType, str] = {int: "INT", float: "FLOAT", str: "TEXT"}


@dataclass(frozen=True)
class Column:
    """One typed column."""

    name: str
    type: SqlType

    def __post_init__(self) -> None:
        if self.type not in _TYPE_NAMES:
            raise QueryError(f"unsupported column type: {self.type!r}")
        if not self.name.isidentifier():
            raise QueryError(f"invalid column name: {self.name!r}")

    @property
    def type_name(self) -> str:
        return _TYPE_NAMES[self.type]

    def coerce(self, value: Any) -> Any:
        """Validate/convert *value* for storage in this column."""
        if value is None:
            return None
        if self.type is float and isinstance(value, int):
            return float(value)
        if not isinstance(value, self.type) or isinstance(value, bool):
            raise QueryError(
                f"column {self.name!r} expects {self.type_name}, got {value!r}"
            )
        return value


class Schema:
    """An ordered collection of :class:`Column` with name lookup."""

    def __init__(self, columns: Sequence[Column]) -> None:
        if not columns:
            raise QueryError("a table needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise QueryError(f"duplicate column names: {names!r}")
        self.columns: Tuple[Column, ...] = tuple(columns)
        #: Each column's type, in order: a row whose values have exactly
        #: these classes needs no coercion (see ``Table.load``).
        self.types: Tuple[SqlType, ...] = tuple(c.type for c in columns)
        self._index: Dict[str, int] = {c.name: i for i, c in enumerate(columns)}

    @property
    def column_names(self) -> List[str]:
        return [c.name for c in self.columns]

    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index_of(self, name: str) -> int:
        """Position of column *name*; raises :class:`UnknownColumnError`."""
        try:
            return self._index[name]
        except KeyError:
            raise UnknownColumnError(
                f"unknown column {name!r}; have {self.column_names!r}"
            ) from None

    def column(self, name: str) -> Column:
        """The :class:`Column` called *name*."""
        return self.columns[self.index_of(name)]

    def coerce_row(
        self, values: Union[Sequence[Any], Mapping[str, Any]]
    ) -> Tuple[Any, ...]:
        """Validate a full row of values against the schema.

        *values* is a sequence in schema order, or a mapping of column
        name to value where a missing column is ``None`` and an unknown
        name raises :class:`UnknownColumnError`.
        """
        if isinstance(values, Mapping):
            unknown = [name for name in values if name not in self._index]
            if unknown:
                raise UnknownColumnError(
                    f"unknown column {unknown[0]!r}; have {self.column_names!r}"
                )
            values = [values.get(name) for name in self._index]
        if len(values) != len(self.columns):
            raise QueryError(
                f"expected {len(self.columns)} values, got {len(values)}"
            )
        return tuple(col.coerce(v) for col, v in zip(self.columns, values))

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.type_name}" for c in self.columns)
        return f"<Schema {cols}>"
