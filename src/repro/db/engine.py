"""The in-process database engine: named tables plus SQL execution."""

from __future__ import annotations

from typing import Dict, Sequence, Tuple, Union

from ..errors import QueryError, UnknownTableError
from .executor import ResultSet, execute_statement
from .parser import parse
from .query import Statement
from .schema import Column, Schema, SqlType
from .table import Table

__all__ = ["Database"]


class Database:
    """A collection of tables with a SQL front door.

    >>> db = Database()
    >>> db.create_table("movies", [("id", int), ("title", str)]).load([(1, "Heat")])
    1
    >>> db.execute("SELECT title FROM movies WHERE id = 1").rows
    (('Heat',),)
    """

    def __init__(self, name: str = "db") -> None:
        self.name = name
        self.tables: Dict[str, Table] = {}
        #: Optional :class:`~repro.db.views.ViewCatalog`; ``None`` means
        #: every statement goes straight to the executor (byte-identical
        #: legacy behaviour). Install with :meth:`install_views`.
        self.views = None

    def create_table(
        self,
        name: str,
        columns: Sequence[Union[Column, Tuple[str, SqlType]]],
    ) -> Table:
        """Create a table; *columns* are Column objects or (name, type) pairs."""
        if name in self.tables:
            raise QueryError(f"table {name!r} already exists")
        schema = Schema(
            [c if isinstance(c, Column) else Column(c[0], c[1]) for c in columns]
        )
        table = Table(name, schema)
        self.tables[name] = table
        return table

    def table(self, name: str) -> Table:
        """The table called *name*; raises :class:`UnknownTableError`."""
        try:
            return self.tables[name]
        except KeyError:
            raise UnknownTableError(
                f"unknown table {name!r}; have {sorted(self.tables)!r}"
            ) from None

    def install_views(self, catalog) -> None:
        """Route statements through a materialized-view catalog.

        Writes against a view's base table mark it dirty; reads a view
        can answer are served from its index instead of the executor
        (see :mod:`repro.db.views`).
        """
        self.views = catalog

    def execute(self, statement: Union[str, Statement]) -> ResultSet:
        """Parse (if needed) and execute one statement.

        With a view catalog installed, the statement is offered to the
        views first: a served read returns immediately, a write falls
        through after invalidating the affected views.
        """
        stmt = parse(statement) if isinstance(statement, str) else statement
        views = self.views
        if views is not None:
            served = views.intercept(self, stmt)
            if served is not None:
                return served
        return execute_statement(self.table(stmt.table), stmt)

    def __repr__(self) -> str:
        return f"<Database {self.name!r} tables={sorted(self.tables)}>"
