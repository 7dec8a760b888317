"""Query AST for the mini-SQL dialect.

Statements: ``SELECT`` (a column list, ``*`` or ``COUNT(*)``, with an
optional ``WHERE`` and ``GROUP BY``) and ``UPDATE``. A ``WHERE`` holds
one predicate: ``column = literal`` or ``column IN (...)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union

__all__ = [
    "Comparison",
    "InList",
    "Predicate",
    "SelectStatement",
    "UpdateStatement",
    "Statement",
]


@dataclass(frozen=True)
class Comparison:
    """``column = literal``."""

    column: str
    value: Any

    def matches(self, value: Any) -> bool:
        """True if *value* equals the literal (NULL never does)."""
        return value is not None and value == self.value


@dataclass(frozen=True)
class InList:
    """``column IN (v1, v2, ...)``."""

    column: str
    values: Tuple[Any, ...]

    def matches(self, value: Any) -> bool:
        """True if *value* is one of the listed literals."""
        return value in self.values


Predicate = Union[Comparison, InList]


#: An aggregate item in a select list: (function, column). The one
#: aggregate is ``COUNT(*)``, spelled ``("COUNT", None)``.
Aggregate = Tuple[str, None]


def aggregate_label(aggregate: Aggregate) -> str:
    """The output column name of an aggregate: ``count``."""
    return aggregate[0].lower()


@dataclass(frozen=True)
class SelectStatement:
    """A parsed ``SELECT``.

    ``columns`` and ``aggregates`` together form the select list; with a
    ``group_by`` column, plain columns must name the grouping column.
    """

    table: str
    columns: Tuple[str, ...]  # empty tuple means '*' (when no aggregates)
    where: Optional[Predicate] = None
    aggregates: Tuple[Aggregate, ...] = ()
    group_by: Optional[str] = None


@dataclass(frozen=True)
class UpdateStatement:
    """A parsed ``UPDATE t SET col = lit [, ...] [WHERE ...]``."""

    table: str
    assignments: Tuple[Tuple[str, Any], ...]
    where: Optional[Predicate] = None


Statement = Union[SelectStatement, UpdateStatement]
