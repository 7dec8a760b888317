"""Query AST for the mini-SQL dialect.

Statements: ``SELECT`` (with ``WHERE``/``ORDER BY``/``LIMIT`` and
``COUNT(*)``), ``INSERT``, ``UPDATE``, ``DELETE``. Predicates form a
small boolean algebra over column/literal comparisons.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Optional, Tuple, Union

__all__ = [
    "Comparison",
    "Between",
    "InList",
    "Like",
    "And",
    "Or",
    "Predicate",
    "SelectStatement",
    "InsertStatement",
    "UpdateStatement",
    "DeleteStatement",
    "Statement",
]

#: Comparison operators and their Python semantics.
COMPARISON_OPS = ("=", "!=", "<", "<=", ">", ">=")


@dataclass(frozen=True)
class Comparison:
    """``column OP literal``."""

    column: str
    op: str
    value: Any

    def __post_init__(self) -> None:
        if self.op not in COMPARISON_OPS:
            raise ValueError(f"bad comparison operator: {self.op!r}")

    def matches(self, value: Any) -> bool:
        """True if *value* satisfies the comparison (NULL never does)."""
        if value is None:
            return False
        if self.op == "=":
            return value == self.value
        if self.op == "!=":
            return value != self.value
        if self.op == "<":
            return value < self.value
        if self.op == "<=":
            return value <= self.value
        if self.op == ">":
            return value > self.value
        return value >= self.value


@dataclass(frozen=True)
class Between:
    """``column BETWEEN low AND high`` (inclusive both ends)."""

    column: str
    low: Any
    high: Any

    def matches(self, value: Any) -> bool:
        """True if *value* lies in [low, high]."""
        return value is not None and self.low <= value <= self.high


@dataclass(frozen=True)
class InList:
    """``column IN (v1, v2, ...)``."""

    column: str
    values: Tuple[Any, ...]

    def matches(self, value: Any) -> bool:
        """True if *value* is one of the listed literals."""
        return value in self.values


@dataclass(frozen=True)
class Like:
    """``column LIKE pattern`` with SQL ``%`` and ``_`` wildcards."""

    column: str
    pattern: str

    def _regex(self) -> "re.Pattern[str]":
        parts = []
        for ch in self.pattern:
            if ch == "%":
                parts.append(".*")
            elif ch == "_":
                parts.append(".")
            else:
                parts.append(re.escape(ch))
        return re.compile("^" + "".join(parts) + "$", re.IGNORECASE)

    @property
    def prefix(self) -> Optional[str]:
        """Literal prefix before the first wildcard (None if empty)."""
        cut = len(self.pattern)
        for wildcard in ("%", "_"):
            pos = self.pattern.find(wildcard)
            if pos != -1:
                cut = min(cut, pos)
        return self.pattern[:cut] or None

    def matches(self, value: Any) -> bool:
        """True if the string *value* matches the LIKE pattern."""
        return isinstance(value, str) and bool(self._regex().match(value))


@dataclass(frozen=True)
class And:
    """Conjunction of predicates."""

    parts: Tuple["Predicate", ...]


@dataclass(frozen=True)
class Or:
    """Disjunction of predicates."""

    parts: Tuple["Predicate", ...]


Predicate = Union[Comparison, Between, InList, Like, And, Or]


#: An aggregate item in a select list: (function, column). ``COUNT`` may
#: take ``None`` for ``COUNT(*)``.
Aggregate = Tuple[str, Union[str, None]]

AGGREGATE_FUNCTIONS = ("COUNT", "SUM", "AVG", "MIN", "MAX")


def aggregate_label(aggregate: Aggregate) -> str:
    """The output column name of an aggregate: ``count``, ``sum_price``, ..."""
    function, column = aggregate
    if column is None:
        return function.lower()
    return f"{function.lower()}_{column}"


@dataclass(frozen=True)
class SelectStatement:
    """A parsed ``SELECT``.

    ``columns`` and ``aggregates`` together form the select list; with a
    ``group_by`` column, plain columns must name the grouping column.
    """

    table: str
    columns: Tuple[str, ...]  # empty tuple means '*' (when no aggregates)
    where: Optional[Predicate] = None
    order_by: Optional[str] = None
    descending: bool = False
    limit: Optional[int] = None
    aggregates: Tuple[Aggregate, ...] = ()
    group_by: Optional[str] = None

    @property
    def count_star(self) -> bool:
        """True for a bare ``SELECT COUNT(*)`` (no grouping)."""
        return (
            self.aggregates == (("COUNT", None),)
            and not self.columns
            and self.group_by is None
        )

    @property
    def is_star(self) -> bool:
        return not self.columns and not self.aggregates


@dataclass(frozen=True)
class InsertStatement:
    """A parsed ``INSERT INTO t (cols) VALUES (...)``."""

    table: str
    columns: Tuple[str, ...]
    values: Tuple[Any, ...]


@dataclass(frozen=True)
class UpdateStatement:
    """A parsed ``UPDATE t SET col = lit [, ...] [WHERE ...]``."""

    table: str
    assignments: Tuple[Tuple[str, Any], ...]
    where: Optional[Predicate] = None


@dataclass(frozen=True)
class DeleteStatement:
    """A parsed ``DELETE FROM t [WHERE ...]``."""

    table: str
    where: Optional[Predicate] = None


Statement = Union[SelectStatement, InsertStatement, UpdateStatement, DeleteStatement]
