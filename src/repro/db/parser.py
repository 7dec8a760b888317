"""Tokenizer and recursive-descent parser for the mini-SQL dialect.

Grammar (case-insensitive keywords)::

    statement  := select | update
    select     := SELECT ('*' | item (',' item)*)
                  FROM ident [WHERE predicate] [GROUP BY ident]
    item       := COUNT '(' '*' ')' | ident
    update     := UPDATE ident SET ident '=' literal (',' ident '=' literal)*
                  [WHERE predicate]
    predicate  := ident '=' literal
                | ident IN '(' literal (',' literal)* ')'
    literal    := int | float | string

These are the forms the testbeds send; anything else is a
:class:`~repro.errors.SqlSyntaxError`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, List, Optional, Tuple

from ..errors import SqlSyntaxError
from .query import (
    Comparison,
    InList,
    Predicate,
    SelectStatement,
    Statement,
    UpdateStatement,
)

__all__ = ["parse", "tokenize", "Token"]

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<float>\d+\.\d+)
  | (?P<int>\d+)
  | (?P<string>'(?:[^']|'')*')
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>=)
  | (?P<punct>[(),*])
    """,
    re.VERBOSE,
)

KEYWORDS = {
    "SELECT", "FROM", "WHERE", "IN", "COUNT", "GROUP", "BY", "UPDATE", "SET",
}


@dataclass(frozen=True)
class Token:
    """One lexical token: a *kind* plus its decoded *value*."""

    kind: str  # 'keyword' | 'ident' | 'int' | 'float' | 'string' | 'op' | 'punct'
    value: Any
    position: int


def tokenize(text: str) -> List[Token]:
    """Convert *text* to tokens; raises :class:`SqlSyntaxError` on junk."""
    tokens: List[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise SqlSyntaxError(f"unexpected character {text[pos]!r} at {pos}")
        kind = match.lastgroup
        raw = match.group()
        if kind == "ws":
            pass
        elif kind == "float":
            tokens.append(Token("float", float(raw), pos))
        elif kind == "int":
            tokens.append(Token("int", int(raw), pos))
        elif kind == "string":
            tokens.append(Token("string", raw[1:-1].replace("''", "'"), pos))
        elif kind == "ident":
            upper = raw.upper()
            if upper in KEYWORDS:
                tokens.append(Token("keyword", upper, pos))
            else:
                tokens.append(Token("ident", raw, pos))
        elif kind == "op":
            tokens.append(Token("op", raw, pos))
        else:
            tokens.append(Token("punct", raw, pos))
        pos = match.end()
    return tokens


class _Parser:
    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = tokenize(text)
        self.pos = 0

    # -- token helpers ---------------------------------------------------

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise SqlSyntaxError(f"unexpected end of statement: {self.text!r}")
        self.pos += 1
        return token

    def expect(self, kind: str, value: Any = None) -> Token:
        token = self.next()
        if token.kind != kind or (value is not None and token.value != value):
            wanted = value if value is not None else kind
            raise SqlSyntaxError(
                f"expected {wanted!r}, got {token.value!r} at {token.position}"
            )
        return token

    def accept(self, kind: str, value: Any = None) -> Optional[Token]:
        token = self.peek()
        if token is not None and token.kind == kind and (
            value is None or token.value == value
        ):
            self.pos += 1
            return token
        return None

    def literal(self) -> Any:
        token = self.next()
        if token.kind not in ("int", "float", "string"):
            raise SqlSyntaxError(
                f"expected a literal, got {token.value!r} at {token.position}"
            )
        return token.value

    def ident(self) -> str:
        token = self.next()
        if token.kind != "ident":
            raise SqlSyntaxError(
                f"expected an identifier, got {token.value!r} at {token.position}"
            )
        return token.value

    # -- statements --------------------------------------------------------

    def statement(self) -> Statement:
        token = self.peek()
        if token is None:
            raise SqlSyntaxError("empty statement")
        if token.kind != "keyword":
            raise SqlSyntaxError(f"statement must start with a keyword: {self.text!r}")
        if token.value == "SELECT":
            result: Statement = self.select()
        elif token.value == "UPDATE":
            result = self.update()
        else:
            raise SqlSyntaxError(f"unsupported statement: {token.value}")
        trailing = self.peek()
        if trailing is not None:
            raise SqlSyntaxError(
                f"trailing input at {trailing.position}: {trailing.value!r}"
            )
        return result

    def select(self) -> SelectStatement:
        self.expect("keyword", "SELECT")
        columns: list = []
        aggregates: list = []
        if self.accept("punct", "*"):
            pass
        else:
            self.select_item(columns, aggregates)
            while self.accept("punct", ","):
                self.select_item(columns, aggregates)
        self.expect("keyword", "FROM")
        table = self.ident()
        where = self.where_clause()
        group_by: Optional[str] = None
        if self.accept("keyword", "GROUP"):
            self.expect("keyword", "BY")
            group_by = self.ident()
        if group_by is not None and not aggregates:
            raise SqlSyntaxError("GROUP BY requires at least one aggregate")
        if aggregates and columns:
            if group_by is None:
                raise SqlSyntaxError(
                    "mixing plain columns with aggregates requires GROUP BY"
                )
            for name in columns:
                if name != group_by:
                    raise SqlSyntaxError(
                        f"column {name!r} must appear in GROUP BY"
                    )
        return SelectStatement(
            table=table,
            columns=tuple(columns),
            where=where,
            aggregates=tuple(aggregates),
            group_by=group_by,
        )

    def select_item(self, columns: list, aggregates: list) -> None:
        """Parse one select-list item: a column or ``COUNT(*)``."""
        if self.accept("keyword", "COUNT"):
            self.expect("punct", "(")
            self.expect("punct", "*")
            self.expect("punct", ")")
            aggregates.append(("COUNT", None))
        else:
            columns.append(self.ident())

    def update(self) -> UpdateStatement:
        self.expect("keyword", "UPDATE")
        table = self.ident()
        self.expect("keyword", "SET")
        assignments = [self.assignment()]
        while self.accept("punct", ","):
            assignments.append(self.assignment())
        where = self.where_clause()
        return UpdateStatement(table, tuple(assignments), where)

    def assignment(self) -> Tuple[str, Any]:
        column = self.ident()
        self.expect("op", "=")
        return column, self.literal()

    # -- predicates ----------------------------------------------------

    def where_clause(self) -> Optional[Predicate]:
        if self.accept("keyword", "WHERE"):
            return self.predicate()
        return None

    def predicate(self) -> Predicate:
        column = self.ident()
        if self.accept("keyword", "IN"):
            self.expect("punct", "(")
            values = [self.literal()]
            while self.accept("punct", ","):
                values.append(self.literal())
            self.expect("punct", ")")
            return InList(column, tuple(values))
        self.expect("op", "=")
        return Comparison(column, self.literal())


#: Distinct SQL texts whose parse is kept. The §V workloads issue a few
#: hundred hot read texts plus one-off write texts; least recently used
#: texts fall out, so memory stays bounded whatever a client sends.
PARSE_CACHE_SIZE = 4096


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse(text: str) -> Statement:
    """Parse one SQL statement; raises :class:`SqlSyntaxError` on error.

    Results are memoised per text, so the broker-side combiner and the
    database share one parse of each statement: callers receive the
    *same* object for the same text. That is safe because every
    statement and predicate is a frozen dataclass over tuples
    (``tests/db/test_parser.py`` enforces it); a failed parse is not
    remembered and raises again on every call.
    """
    return _Parser(text).statement()
