"""Unit tests for the mini-SQL tokenizer and parser."""

from __future__ import annotations

import dataclasses
import typing

import pytest

from repro.db import parse, query
from repro.db.parser import PARSE_CACHE_SIZE, tokenize
from repro.db.planner import plan_access
from repro.db.schema import Column, Schema
from repro.db.table import Table
from repro.db.query import (
    Comparison,
    InList,
    SelectStatement,
    UpdateStatement,
)
from repro.errors import SqlSyntaxError


class TestTokenizer:
    def test_numbers(self):
        kinds = [(t.kind, t.value) for t in tokenize("1 2.5 007")]
        assert kinds == [("int", 1), ("float", 2.5), ("int", 7)]

    def test_strings_with_escaped_quote(self):
        tokens = tokenize("'it''s'")
        assert tokens[0].value == "it's"

    def test_keywords_case_insensitive(self):
        tokens = tokenize("select FROM WhErE")
        assert [t.value for t in tokens] == ["SELECT", "FROM", "WHERE"]

    def test_operators(self):
        # '=' is the one comparison operator; the others are not tokens.
        assert [(t.kind, t.value) for t in tokenize("=")] == [("op", "=")]
        for other in ("!=", "<>", "<", "<=", ">", ">="):
            with pytest.raises(SqlSyntaxError):
                tokenize(f"a {other} 1")

    def test_rejects_junk(self):
        with pytest.raises(SqlSyntaxError):
            tokenize("SELECT @ FROM t")


class TestSelectParsing:
    def test_star(self):
        stmt = parse("SELECT * FROM movies")
        assert isinstance(stmt, SelectStatement)
        assert stmt.table == "movies"
        assert stmt.columns == () and stmt.aggregates == ()

    def test_column_list(self):
        stmt = parse("SELECT title, year FROM movies")
        assert stmt.columns == ("title", "year")

    def test_count_star(self):
        stmt = parse("SELECT COUNT(*) FROM movies")
        assert stmt.aggregates == (("COUNT", None),)
        assert stmt.columns == () and stmt.group_by is None

    def test_where_comparison(self):
        stmt = parse("SELECT * FROM t WHERE year = 1990")
        assert stmt.where == Comparison("year", 1990)
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM t WHERE year >= 1990")

    def test_where_and_or_precedence(self):
        # A WHERE holds one predicate: AND and OR are not part of the dialect.
        for sql in (
            "SELECT * FROM t WHERE a = 1 AND b = 2 OR c = 3",
            "SELECT * FROM t WHERE a = 1 AND b = 2",
            "SELECT * FROM t WHERE a = 1 OR c = 3",
        ):
            with pytest.raises(SqlSyntaxError):
                parse(sql)

    def test_parenthesized_predicates(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM t WHERE (b = 2)")

    def test_between(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM t WHERE year BETWEEN 1990 AND 2000")

    def test_in_list(self):
        stmt = parse("SELECT * FROM t WHERE g IN (1, 2, 3)")
        assert stmt.where == InList("g", (1, 2, 3))

    def test_like(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM t WHERE name LIKE 'Al%'")

    def test_order_by_and_limit(self):
        for sql in (
            "SELECT * FROM t ORDER BY year DESC LIMIT 5",
            "SELECT * FROM t ORDER BY year",
            "SELECT * FROM t LIMIT 5",
        ):
            with pytest.raises(SqlSyntaxError):
                parse(sql)

    def test_order_by_asc_default(self):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM t ORDER BY year ASC")

    def test_string_literals(self):
        stmt = parse("SELECT * FROM t WHERE name = 'O''Brien'")
        assert stmt.where == Comparison("name", "O'Brien")


class TestOtherStatements:
    def test_insert(self):
        # Rows enter a table through Table.load; INSERT is not SQL here.
        with pytest.raises(SqlSyntaxError):
            parse("INSERT INTO t (a, b) VALUES (1, 'x')")

    def test_insert_count_mismatch(self):
        with pytest.raises(SqlSyntaxError):
            parse("INSERT INTO t (a, b) VALUES (1)")

    def test_update(self):
        stmt = parse("UPDATE t SET a = 1, b = 'y' WHERE c = 0")
        assert isinstance(stmt, UpdateStatement)
        assert stmt.assignments == (("a", 1), ("b", "y"))
        assert stmt.where == Comparison("c", 0)

    def test_delete(self):
        with pytest.raises(SqlSyntaxError):
            parse("DELETE FROM t WHERE a = 5")

    def test_delete_without_where(self):
        with pytest.raises(SqlSyntaxError):
            parse("DELETE FROM t")


class TestParserErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "",
            "SELEC * FROM t",
            "SELECT * FROM",
            "SELECT FROM t",
            "SELECT * FROM t WHERE",
            "SELECT * FROM t WHERE a",
            "SELECT * FROM t WHERE a = ",
            "SELECT * FROM t LIMIT 'five'",
            "SELECT * FROM t trailing",
            "SELECT * FROM t WHERE a LIKE 5",
            "SELECT * FROM t WHERE a BETWEEN 1",
            "INSERT INTO t VALUES (1)",
            "42",
        ],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(SqlSyntaxError):
            parse(bad)

    def test_where_equals_where_keyword_column_fails(self):
        # Keywords cannot be used as identifiers.
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM t WHERE select = 1")


class TestLikeSemantics:
    """The dialect has no LIKE: every pattern is a syntax error."""

    @pytest.mark.parametrize(
        ("pattern", "value", "expected"),
        [
            ("abc", "abc", True),
            ("abc", "ABC", True),
            ("a%", "abcdef", True),
            ("%f", "abcdef", True),
            ("a_c", "abc", True),
            ("a_c", "abbc", False),
            ("%b%", "abc", True),
            ("", "", True),
            ("a.c", "abc", False),
        ],
    )
    def test_matches(self, pattern, value, expected):
        with pytest.raises(SqlSyntaxError):
            parse(f"SELECT * FROM t WHERE x LIKE '{pattern}'")
        # The equality that remains matches exactly, case and all.
        assert Comparison("x", pattern).matches(value) is (pattern == value)

    def test_prefix_extraction(self):
        # No LIKE, so no prefix range: a string key is read by equality.
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM t WHERE x LIKE 'abc%'")
        table = Table("t", Schema([Column("x", str)]))
        table.load([("abc",), ("abcd",)])
        table.create_index("x")
        path = plan_access(table, parse("SELECT * FROM t WHERE x = 'abc'").where)
        assert (path.kind, path.values) == ("hash-eq", ("abc",))


class TestParseCache:
    def test_repeated_text_shares_one_parse(self):
        sql = "SELECT val FROM records WHERE grp = 17"
        assert parse(sql) is parse(sql)
        assert parse(sql) is not parse(sql + " ")

    def test_cache_is_bounded(self):
        for n in range(PARSE_CACHE_SIZE + 50):
            parse(f"SELECT a FROM t WHERE b = {n}")
        assert parse.cache_info().currsize == PARSE_CACHE_SIZE

    def test_syntax_error_raises_every_time(self):
        for _ in range(3):
            with pytest.raises(SqlSyntaxError):
                parse("SELECT FROM")

    def test_every_ast_node_is_immutable(self):
        """A shared parse is only safe if no caller can change it."""
        nodes = [
            value
            for value in vars(query).values()
            if dataclasses.is_dataclass(value) and value.__module__ == query.__name__
        ]
        assert {SelectStatement, UpdateStatement, Comparison, InList} <= set(nodes)

        def containers(annotation):
            yield typing.get_origin(annotation) or annotation
            for argument in typing.get_args(annotation):
                yield from containers(argument)

        for node in nodes:
            assert node.__dataclass_params__.frozen, node
            for name, annotation in typing.get_type_hints(node).items():
                mutable = {list, dict, set} & set(containers(annotation))
                assert not mutable, f"{node.__name__}.{name}: {annotation}"
