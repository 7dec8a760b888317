"""Tests for ``COUNT(*)`` and GROUP BY, the one aggregate the dialect keeps."""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.errors import QueryError, SqlSyntaxError, UnknownColumnError


@pytest.fixture
def db():
    database = Database()
    table = database.create_table(
        "sales", [("region", str), ("product", str), ("amount", int), ("price", float)]
    )
    rows = [
        ("east", "widget", 10, 2.5),
        ("east", "gadget", 5, 10.0),
        ("west", "widget", 20, 2.5),
        ("west", "widget", 1, 2.5),
        ("north", "gadget", 7, 9.0),
    ]
    table.load(rows)
    return database


def count(db, sql):
    result = db.execute(sql)
    assert result.columns == ("count",)
    (row,) = result.rows
    return row[0]


class TestPlainAggregates:
    def test_count_star(self, db):
        assert count(db, "SELECT COUNT(*) FROM sales") == 5

    def test_sum(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT SUM(amount) FROM sales")

    def test_avg(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT AVG(price) FROM sales")

    def test_min_max(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT MIN(amount), MAX(amount) FROM sales")

    def test_min_max_on_strings(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT MIN(region), MAX(region) FROM sales")

    def test_count_column_skips_nulls(self, db):
        table = db.table("sales")
        table.insert({"region": "south"})  # product/amount/price are NULL
        assert count(db, "SELECT COUNT(*) FROM sales") == 6
        # A NULL never equals a literal, so it is counted by no group.
        assert count(db, "SELECT COUNT(*) FROM sales WHERE amount = 1") == 1
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT COUNT(amount) FROM sales")

    def test_aggregate_with_where(self, db):
        assert count(db, "SELECT COUNT(*) FROM sales WHERE region = 'west'") == 2

    def test_aggregates_over_empty_match(self, db):
        assert count(db, "SELECT COUNT(*) FROM sales WHERE amount = 99") == 0
        result = db.execute(
            "SELECT region, COUNT(*) FROM sales WHERE amount = 99 GROUP BY region"
        )
        assert result.rows == ()

    def test_sum_on_text_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT SUM(region) FROM sales")

    def test_unknown_column_rejected(self, db):
        with pytest.raises(UnknownColumnError):
            db.execute("SELECT ghost, COUNT(*) FROM sales GROUP BY ghost")
        with pytest.raises(UnknownColumnError):
            db.execute("SELECT COUNT(*) FROM sales WHERE ghost = 1")


class TestGroupBy:
    def test_group_counts(self, db):
        result = db.execute(
            "SELECT region, COUNT(*) FROM sales GROUP BY region"
        )
        assert result.columns == ("region", "count")
        assert result.rows == (("east", 2), ("north", 1), ("west", 2))

    def test_group_multiple_aggregates(self, db):
        result = db.execute(
            "SELECT region, COUNT(*), COUNT(*) FROM sales GROUP BY region"
        )
        assert result.columns == ("region", "count", "count")
        assert result.rows == (("east", 2, 2), ("north", 1, 1), ("west", 2, 2))

    def test_group_without_selecting_key(self, db):
        result = db.execute("SELECT COUNT(*) FROM sales GROUP BY product")
        assert result.columns == ("count",)
        assert sorted(r[0] for r in result.rows) == [2, 3]

    def test_group_with_where(self, db):
        result = db.execute(
            "SELECT region, COUNT(*) FROM sales WHERE product = 'widget' "
            "GROUP BY region"
        )
        assert result.rows == (("east", 1), ("west", 2))

    def test_order_by_aggregate_label(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute(
                "SELECT region, COUNT(*) FROM sales GROUP BY region "
                "ORDER BY count DESC LIMIT 2"
            )

    def test_order_by_non_output_column_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute(
                "SELECT region, COUNT(*) FROM sales GROUP BY region ORDER BY price"
            )


class TestAggregateSyntaxErrors:
    @pytest.mark.parametrize(
        "bad",
        [
            "SELECT region, COUNT(*) FROM sales",  # mixed without GROUP BY
            "SELECT product, COUNT(*) FROM sales GROUP BY region",  # not the key
            "SELECT region FROM sales GROUP BY region",  # no aggregate
            "SELECT SUM(*) FROM sales",
            "SELECT COUNT( FROM sales",
            "SELECT COUNT(*) FROM sales GROUP region",
        ],
    )
    def test_rejected(self, db, bad):
        with pytest.raises(SqlSyntaxError):
            db.execute(bad)
