"""Unit tests for tables, indexes, planner, and executor."""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.db.planner import plan_access
from repro.db.parser import parse
from repro.errors import (
    QueryError, SqlSyntaxError, UnknownColumnError, UnknownTableError,
)


@pytest.fixture
def db():
    database = Database()
    table = database.create_table(
        "movies", [("id", int), ("title", str), ("year", int), ("rating", float)]
    )
    rows = [
        (1, "Heat", 1995, 8.3),
        (2, "Alien", 1979, 8.5),
        (3, "Aliens", 1986, 8.4),
        (4, "Arrival", 2016, 7.9),
        (5, "Amadeus", 1984, 8.4),
    ]
    table.load(rows)
    return database


class TestTable:
    def test_insert_and_count(self, db):
        assert db.table("movies").row_count == 5

    def test_insert_mapping_fills_missing_with_none(self, db):
        table = db.table("movies")
        row_id = table.insert({"id": 6, "title": "Solaris"})
        assert table.get(row_id) == (6, "Solaris", None, None)

    def test_insert_mapping_with_unknown_column_raises(self, db):
        # The misspelt key used to be dropped silently.
        table = db.table("movies")
        with pytest.raises(UnknownColumnError, match="titel"):
            table.insert({"id": 6, "titel": "Solaris"})
        assert table.row_count == 5

    def test_type_enforcement(self, db):
        with pytest.raises(QueryError):
            db.table("movies").insert((7, "X", "not-a-year", 1.0))

    def test_int_promotes_to_float_column(self, db):
        table = db.table("movies")
        row_id = table.insert((8, "Y", 2000, 9))
        assert table.get(row_id)[3] == 9.0

    def test_bool_rejected_for_int(self, db):
        with pytest.raises(QueryError):
            db.table("movies").insert((True, "Z", 2000, 1.0))

    def test_delete_tombstones(self, db):
        # Rows are never deleted, so a row id is a list position.
        table = db.table("movies")
        with pytest.raises(SqlSyntaxError):
            db.execute("DELETE FROM movies WHERE id = 1")
        assert table.row_count == 5
        assert table.get(0) == (1, "Heat", 1995, 8.3)
        assert table.get(5) is None
        with pytest.raises(QueryError):
            table.update(5, {"year": 2000})

    def test_update_changes_value(self, db):
        table = db.table("movies")
        table.update(0, {"year": 1996})
        assert table.get(0)[2] == 1996

    def test_update_unknown_column(self, db):
        with pytest.raises(UnknownColumnError):
            db.table("movies").update(0, {"director": "Mann"})

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(QueryError):
            db.create_table("movies", [("x", int)])

    def test_unknown_table(self, db):
        with pytest.raises(UnknownTableError):
            db.table("nope")
        with pytest.raises(UnknownTableError):
            db.execute("SELECT * FROM nope")


class TestIndexMaintenance:
    def test_hash_index_tracks_inserts_deletes_updates(self, db):
        table = db.table("movies")
        table.create_index("year")
        index = table.indexes["year"]
        assert index.lookup(1986) == [2]
        table.update(2, {"year": 1987})
        assert index.lookup(1986) == []
        assert index.lookup(1987) == [2]
        assert table.insert((6, "Ran", 1987, 8.2)) == 5
        assert index.lookup(1987) == [2, 5]

    def test_sorted_index_range(self, db):
        # There is no sorted index: a set of keys is read by IN on the
        # hash index, in row-id order.
        table = db.table("movies")
        with pytest.raises(TypeError):
            table.create_index("year", "sorted")
        table.create_index("year")
        result = db.execute("SELECT id FROM movies WHERE year IN (1995, 1986, 1984)")
        assert result.stats.plan == "in-list"
        assert result.rows == ((1,), (3,), (5,))

    def test_duplicate_index_rejected(self, db):
        table = db.table("movies")
        table.create_index("year")
        with pytest.raises(QueryError):
            table.create_index("year")

    def test_unknown_index_kind(self, db):
        # Every index is a hash index; no kind can be asked for.
        with pytest.raises(TypeError):
            db.table("movies").create_index("year", "btree")

    def test_index_on_unknown_column(self, db):
        with pytest.raises(UnknownColumnError):
            db.table("movies").create_index("ghost")


class TestPlanner:
    def test_no_where_scans(self, db):
        path = plan_access(db.table("movies"), None)
        assert path.kind == "scan"

    def test_equality_prefers_hash(self, db):
        table = db.table("movies")
        table.create_index("year")
        stmt = parse("SELECT * FROM movies WHERE year = 1986")
        path = plan_access(table, stmt.where)
        assert path.kind == "hash-eq"
        assert path.residual is None

    def test_range_needs_sorted_index(self, db):
        # Ranges are not in the dialect; no index kind serves them.
        for sql in (
            "SELECT * FROM movies WHERE year > 1986",
            "SELECT * FROM movies WHERE rating >= 8.4",
        ):
            with pytest.raises(SqlSyntaxError):
                parse(sql)

    def test_conjunction_picks_best_and_keeps_residual(self, db):
        table = db.table("movies")
        table.create_index("year")
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM movies WHERE rating = 8.4 AND year = 1986")
        # An unindexed predicate is the residual filter of a scan.
        stmt = parse("SELECT * FROM movies WHERE rating = 8.4")
        path = plan_access(table, stmt.where)
        assert path.kind == "scan"
        assert path.residual == stmt.where

    def test_or_forces_scan(self, db):
        with pytest.raises(SqlSyntaxError):
            parse("SELECT * FROM movies WHERE year = 1986 OR year = 1979")

    def test_in_list_uses_index(self, db):
        table = db.table("movies")
        table.create_index("year")
        stmt = parse("SELECT * FROM movies WHERE year IN (1986, 1979)")
        assert plan_access(table, stmt.where).kind == "in-list"


class TestExecutor:
    def test_select_star(self, db):
        result = db.execute("SELECT * FROM movies")
        assert len(result) == 5
        assert result.columns == ("id", "title", "year", "rating")

    def test_projection(self, db):
        result = db.execute("SELECT title FROM movies WHERE id = 2")
        assert result.rows == (("Alien",),)

    def test_indexed_query_examines_fewer_rows(self, db):
        table = db.table("movies")
        scan = db.execute("SELECT * FROM movies WHERE year = 1986")
        table.create_index("year")
        indexed = db.execute("SELECT * FROM movies WHERE year = 1986")
        assert scan.rows == indexed.rows
        assert scan.stats.rows_examined == 5
        assert indexed.stats.rows_examined == 1

    def test_index_and_scan_agree_on_all_predicates(self, db):
        queries = [
            "SELECT id FROM movies WHERE year = 1986",
            "SELECT id FROM movies WHERE year = 1900",
            "SELECT id FROM movies WHERE year IN (1979, 2016)",
            "SELECT id FROM movies WHERE year IN (2016, 1979, 2016, 1900)",
            "SELECT COUNT(*) FROM movies WHERE rating = 8.4",
            "SELECT rating, COUNT(*) FROM movies WHERE rating IN (8.4, 7.9) GROUP BY rating",
        ]
        plain = [db.execute(q).rows for q in queries]
        db.table("movies").create_index("year")
        db.table("movies").create_index("rating")
        indexed = [db.execute(q).rows for q in queries]
        assert plain == indexed

    def test_order_by_and_limit(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT title FROM movies ORDER BY year DESC LIMIT 2")

    def test_count_star(self, db):
        sql = "SELECT COUNT(*) FROM movies WHERE year IN (1979, 1984, 1986)"
        assert db.execute(sql).scalar() == 3

    def test_count_star_with_limit(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT COUNT(*) FROM movies LIMIT 2")
        assert db.execute("SELECT COUNT(*) FROM movies").scalar() == 5

    def test_insert_via_sql(self, db):
        # Rows enter through Table.insert/load; INSERT is not SQL here.
        with pytest.raises(SqlSyntaxError):
            db.execute("INSERT INTO movies (id, title, year, rating) VALUES (9, 'Ran', 1985, 8.2)")
        db.table("movies").insert((9, "Ran", 1985, 8.2))
        assert db.execute("SELECT COUNT(*) FROM movies").scalar() == 6

    def test_insert_naming_a_column_twice_is_a_syntax_error(self, db):
        with pytest.raises(SqlSyntaxError, match="must start with a keyword"):
            db.execute("INSERT INTO movies (id, id) VALUES (1, 2)")
        assert db.execute("SELECT COUNT(*) FROM movies").scalar() == 5

    def test_insert_via_sql_with_unknown_column_writes_nothing(self, db):
        with pytest.raises(UnknownColumnError):
            db.table("movies").insert({"id": 9, "director": "Mann"})
        assert db.execute("SELECT COUNT(*) FROM movies").scalar() == 5

    def test_update_via_sql(self, db):
        result = db.execute(
            "UPDATE movies SET rating = 9.0 WHERE year IN (1979, 1984, 1986)"
        )
        assert result.stats.rows_written == 3
        assert db.execute("SELECT COUNT(*) FROM movies WHERE rating = 9.0").scalar() == 3

    def test_delete_via_sql(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("DELETE FROM movies WHERE year = 1995")
        assert db.execute("SELECT COUNT(*) FROM movies").scalar() == 5

    def test_unknown_column_in_where(self, db):
        with pytest.raises(UnknownColumnError):
            db.execute("SELECT * FROM movies WHERE director = 'Mann'")

    def test_type_mismatch_comparison_raises(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT * FROM movies WHERE year > 'abc'")
        # Equality across types is false, as in sqlite3.
        assert db.execute("SELECT * FROM movies WHERE year = 'abc'").rows == ()

    def test_scalar_requires_single_cell(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT * FROM movies").scalar()

    def test_like_query(self, db):
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT title FROM movies WHERE title LIKE 'Alien%'")
        result = db.execute("SELECT title FROM movies WHERE title IN ('Alien', 'Aliens')")
        assert result.rows == (("Alien",), ("Aliens",))


class TestLikePrefixOptimization:
    """The dialect has no LIKE: string keys are read by equality or IN."""

    @pytest.fixture
    def titles_db(self):
        database = Database()
        table = database.create_table("t", [("name", str), ("n", int)])
        words = ["alpha", "alphabet", "beta", "betamax", "gamma", "alps", "ALTO"]
        table.load((word, i) for i, word in enumerate(words))
        return database

    def test_prefix_like_uses_sorted_index(self, titles_db):
        with pytest.raises(SqlSyntaxError):
            titles_db.execute("SELECT name FROM t WHERE name LIKE 'alp%'")
        scan = titles_db.execute("SELECT name FROM t WHERE name = 'alps'")
        assert scan.stats.plan == "scan"
        titles_db.table("t").create_index("name")
        indexed = titles_db.execute("SELECT name FROM t WHERE name = 'alps'")
        assert indexed.stats.plan == "hash-eq"
        assert indexed.rows == scan.rows == (("alps",),)
        assert indexed.stats.rows_examined < scan.stats.rows_examined

    def test_pattern_still_filters_within_range(self, titles_db):
        with pytest.raises(SqlSyntaxError):
            titles_db.execute("SELECT name FROM t WHERE name LIKE 'al_s'")
        # Equality is exact: case matters and no wildcard is expanded.
        result = titles_db.execute("SELECT name FROM t WHERE name IN ('alps', 'alto', 'al_s')")
        assert result.rows == (("alps",),)

    def test_leading_wildcard_cannot_use_index(self, titles_db):
        titles_db.table("t").create_index("name")
        with pytest.raises(SqlSyntaxError):
            titles_db.execute("SELECT name FROM t WHERE name LIKE '%max'")

    def test_hash_index_not_usable_for_prefix(self, titles_db):
        titles_db.table("t").create_index("name")
        result = titles_db.execute("SELECT n FROM t WHERE name IN ('alpha', 'alps')")
        assert result.stats.plan == "in-list"
        assert result.rows == ((0,), (5,))

    def test_equality_still_preferred_over_prefix(self, titles_db):
        table = titles_db.table("t")
        table.create_index("name")
        table.create_index("n")
        result = titles_db.execute("SELECT name FROM t WHERE n = 0")
        assert result.stats.plan == "hash-eq"
        assert result.rows == (("alpha",),)
