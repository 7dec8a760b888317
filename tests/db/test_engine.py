"""Unit tests for tables, indexes, planner, and executor."""

from __future__ import annotations

import pytest

from repro.db import Database
from repro.db.index import HashIndex, SortedIndex
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
    for row in rows:
        table.insert(row)
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
        table = db.table("movies")
        table.delete(0)
        assert table.row_count == 4
        assert table.get(0) is None
        with pytest.raises(QueryError):
            table.delete(0)

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
        table.create_index("year", "hash")
        index = table.indexes["year"]
        assert index.lookup(1986) == [2]
        table.update(2, {"year": 1987})
        assert index.lookup(1986) == []
        assert index.lookup(1987) == [2]
        table.delete(2)
        assert index.lookup(1987) == []

    def test_sorted_index_range(self, db):
        table = db.table("movies")
        table.create_index("year", "sorted")
        index = table.indexes["year"]
        assert index.range(low=1984, high=1995) == [4, 2, 0]  # by year order

    def test_duplicate_index_rejected(self, db):
        table = db.table("movies")
        table.create_index("year")
        with pytest.raises(QueryError):
            table.create_index("year", "sorted")

    def test_unknown_index_kind(self, db):
        with pytest.raises(QueryError):
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
        table.create_index("year", "hash")
        stmt = parse("SELECT * FROM movies WHERE year = 1986")
        path = plan_access(table, stmt.where)
        assert path.kind == "hash-eq"
        assert path.residual is None

    def test_range_needs_sorted_index(self, db):
        table = db.table("movies")
        table.create_index("year", "hash")
        stmt = parse("SELECT * FROM movies WHERE year > 1986")
        assert plan_access(table, stmt.where).kind == "scan"
        table.create_index("rating", "sorted")
        stmt2 = parse("SELECT * FROM movies WHERE rating >= 8.4")
        assert plan_access(table, stmt2.where).kind == "range"

    def test_conjunction_picks_best_and_keeps_residual(self, db):
        table = db.table("movies")
        table.create_index("year", "hash")
        stmt = parse("SELECT * FROM movies WHERE rating > 8.0 AND year = 1986")
        path = plan_access(table, stmt.where)
        assert path.kind == "hash-eq"
        assert path.residual is not None

    def test_or_forces_scan(self, db):
        table = db.table("movies")
        table.create_index("year", "hash")
        stmt = parse("SELECT * FROM movies WHERE year = 1986 OR year = 1979")
        assert plan_access(table, stmt.where).kind == "scan"

    def test_in_list_uses_index(self, db):
        table = db.table("movies")
        table.create_index("year", "hash")
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
        table.create_index("year", "hash")
        indexed = db.execute("SELECT * FROM movies WHERE year = 1986")
        assert scan.rows == indexed.rows
        assert scan.stats.rows_examined == 5
        assert indexed.stats.rows_examined == 1

    def test_index_and_scan_agree_on_all_predicates(self, db):
        queries = [
            "SELECT id FROM movies WHERE year = 1986",
            "SELECT id FROM movies WHERE year >= 1986",
            "SELECT id FROM movies WHERE year BETWEEN 1980 AND 1990",
            "SELECT id FROM movies WHERE year IN (1979, 2016)",
            "SELECT id FROM movies WHERE year < 1990 AND rating > 8.3",
        ]
        plain = [sorted(db.execute(q).rows) for q in queries]
        db.table("movies").create_index("year", "sorted")
        indexed = [sorted(db.execute(q).rows) for q in queries]
        assert plain == indexed

    def test_order_by_and_limit(self, db):
        result = db.execute("SELECT title FROM movies ORDER BY year DESC LIMIT 2")
        assert result.rows == (("Arrival",), ("Heat",))

    def test_count_star(self, db):
        assert db.execute("SELECT COUNT(*) FROM movies WHERE year < 1990").scalar() == 3

    def test_count_star_with_limit(self, db):
        # LIMIT applies to the (single-row) aggregate output, as in SQL.
        assert db.execute("SELECT COUNT(*) FROM movies LIMIT 2").scalar() == 5

    def test_insert_via_sql(self, db):
        db.execute("INSERT INTO movies (id, title, year, rating) VALUES (9, 'Ran', 1985, 8.2)")
        assert db.execute("SELECT COUNT(*) FROM movies").scalar() == 6

    def test_insert_naming_a_column_twice_is_a_syntax_error(self, db):
        # It used to store the last value (2, None); sqlite3 keeps the
        # first. Neither is worth matching: the statement is refused.
        with pytest.raises(SqlSyntaxError, match="'id' twice"):
            db.execute("INSERT INTO movies (id, id) VALUES (1, 2)")
        assert db.execute("SELECT COUNT(*) FROM movies").scalar() == 5

    def test_insert_via_sql_with_unknown_column_writes_nothing(self, db):
        with pytest.raises(UnknownColumnError):
            db.execute("INSERT INTO movies (id, director) VALUES (9, 'Mann')")
        assert db.execute("SELECT COUNT(*) FROM movies").scalar() == 5

    def test_update_via_sql(self, db):
        result = db.execute("UPDATE movies SET rating = 9.0 WHERE year < 1990")
        assert result.stats.rows_written == 3
        assert db.execute("SELECT COUNT(*) FROM movies WHERE rating = 9.0").scalar() == 3

    def test_delete_via_sql(self, db):
        db.execute("DELETE FROM movies WHERE year >= 1990")
        assert db.execute("SELECT COUNT(*) FROM movies").scalar() == 3

    def test_unknown_column_in_where(self, db):
        with pytest.raises(UnknownColumnError):
            db.execute("SELECT * FROM movies WHERE director = 'Mann'")

    def test_type_mismatch_comparison_raises(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT * FROM movies WHERE year > 'abc'")

    def test_scalar_requires_single_cell(self, db):
        with pytest.raises(QueryError):
            db.execute("SELECT * FROM movies").scalar()

    def test_like_query(self, db):
        result = db.execute("SELECT title FROM movies WHERE title LIKE 'Alien%'")
        assert sorted(r[0] for r in result.rows) == ["Alien", "Aliens"]


class TestLikePrefixOptimization:
    @pytest.fixture
    def titles_db(self):
        database = Database()
        table = database.create_table("t", [("name", str), ("n", int)])
        words = ["alpha", "alphabet", "beta", "betamax", "gamma", "alps", "ALTO"]
        for i, word in enumerate(words):
            table.insert((word, i))
        return database

    def test_prefix_like_uses_sorted_index(self, titles_db):
        table = titles_db.table("t")
        scan = titles_db.execute("SELECT name FROM t WHERE name LIKE 'alp%'")
        assert scan.stats.plan == "scan"
        table.create_index("name", "sorted")
        indexed = titles_db.execute("SELECT name FROM t WHERE name LIKE 'alp%'")
        assert indexed.stats.plan == "prefix-range"
        assert sorted(indexed.rows) == sorted(scan.rows)
        assert indexed.stats.rows_examined < scan.stats.rows_examined

    def test_pattern_still_filters_within_range(self, titles_db):
        # 'al_s' narrows to the 'al' prefix range but must still reject
        # 'alpha'/'alphabet' via the residual LIKE.
        table = titles_db.table("t")
        table.create_index("name", "sorted")
        result = titles_db.execute("SELECT name FROM t WHERE name LIKE 'al_s'")
        assert result.stats.plan == "prefix-range"
        assert result.rows == (("alps",),)

    def test_leading_wildcard_cannot_use_index(self, titles_db):
        table = titles_db.table("t")
        table.create_index("name", "sorted")
        result = titles_db.execute("SELECT name FROM t WHERE name LIKE '%max'")
        assert result.stats.plan == "scan"
        assert result.rows == (("betamax",),)

    def test_hash_index_not_usable_for_prefix(self, titles_db):
        table = titles_db.table("t")
        table.create_index("name", "hash")
        result = titles_db.execute("SELECT name FROM t WHERE name LIKE 'alp%'")
        assert result.stats.plan == "scan"

    def test_equality_still_preferred_over_prefix(self, titles_db):
        table = titles_db.table("t")
        table.create_index("name", "sorted")
        table.create_index("n", "hash")
        result = titles_db.execute(
            "SELECT name FROM t WHERE name LIKE 'alp%' AND n = 0"
        )
        assert result.stats.plan == "hash-eq"
        assert result.rows == (("alpha",),)
