"""Tests for materialized views and the catalog's write invalidation."""

from __future__ import annotations

import pytest

from repro.db import Database, MaterializedView, ViewCatalog
from repro.errors import QueryError
from repro.metrics import MetricsRegistry


@pytest.fixture
def db():
    database = Database()
    table = database.create_table(
        "records", [("id", int), ("grp", int), ("val", int)]
    )
    table.load((i, i % 3, i * 10) for i in range(12))
    table.create_index("grp")
    return database


@pytest.fixture
def catalog(db):
    catalog = ViewCatalog(MetricsRegistry())
    catalog.create(
        "records_by_grp", db, "SELECT grp, COUNT(*) FROM records GROUP BY grp"
    )
    db.install_views(catalog)
    return catalog


class TestDefinitionValidation:
    def test_plain_select_rejected(self, db):
        with pytest.raises(QueryError):
            MaterializedView("v", db, "SELECT val FROM records")

    def test_ungrouped_aggregate_rejected(self, db):
        with pytest.raises(QueryError):
            MaterializedView("v", db, "SELECT COUNT(*) FROM records")

    def test_filtered_definition_rejected(self, db):
        with pytest.raises(QueryError):
            MaterializedView(
                "v", db,
                "SELECT grp, COUNT(*) FROM records WHERE grp = 1 GROUP BY grp",
            )

    def test_definition_must_select_group_column(self, db):
        with pytest.raises(QueryError):
            MaterializedView(
                "v", db, "SELECT val, COUNT(*) FROM records GROUP BY grp"
            )

    def test_limited_definition_rejected(self, db):
        for limit in (0, 5):
            with pytest.raises(QueryError):
                MaterializedView(
                    "v", db,
                    f"SELECT grp, COUNT(*) FROM records GROUP BY grp LIMIT {limit}",
                )

    def test_valid_definition_starts_dirty(self, db):
        view = MaterializedView(
            "v", db, "SELECT grp, COUNT(*) FROM records GROUP BY grp"
        )
        assert view.dirty
        assert view.refreshes == 0


class TestAnswering:
    def test_keyed_aggregate_served(self, db, catalog):
        result = db.execute("SELECT COUNT(*) FROM records WHERE grp = 1")
        assert result.stats.plan == "view:records_by_grp"
        assert result.rows == ((4,),)

    def test_absent_group_counts_zero(self, db, catalog):
        result = db.execute("SELECT COUNT(*) FROM records WHERE grp = 99")
        assert result.stats.plan == "view:records_by_grp"
        assert result.rows == ((0,),)

    def test_ungrouped_in_list_falls_through(self, db, catalog):
        # One aggregate *across* the listed groups: not a per-group probe.
        result = db.execute("SELECT COUNT(*) FROM records WHERE grp IN (0, 2)")
        assert not result.stats.plan.startswith("view:")
        assert result.rows == ((8,),)
        repeated = db.execute("SELECT COUNT(*) FROM records WHERE grp IN (1, 1)")
        assert repeated.rows == ((4,),)

    def test_grouped_in_list_probes_sorted_distinct_keys(self, db, catalog):
        result = db.execute(
            "SELECT grp, COUNT(*) FROM records WHERE grp IN (2, 0, 2, 99) GROUP BY grp"
        )
        assert result.stats.plan == "view:records_by_grp"
        assert result.rows == ((0, 4), (2, 4))
        assert result.stats.rows_examined == 3

    def test_grouped_read_without_key_column(self, db, catalog):
        result = db.execute("SELECT COUNT(*) FROM records GROUP BY grp")
        assert result.stats.plan == "view:records_by_grp"
        assert result.columns == ("count",)
        assert result.rows == ((4,), (4,), (4,))
        absent = db.execute("SELECT COUNT(*) FROM records WHERE grp = 99 GROUP BY grp")
        assert absent.rows == ()

    def test_full_grouped_read_sorted(self, db, catalog):
        result = db.execute("SELECT grp, COUNT(*) FROM records GROUP BY grp")
        assert result.stats.plan == "view:records_by_grp"
        assert result.rows == ((0, 4), (1, 4), (2, 4))
        assert result.columns == ("grp", "count")

    def test_non_matching_select_falls_through(self, db, catalog):
        result = db.execute("SELECT val FROM records WHERE grp = 1")
        assert not result.stats.plan.startswith("view:")
        assert len(result.rows) == 4

    def test_different_aggregate_falls_through(self, db, catalog):
        result = db.execute("SELECT COUNT(*), COUNT(*) FROM records WHERE grp = 1")
        assert not result.stats.plan.startswith("view:")
        assert result.rows == ((4, 4),)

    def test_hits_counted(self, db, catalog):
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 1")
        assert catalog.metrics.counter("db.view.hits") == 2


class TestInvalidation:
    def test_write_marks_dirty_and_next_read_refreshes(self, db, catalog):
        view = catalog._by_table["records"][0]
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        assert not view.dirty
        refreshes = view.refreshes
        db.execute("UPDATE records SET grp = 0 WHERE id = 1")
        assert view.dirty
        assert catalog.metrics.counter("db.view.invalidations") == 1
        result = db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        assert result.rows == ((5,),)
        assert view.refreshes == refreshes + 1

    def test_lazy_refresh_amortized_over_reads(self, db, catalog):
        view = catalog._by_table["records"][0]
        db.execute("UPDATE records SET val = 1 WHERE id = 0")
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 1")
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 2")
        assert view.refreshes == 1

    def test_repeat_writes_invalidate_once(self, db, catalog):
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        db.execute("UPDATE records SET grp = 1 WHERE id = 0")
        db.execute("UPDATE records SET grp = 2 WHERE id = 1")
        assert catalog.metrics.counter("db.view.invalidations") == 1

    def test_write_to_other_table_ignored(self, db, catalog):
        other = db.create_table("other", [("id", int)])
        other.insert((1,))
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        db.execute("UPDATE other SET id = 2 WHERE id = 1")
        assert catalog._by_table["records"][0].dirty is False


class TestPerGroupRefresh:
    """What refresh recomputes, seen through how often it reads the table."""

    @pytest.fixture
    def view(self, db, catalog):
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")  # first build
        return catalog._by_table["records"][0]

    @staticmethod
    def _count_lookups(db, monkeypatch):
        index = db.table("records").indexes["grp"]
        probed = []
        original = index.lookup
        monkeypatch.setattr(
            index, "lookup", lambda key: probed.append(key) or original(key)
        )
        return probed

    def test_refresh_reads_only_the_written_group(self, db, view, monkeypatch):
        probed = self._count_lookups(db, monkeypatch)
        db.execute("UPDATE records SET val = 1 WHERE id = 4")  # a grp 1 row
        assert db.execute("SELECT COUNT(*) FROM records WHERE grp = 1").rows == ((4,),)
        assert probed == [1]

    def test_row_moved_between_groups_refreshes_both(self, db, view):
        db.execute("UPDATE records SET grp = 2 WHERE id = 4")
        assert db.execute(
            "SELECT grp, COUNT(*) FROM records GROUP BY grp"
        ).rows == ((0, 4), (1, 3), (2, 5))

    def test_emptied_group_disappears(self, db, view):
        db.execute("UPDATE records SET grp = 0 WHERE grp = 1")
        assert db.execute(
            "SELECT grp, COUNT(*) FROM records GROUP BY grp"
        ).rows == ((0, 8), (2, 4))
        assert db.execute("SELECT COUNT(*) FROM records WHERE grp = 1").rows == ((0,),)

    def test_write_matching_no_row_still_counts_as_a_refresh(self, db, view):
        refreshes = view.refreshes
        db.execute("UPDATE records SET val = 0 WHERE id = 999")
        assert view.dirty
        db.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        assert view.refreshes == refreshes + 1

    def test_unindexed_grouping_column_rebuilds_in_full(self):
        database = Database()
        table = database.create_table("records", [("id", int), ("grp", int)])
        table.load((i, i % 2) for i in range(6))
        catalog = ViewCatalog()
        catalog.create("v", database, "SELECT grp, COUNT(*) FROM records GROUP BY grp")
        database.install_views(catalog)
        database.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        database.execute("UPDATE records SET grp = 0 WHERE id = 1")
        result = database.execute("SELECT COUNT(*) FROM records WHERE grp = 0")
        assert result.rows == ((4,),)

    def test_recreated_table_rebuilds_and_ignores_the_old_object(self, db, view):
        # There is no DROP TABLE: the view's base table is one object
        # for good, and a row added outside SQL is picked up with the
        # next write's refresh.
        with pytest.raises(QueryError):
            db.create_table("records", [("grp", int), ("val", int)])
        db.table("records").insert((50, 7, 0))
        assert db.execute("SELECT COUNT(*) FROM records WHERE grp = 7").rows == ((0,),)
        db.execute("UPDATE records SET val = 1 WHERE id = 50")
        assert db.execute(
            "SELECT grp, COUNT(*) FROM records GROUP BY grp"
        ).rows == ((0, 4), (1, 4), (2, 4), (7, 1))


class TestCatalog:
    def test_uninstalled_database_unaffected(self, db):
        result = db.execute("SELECT COUNT(*) FROM records WHERE grp = 1")
        assert not result.stats.plan.startswith("view:")

    def test_catalog_without_matching_table_falls_through(self, db):
        catalog = ViewCatalog()
        db.install_views(catalog)
        result = db.execute("SELECT COUNT(*) FROM records WHERE grp = 1")
        assert not result.stats.plan.startswith("view:")
