"""Property-based tests: the engine agrees with a naive Python model."""

from __future__ import annotations

from typing import List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from repro.db import Database
from repro.db.index import HashIndex
from repro.errors import SqlSyntaxError

rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),  # key
        st.integers(min_value=0, max_value=9),  # group
    ),
    min_size=0,
    max_size=80,
)


def build(rows: List[Tuple[int, int]], indexed: bool = False) -> Database:
    db = Database()
    table = db.create_table("t", [("k", int), ("g", int)])
    table.load(rows)
    if indexed:
        table.create_index("k")
    return db


def in_list(keys) -> str:
    return ", ".join(str(k) for k in keys)


class TestEngineAgainstModel:
    @given(rows_strategy, st.integers(min_value=0, max_value=50))
    @settings(max_examples=60)
    def test_equality_matches_filter(self, rows, key):
        db = build(rows, indexed=True)
        got = sorted(db.execute(f"SELECT k, g FROM t WHERE k = {key}").rows)
        expected = sorted((k, g) for k, g in rows if k == key)
        assert got == expected

    @given(
        rows_strategy,
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
    )
    @settings(max_examples=60)
    def test_between_matches_filter(self, rows, lo, hi):
        # The dialect has no BETWEEN; the same filter is an IN list.
        db = build(rows, indexed=True)
        with pytest.raises(SqlSyntaxError):
            db.execute(f"SELECT k FROM t WHERE k BETWEEN {lo} AND {hi}")
        keys = range(min(lo, hi), max(lo, hi) + 1)
        got = sorted(db.execute(f"SELECT k, g FROM t WHERE k IN ({in_list(keys)})").rows)
        expected = sorted((k, g) for k, g in rows if k in keys)
        assert got == expected

    @given(rows_strategy, st.integers(min_value=0, max_value=50))
    @settings(max_examples=60)
    def test_range_ops_match_filter(self, rows, pivot):
        # Only '=' is left; each range is the IN list of its keys.
        db = build(rows, indexed=True)
        for op, pred in (
            ("<", lambda k: k < pivot),
            ("<=", lambda k: k <= pivot),
            (">", lambda k: k > pivot),
            (">=", lambda k: k >= pivot),
            ("!=", lambda k: k != pivot),
        ):
            with pytest.raises(SqlSyntaxError):
                db.execute(f"SELECT k FROM t WHERE k {op} {pivot}")
            keys = [k for k in range(51) if pred(k)]
            if not keys:
                continue
            got = sorted(db.execute(f"SELECT k FROM t WHERE k IN ({in_list(keys)})").rows)
            expected = sorted((k,) for k, _ in rows if pred(k))
            assert got == expected, op

    @given(rows_strategy, st.integers(min_value=0, max_value=9))
    @settings(max_examples=60)
    def test_count_star(self, rows, group):
        db = build(rows)
        got = db.execute(f"SELECT COUNT(*) FROM t WHERE g = {group}").scalar()
        assert got == sum(1 for _, g in rows if g == group)

    @given(rows_strategy)
    @settings(max_examples=40)
    def test_order_by_sorts(self, rows):
        # No ORDER BY: a scan returns rows in the order they were loaded.
        db = build(rows)
        with pytest.raises(SqlSyntaxError):
            db.execute("SELECT k FROM t ORDER BY k")
        assert [r[0] for r in db.execute("SELECT k FROM t").rows] == [k for k, _ in rows]

    @given(rows_strategy, st.integers(min_value=0, max_value=50))
    @settings(max_examples=40)
    def test_delete_then_query_consistent(self, rows, key):
        # No DELETE: moving a key's rows away by UPDATE stays consistent.
        db = build(rows, indexed=True)
        with pytest.raises(SqlSyntaxError):
            db.execute(f"DELETE FROM t WHERE k = {key}")
        db.execute(f"UPDATE t SET k = 99 WHERE k = {key}")
        assert len(db.execute(f"SELECT * FROM t WHERE k = {key}").rows) == 0
        moved = db.execute("SELECT COUNT(*) FROM t WHERE k = 99").scalar()
        assert moved == sum(1 for k, _ in rows if k == key)
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == len(rows)


class TestSortedIndexProperties:
    """There is no sorted index; the same properties hold of the hash index."""

    @given(st.lists(st.integers(min_value=-100, max_value=100), max_size=100))
    def test_incremental_equals_bulk_load(self, values):
        incremental = HashIndex("v")
        for row_id, value in enumerate(values):
            incremental.insert(value, row_id)
        bulk = HashIndex("v")
        bulk.bulk_load((value, row_id) for row_id, value in enumerate(values))
        assert incremental._map == bulk._map

    @given(
        st.lists(st.integers(min_value=-50, max_value=50), max_size=80),
        st.integers(min_value=-60, max_value=60),
        st.integers(min_value=-60, max_value=60),
    )
    def test_range_bounds_semantics(self, values, lo, hi):
        index = HashIndex("v")
        index.bulk_load((value, row_id) for row_id, value in enumerate(values))
        closed = {row_id for v in range(lo, hi + 1) for row_id in index.lookup(v)}
        expected = {i for i, v in enumerate(values) if lo <= v <= hi}
        assert closed == expected
        open_both = {row_id for v in range(lo + 1, hi) for row_id in index.lookup(v)}
        expected_open = {i for i, v in enumerate(values) if lo < v < hi}
        assert open_both == expected_open

    @given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=50))
    def test_remove_really_removes(self, values):
        index = HashIndex("v")
        for row_id, value in enumerate(values):
            index.insert(value, row_id)
        index.remove(values[0], 0)
        assert 0 not in index.lookup(values[0])
        assert len(index) == len(values) - 1
