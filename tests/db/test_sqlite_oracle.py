"""``repro.db`` against stdlib ``sqlite3`` on the testbeds' own tables.

The cache testbed's ``records(id, grp, val)`` table (its row formula at
2,000 rows in 50 groups, loaded and indexed by the testbed's own
builder) and FIG-7's ``records(id, grp, payload)`` table are loaded into
an in-memory ``sqlite3`` database too. Every query the two testbeds
issue must return the same multiset of rows from both engines: per
group, ``SELECT val``, ``SELECT COUNT(*)`` and the view's ``GROUP BY``
for the cache testbed, and the lookup CGI's ``COUNT(*)`` for FIG-7. A
seeded mutant that drops one hash-index posting must disagree.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest

from repro.db.index import HashIndex
from repro.workload import scenarios

ROWS, GROUPS = 2_000, 50


def _sqlite(schema, rows):
    connection = sqlite3.connect(":memory:")
    connection.execute(f"CREATE TABLE records ({schema})")
    connection.executemany("INSERT INTO records VALUES (?, ?, ?)", rows)
    return connection


def _cache_testbed():
    database = scenarios._catalog_database(ROWS, GROUPS)
    rows = ((i, i % GROUPS, (i * 7) % 1000) for i in range(ROWS))
    statements = ["SELECT grp, COUNT(*) FROM records GROUP BY grp"]
    for grp in range(GROUPS):
        statements.append(f"SELECT val FROM records WHERE grp = {grp}")
        statements.append(f"SELECT COUNT(*) FROM records WHERE grp = {grp}")
    return database, _sqlite("id INTEGER, grp INTEGER, val INTEGER", rows), statements


def _fig7_testbed():
    database = scenarios._records_database(ROWS, GROUPS)
    rows = ((i, i % GROUPS, f"record-{i}") for i in range(ROWS))
    statements = [f"SELECT COUNT(*) FROM records WHERE grp = {grp}" for grp in range(GROUPS)]
    return database, _sqlite("id INTEGER, grp INTEGER, payload TEXT", rows), statements


TESTBEDS = {"cache": _cache_testbed, "fig7": _fig7_testbed}


def disagreements(testbed):
    """The statements whose row multisets differ between the engines."""
    database, connection, statements = TESTBEDS[testbed]()
    return [
        sql
        for sql in statements
        if Counter(database.execute(sql).rows) != Counter(connection.execute(sql).fetchall())
    ]


@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
def test_every_testbed_query_matches_sqlite(testbed):
    assert disagreements(testbed) == []


def _drop_one_posting(self, pairs):
    """Mutant: build the hash index without its middle posting."""
    pairs = list(pairs)
    del pairs[len(pairs) // 2]
    ORIGINAL_BULK_LOAD(self, pairs)


ORIGINAL_BULK_LOAD = HashIndex.bulk_load


@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
def test_a_dropped_posting_disagrees_with_sqlite(monkeypatch, testbed):
    monkeypatch.setattr(HashIndex, "bulk_load", _drop_one_posting)
    assert disagreements(testbed) != []
