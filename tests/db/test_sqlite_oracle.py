"""``repro.db`` against stdlib ``sqlite3`` on the testbeds' own tables.

The cache testbed's ``records(id, grp, val)`` table (its row formula at
2,000 rows in 50 groups, loaded and indexed by the testbed's own
builder) and FIG-7's ``records(id, grp, payload)`` table are loaded into
an in-memory ``sqlite3`` database too. Every query the two testbeds
issue must return the same multiset of rows from both engines: per
group, ``SELECT val``, ``SELECT COUNT(*)`` and the view's ``GROUP BY``
for the cache testbed, and the lookup CGI's ``COUNT(*)`` for FIG-7. A
seeded mutant that drops one hash-index posting must disagree.

Hypothesis then draws small ``records(id, grp, val)`` tables, whose
cells may be NULL, with hash indexes on a random subset of columns, and
programs of statements from the whole dialect: ``SELECT`` of ``*``,
columns, ``COUNT(*)`` or a grouped count, with an optional ``col = lit``
or ``col IN (...)``, and ``UPDATE`` with the same ``WHERE``. Every statement runs on both
engines: a read must return the same row multiset, a write must touch
as many rows and leave the same table. Batches of keyed ``SELECT``s go
through :class:`~repro.core.clustering.InListQueryCombiner`: each
request's share of the combined answer must equal its own statement run
alone on ``sqlite3``. Two seeded mutants must fail: ``split`` handing a
request its neighbour's rows, and the dropped posting above.
"""

from __future__ import annotations

import sqlite3
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BrokerRequest, InListQueryCombiner
from repro.db import Database, QueryResult
from repro.db.index import HashIndex
from repro.net import Address
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
    if pairs:
        del pairs[len(pairs) // 2]
    ORIGINAL_BULK_LOAD(self, pairs)


ORIGINAL_BULK_LOAD = HashIndex.bulk_load


@pytest.mark.parametrize("testbed", sorted(TESTBEDS))
def test_a_dropped_posting_disagrees_with_sqlite(monkeypatch, testbed):
    monkeypatch.setattr(HashIndex, "bulk_load", _drop_one_posting)
    assert disagreements(testbed) != []


# -- generated tables and statements ----------------------------------------

COLUMNS = ("id", "grp", "val")
#: A small value domain, so predicates match rows and updates collide.
VALUES = st.integers(min_value=0, max_value=6)
#: Stored values may be NULL: equality and IN never match it, and
#: GROUP BY puts all NULLs in one group.
CELLS = st.one_of(st.none(), VALUES)
ROW_LISTS = st.lists(st.tuples(CELLS, CELLS, CELLS), max_size=15)
COLUMN = st.sampled_from(COLUMNS)


def _join(items) -> str:
    return ", ".join(str(item) for item in items)


PREDICATES = st.one_of(
    st.builds("{} = {}".format, COLUMN, VALUES),
    st.builds(lambda c, vs: f"{c} IN ({_join(vs)})", COLUMN, st.lists(VALUES, min_size=1, max_size=4)),
)
WHERE = st.one_of(st.just(""), PREDICATES.map(" WHERE {}".format))
COUNTS = st.integers(min_value=1, max_value=2).map(lambda n: _join(["COUNT(*)"] * n))
SELECTS = st.one_of(
    st.builds("SELECT * FROM records{}".format, WHERE),
    st.builds(
        lambda cols, where: f"SELECT {_join(cols)} FROM records{where}",
        st.lists(COLUMN, min_size=1, max_size=3),
        WHERE,
    ),
    st.builds("SELECT {} FROM records{}".format, COUNTS, WHERE),
    st.builds(
        lambda g, keyed, counts, where: (
            f"SELECT {g + ', ' if keyed else ''}{counts} FROM records{where} GROUP BY {g}"
        ),
        COLUMN,
        st.booleans(),
        COUNTS,
        WHERE,
    ),
)
UPDATES = st.builds(
    lambda sets, where: f"UPDATE records SET {_join(f'{c} = {v}' for c, v in sets.items())}{where}",
    st.dictionaries(COLUMN, VALUES, min_size=1, max_size=2),
    WHERE,
)
#: A batch of keyed SELECTs the combiner clusters: one key column and
#: one select list, several key values.
BATCHES = st.builds(
    lambda key, cols, values: tuple(
        f"SELECT {_join(cols) if cols else '*'} FROM records WHERE {key} = {value}"
        for value in values
    ),
    COLUMN,
    st.lists(COLUMN, max_size=2, unique=True),
    st.lists(VALUES, min_size=1, max_size=4),
)
STEPS = st.lists(st.one_of(SELECTS, UPDATES, BATCHES), min_size=1, max_size=8)


def _check_statement(database, connection, sql):
    ours = database.execute(sql)
    cursor = connection.execute(sql)
    if sql.startswith("UPDATE"):
        assert ours.stats.rows_written == cursor.rowcount, sql
        sql = "SELECT * FROM records"
        ours, cursor = database.execute(sql), connection.execute(sql)
    assert Counter(ours.rows) == Counter(cursor.fetchall()), sql


def _check_batch(database, connection, batch):
    combiner = InListQueryCombiner()
    requests = [
        BrokerRequest(n, "db", "query", sql, Address("web", 1)) for n, sql in enumerate(batch)
    ]
    assert len({combiner.key(request) for request in requests}) == 1
    operation, combined = combiner.combine(requests)
    result = database.execute(combined)
    answer = QueryResult(result.columns, result.rows, result.stats.to_dict())
    shares = combiner.split(requests, answer)
    for sql, share in zip(batch, shares, strict=True):
        cursor = connection.execute(sql)
        assert share.columns == tuple(d[0] for d in cursor.description), sql
        assert Counter(share.rows) == Counter(cursor.fetchall()), sql


@given(rows=ROW_LISTS, indexed=st.sets(COLUMN), steps=STEPS)
@settings(max_examples=150, deadline=None, derandomize=True, report_multiple_bugs=False)
def test_generated_statements_match_sqlite(rows, indexed, steps):
    database = Database()
    table = database.create_table("records", [(name, int) for name in COLUMNS])
    table.load(rows)
    for column in sorted(indexed):
        table.create_index(column)
    connection = _sqlite("id INTEGER, grp INTEGER, val INTEGER", rows)
    for step in steps:
        if isinstance(step, tuple):
            _check_batch(database, connection, step)
        else:
            _check_statement(database, connection, step)


def _split_to_neighbour(self, requests, result):
    """Mutant: each request gets the share meant for the next one."""
    shares = ORIGINAL_SPLIT(self, requests, result)
    return shares[1:] + shares[:1]


ORIGINAL_SPLIT = InListQueryCombiner.split


@pytest.mark.parametrize(
    "mutant",
    [(InListQueryCombiner, "split", _split_to_neighbour), (HashIndex, "bulk_load", _drop_one_posting)],
    ids=["split-to-neighbour", "dropped-posting"],
)
def test_a_seeded_mutant_fails_the_generated_oracle(monkeypatch, mutant):
    monkeypatch.setattr(*mutant)
    with pytest.raises(AssertionError):
        test_generated_statements_match_sqlite()
