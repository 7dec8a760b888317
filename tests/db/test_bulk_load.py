"""``Table.load`` against successive ``Table.insert`` calls, and its cost.

Hypothesis draws a schema of one to four ``int``/``float``/``str``
columns, some hash- or sorted-indexed, a few rows already stored (some
deleted), and a batch of rows given as tuples, lists or dicts — with
``None`` values and ints bound for float columns. ``load`` on one table
must leave it exactly as ``insert`` row by row leaves a twin: the row
store, every index, and what a recording observer saw, table state
included. A bad row anywhere in the batch must raise ``QueryError`` and
store nothing. An index built after a load must hold the postings the
same index maintained row by row holds.

The cost gate counts Python-level calls (``sys.setprofile`` ``"call"``
events; a generator resume is one) while the cache testbed's table is
loaded and indexed. The row generator costs one call per row; two seeded
mutants — the row-by-row ``insert`` loop, and indexes built with a call
per posting — each cross the bound.

Run as a script, this prints the cache testbed's build-only seconds and
calls per loaded row::

    PYTHONPATH=src python tests/db/test_bulk_load.py
"""

from __future__ import annotations

import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.index import HashIndex
from repro.errors import QueryError
from repro.workload import scenarios

_VALUES = {
    int: st.integers(-3, 3),
    # An int bound for a float column is widened on the way in.
    float: st.one_of(st.sampled_from([-1.5, 0.0, 2.25]), st.integers(-2, 2)),
    str: st.sampled_from(["", "a", "b", "ab"]),
}

#: Column types, and each column's index kind (None: no index).
_SCHEMAS = st.lists(
    st.tuples(st.sampled_from([int, float, str]), st.sampled_from([None, "hash", "sorted"])),
    min_size=1,
    max_size=4,
)


def _value(column_type, kind):
    # A sorted index orders (value, row id) pairs, so its column holds
    # no None: None and a number do not compare.
    if kind == "sorted":
        return _VALUES[column_type]
    return st.one_of(st.none(), _VALUES[column_type])


def _rows(schema, max_size):
    """Rows for *schema*, each a tuple, a list or a dict."""
    names = [f"c{i}" for i in range(len(schema))]
    row = st.tuples(*(_value(t, kind) for t, kind in schema))

    def shape(values, form, omit_none):
        if form == "list":
            return list(values)
        if form == "dict":
            # A column missing from a dict row is None.
            return {n: v for n, v in zip(names, values) if v is not None or not omit_none}
        return values

    return st.lists(
        st.builds(shape, row, st.sampled_from(["tuple", "list", "dict"]), st.booleans()),
        max_size=max_size,
    )


def _table(schema, initial, deletes):
    """A table holding *initial* minus *deletes*, with *schema*'s
    indexes and an observer that logs each change and the state it saw."""
    table = Database().create_table(
        "t", [(f"c{i}", column_type) for i, (column_type, _) in enumerate(schema)]
    )
    for values in initial:
        table.insert(values)
    for i, (_, kind) in enumerate(schema):
        if kind is not None:
            table.create_index(f"c{i}", kind)
    for position in deletes:
        live = [row_id for row_id, _ in table.scan()]
        if live:
            table.delete(live[position % len(live)])
    log = []
    table.subscribe(lambda old, new: log.append((old, new, _state(table))))
    return table, log


def _state(table):
    """Everything a reader can see: rows, count, lookups, sorted entries."""
    indexes = {}
    for column, index in table.indexes.items():
        values = {table.value(row, column) for _, row in table.scan()}
        if index.kind == "hash":
            values.add("absent")
        lookups = {v: index.lookup(v) for v in values}
        entries = list(index._entries) if index.kind == "sorted" else None
        indexes[column] = (lookups, entries)
    return list(table._rows), table.row_count, indexes


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_load_equals_successive_inserts(data):
    schema = data.draw(_SCHEMAS)
    initial = data.draw(_rows(schema, 6))
    deletes = data.draw(st.lists(st.integers(0, 5), max_size=3))
    batch = data.draw(_rows(schema, 12))
    loaded, load_log = _table(schema, initial, deletes)
    inserted, insert_log = _table(schema, initial, deletes)

    assert loaded.load(iter(batch)) == len(batch)
    row_ids = [inserted.insert(values) for values in batch]

    assert _state(loaded) == _state(inserted)
    assert load_log == insert_log
    assert row_ids == list(range(len(inserted._rows) - len(batch), len(inserted._rows)))


def _bad_rows(schema):
    """A wrong-width row, or a bool or a str in an int column."""
    width = len(schema)
    good = tuple(1 if t is int else "a" if t is str else 1.0 for t, _ in schema)
    ints = [i for i, (t, _) in enumerate(schema) if t is int]
    wrong_width = st.sampled_from([good + (1,), good[:-1]] if width > 1 else [good + (1,)])
    if not ints:
        return wrong_width
    return st.one_of(
        wrong_width,
        st.builds(
            lambda i, bad: good[:i] + (bad,) + good[i + 1:],
            st.sampled_from(ints),
            st.sampled_from([True, False, "1"]),
        ),
    )


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_a_bad_row_anywhere_stores_nothing(data):
    schema = data.draw(_SCHEMAS)
    initial = data.draw(_rows(schema, 4))
    batch = data.draw(_rows(schema, 8))
    batch.insert(data.draw(st.integers(0, len(batch))), data.draw(_bad_rows(schema)))
    table, log = _table(schema, initial, [0])
    before = _state(table)

    with pytest.raises(QueryError):
        table.load(iter(batch))

    assert _state(table) == before
    assert log == []


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_an_index_built_after_a_load_equals_one_maintained_per_row(data):
    schema = [(column_type, "hash") for column_type, _ in data.draw(_SCHEMAS)]
    rows = data.draw(_rows(schema, 16))
    deletes = data.draw(st.lists(st.integers(0, 15), max_size=6))
    maintained, _ = _table(schema, (), ())
    for values in rows:
        maintained.insert(values)
    built = Database().create_table("t", maintained.schema.columns)
    built.load(rows)
    for position in deletes:
        live = [row_id for row_id, _ in maintained.scan()]
        if live:
            maintained.delete(live[position % len(live)])
            built.delete(live[position % len(live)])
    for column in maintained.indexes:
        built.create_index(column, "hash")

    for column, index in maintained.indexes.items():
        assert built.indexes[column]._map == index._map
    assert _state(built) == _state(maintained)


# -- cost gate ---------------------------------------------------------------

ROWS = 2_000

#: Calls per row allowed while the cache testbed's table is loaded and
#: its two hash indexes built. The row generator's resume is one. A
#: row-by-row ``insert`` loop is two (``insert`` and its one-row
#: ``load``); a hash index fed one call per posting adds one per index.
BOUND = 1.5


def calls_per_row(build) -> float:
    """``"call"`` events per row while ``build(ROWS, 50)`` runs."""
    build(10, 5)  # first use imports the db package
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(count)
    try:
        build(ROWS, 50)
    finally:
        sys.setprofile(None)
    return calls / ROWS


def test_the_cache_testbed_loads_in_one_call_per_row():
    assert calls_per_row(scenarios._catalog_database) <= BOUND


def _row_by_row_catalog(table_rows, groups):
    """Mutant: the cache testbed's table, one ``insert`` per row."""
    database = Database("catalog")
    table = database.create_table("records", [("id", int), ("grp", int), ("val", int)])
    for i in range(table_rows):
        table.insert((i, i % groups, (i * 7) % 1000))
    table.create_index("grp", "hash")
    table.create_index("id", "hash")
    return database


def _posting_per_call(self, pairs):
    """Mutant: build a hash index with one ``insert`` call per posting."""
    self._map = {}
    for value, row_id in pairs:
        self.insert(value, row_id)


_MUTANTS = {
    "row-by-row-insert": (scenarios, "_catalog_database", _row_by_row_catalog),
    "posting-per-call": (HashIndex, "bulk_load", _posting_per_call),
}


@pytest.mark.parametrize("mutant", sorted(_MUTANTS))
def test_a_seeded_mutant_exceeds_the_bound(monkeypatch, mutant):
    monkeypatch.setattr(*_MUTANTS[mutant])
    assert calls_per_row(scenarios._catalog_database) > BOUND


def main() -> None:
    """Print the cache testbed's build-only seconds and calls per row."""
    from repro.workload import run_cache_tier_experiment

    timings = []
    for _ in range(5):
        started = time.perf_counter()
        run_cache_tier_experiment(n_clients=60, duration=0.001, write_fraction=0.02)
        timings.append(time.perf_counter() - started)
    print(f"cache testbed build-only: {sorted(timings)[2]:.4f} s (median of 5)")
    print(f"calls per loaded row: {calls_per_row(scenarios._catalog_database):.3f}")


if __name__ == "__main__":
    main()
