"""Differential test: a view-served answer equals the executor's answer.

Hypothesis drives random interleavings of writes and answerable reads
against a database with a view installed; after every step each read
shape is also run through :func:`execute_statement` on the same table
with no catalog in the way, and ``columns``/``rows`` must agree
(``stats`` differ by design: a view probe examines one row).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database, ViewCatalog
from repro.db.executor import execute_statement
from repro.db.parser import parse
from repro.db.table import Table

#: The one aggregate the dialect has; a view may repeat it.
AGGREGATES = ("COUNT(*)", "COUNT(*), COUNT(*)")
#: Few groups and ids, so writes collide: rows move between groups,
#: groups empty out and refill.
GROUPS = st.integers(min_value=0, max_value=4)
IDS = st.integers(min_value=0, max_value=11)
#: Thousandths (the dialect has no sign or exponent).
VALUES = st.integers(min_value=0, max_value=10**6).map(lambda n: n / 1000)


def sql(template: str, *parts):
    """A strategy for *template* with each ``{}`` drawn from *parts*."""
    return st.builds(template.format, *parts)


WRITES = st.one_of(
    sql("UPDATE records SET grp = {} WHERE id = {}", GROUPS, IDS),
    sql("UPDATE records SET val = {!r} WHERE id = {}", VALUES, IDS),
    sql("UPDATE records SET grp = {}, val = {!r} WHERE grp = {}", GROUPS, VALUES, GROUPS),
    sql("UPDATE records SET grp = {} WHERE grp IN ({}, {})", GROUPS, GROUPS, GROUPS),
)
STEPS = st.lists(WRITES, min_size=1, max_size=12)
ROWS = st.lists(
    st.tuples(IDS, st.one_of(st.none(), GROUPS), st.one_of(st.none(), VALUES)), max_size=12
)


def read_shapes(aggregate: str):
    """Every read shape the view answers, plus the one it must decline."""
    return (
        f"SELECT grp, {aggregate} FROM records GROUP BY grp",
        f"SELECT {aggregate} FROM records GROUP BY grp",
        f"SELECT {aggregate} FROM records WHERE grp = 1",
        f"SELECT {aggregate} FROM records WHERE grp = 9",
        f"SELECT grp, {aggregate} FROM records WHERE grp = 2 GROUP BY grp",
        f"SELECT grp, {aggregate} FROM records WHERE grp IN (3, 0, 3, 9) GROUP BY grp",
        f"SELECT {aggregate} FROM records WHERE grp IN (2, 1) GROUP BY grp",
        f"SELECT {aggregate} FROM records WHERE grp IN (1, 2, 1)",
    )


def create_records(database: Database, rows, indexed):
    table = database.create_table("records", [("id", int), ("grp", int), ("val", float)])
    table.load(rows)
    if indexed:
        table.create_index("grp")
    return table


def assert_view_matches_executor(database: Database, aggregate: str) -> None:
    table = database.table("records")
    for text in read_shapes(aggregate):
        served = database.execute(text)
        expected = execute_statement(table, parse(text))
        assert (served.columns, served.rows) == (expected.columns, expected.rows), text


@given(
    aggregate=st.sampled_from(AGGREGATES),
    indexed=st.booleans(),
    rows=ROWS,
    steps=STEPS,
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_view_answers_equal_executor_answers(aggregate, indexed, rows, steps):
    database = Database()
    create_records(database, rows, indexed)
    catalog = ViewCatalog()
    catalog.create("v", database, f"SELECT grp, {aggregate} FROM records GROUP BY grp")
    database.install_views(catalog)
    assert_view_matches_executor(database, aggregate)
    for step in steps:
        database.execute(step)
        assert_view_matches_executor(database, aggregate)


def test_differential_test_catches_a_forgotten_old_group(monkeypatch):
    """The seeded mutant: an update reports only the *new* row's group."""
    subscribe = Table.subscribe

    def subscribe_without_old_image_on_update(table, observer):
        subscribe(table, lambda old, new: observer(old if new is None else None, new))

    monkeypatch.setattr(Table, "subscribe", subscribe_without_old_image_on_update)
    with pytest.raises(AssertionError, match="SELECT"):
        test_view_answers_equal_executor_answers()
