"""Differential oracle: ``HashIndex`` vs a brute-force scan.

Hypothesis generates insert/update programs over a table whose
``k`` column is hash-indexed (the index built before the first row, or
part-way through); after every step, each key's ``lookup`` must be the
ascending row ids a full scan finds, and the index must count exactly
the rows and their distinct keys. A second program drives the index
alone — repeated pairs, removals of absent pairs — against a set of
``(value, row id)`` pairs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import Database
from repro.db.index import HashIndex

_KEYS = st.integers(min_value=0, max_value=6)

_table_op = st.one_of(
    st.tuples(st.just("insert"), _KEYS),
    st.tuples(st.just("update"), st.integers(min_value=0, max_value=400), _KEYS),
    st.tuples(st.just("index"), st.just(0)),
)


def check(table, index):
    rows = list(table.scan())
    for key in range(-1, 8):
        expected = [row_id for row_id, row in rows if row[0] == key]
        assert index.lookup(key) == expected, key
    assert len(index) == len(rows)
    assert len(index._map) == len({row[0] for _, row in rows})


@settings(max_examples=200, deadline=None)
@given(program=st.lists(_table_op, max_size=60))
def test_lookups_equal_a_scan_after_every_step(program):
    table = Database().create_table("t", [("k", int), ("v", int)])
    for kind, *args in program:
        if kind == "insert":
            table.insert((args[0], 0))
        elif kind == "index":
            if "k" not in table.indexes:
                table.create_index("k")
        elif table.row_count:
            table.update(args[0] % table.row_count, {"k": args[1]})
        if "k" in table.indexes:
            check(table, table.indexes["k"])


_index_op = st.tuples(
    st.sampled_from(["insert", "remove"]),
    _KEYS,
    st.integers(min_value=0, max_value=9),
)


@settings(max_examples=200, deadline=None)
@given(program=st.lists(_index_op, max_size=60))
def test_the_index_alone_is_a_set_of_pairs(program):
    index, pairs = HashIndex("k"), set()
    for kind, value, row_id in program:
        if kind == "insert":
            index.insert(value, row_id)
            pairs.add((value, row_id))
        else:
            index.remove(value, row_id)
            pairs.discard((value, row_id))
        for key in range(7):
            assert index.lookup(key) == sorted(r for v, r in pairs if v == key)
        assert len(index) == len(pairs)
        assert len(index._map) == len({v for v, _ in pairs})


def test_lookup_hands_out_a_copy():
    index = HashIndex("k")
    index.insert(1, 5)
    index.lookup(1).append(6)
    assert index.lookup(1) == [5]
