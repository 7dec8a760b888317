"""``__wire_memo__``: a payload that is never mutated is sized once."""

from __future__ import annotations

import pickle
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Any, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.client import QueryResult
from repro.net import Address, estimate_size
from repro.net import message
from repro.net.message import Envelope

_cell = st.one_of(
    st.none(), st.booleans(), st.integers(-10**6, 10**6),
    st.floats(allow_nan=False), st.text(max_size=12),
)
_results = st.builds(
    QueryResult,
    columns=st.lists(st.text(min_size=1, max_size=8), max_size=4).map(tuple),
    rows=st.lists(st.lists(_cell, max_size=4).map(tuple), max_size=12).map(tuple),
    stats=st.dictionaries(st.text(max_size=10), st.integers(0, 10**6), max_size=4),
)


def plain_walk(result: QueryResult) -> int:
    """What the dataclass walk yields: framing plus each field's size."""
    return (
        8
        + estimate_size(result.columns)
        + estimate_size(result.rows)
        + estimate_size(result.stats)
    )


@contextmanager
def counted_walks():
    """Count the container walks ``estimate_size`` performs inside the block."""
    walks = []
    real = message._HANDLERS[tuple]

    def counting(payload):
        walks.append(payload)
        return real(payload)

    with mock.patch.dict(message._HANDLERS, {tuple: counting}):
        yield walks


@dataclass(frozen=True)
class Unmarked:
    rows: Tuple[Any, ...]


class TestQueryResultIsSizedOnce:
    @given(_results)
    @settings(max_examples=150)
    def test_memoised_size_is_the_plain_walk_and_is_not_walked_again(self, result):
        expected = plain_walk(result)
        with counted_walks() as walks:
            assert estimate_size(result) == expected
            assert walks  # the first call walked columns and rows
            del walks[:]
            assert estimate_size(result) == expected
            assert walks == []

    @given(_results, _results)
    @settings(max_examples=60)
    def test_replace_sizes_the_new_content(self, result, other):
        estimate_size(result)
        changed = replace(result, rows=other.rows)
        assert estimate_size(changed) == plain_walk(changed)
        assert estimate_size(result) == plain_walk(result)

    @given(_results)
    @settings(max_examples=60)
    def test_pickled_copy_sizes_the_same(self, result):
        def envelope(payload):
            return Envelope(payload, Address("a", 1), Address("b", 2), 0, 0.0)

        fresh, sized = replace(result), replace(result)
        expected = estimate_size(sized)
        for original in (fresh, sized):
            copy = pickle.loads(pickle.dumps(envelope(original)))
            assert copy.payload == result
            assert estimate_size(copy.payload) == expected == plain_walk(copy.payload)

    def test_memo_is_not_part_of_the_value(self):
        result = QueryResult(("a",), ((1,), (2,)), {"rows_examined": 2})
        twin = replace(result)
        estimate_size(result)
        assert result == twin
        assert repr(result) == repr(twin)


class TestTheMarkerIsOptIn:
    def test_class_without_the_marker_is_walked_every_time(self):
        payload = Unmarked(rows=((1, 2), (3, 4)))
        with counted_walks() as walks:
            first = estimate_size(payload)
            seen = len(walks)
            assert seen > 0
            assert estimate_size(payload) == first
            assert len(walks) == 2 * seen

    def test_slotted_class_with_the_marker_is_rejected_at_handler_build(self):
        @dataclass(frozen=True, slots=True)
        class Slotted:
            __wire_memo__ = True
            rows: Tuple[Any, ...]

        for _ in range(2):  # a failed build caches no handler
            with pytest.raises(TypeError, match="Slotted declares __wire_memo__"):
                estimate_size(Slotted(rows=((1,),)))
        assert Slotted not in message._HANDLERS
