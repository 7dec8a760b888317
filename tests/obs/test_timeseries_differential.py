"""Differential oracle: two-column ``TimeSeries`` vs the deque of tuples.

Hypothesis generates programs of time-ordered appends (past the ring's
capacity, with repeated timestamps) interleaved with every read the SLO
engine, the autoscaler and the dashboard use; the shipped class and
``reference_timeseries.TimeSeries`` run the same program and every read
must be ``==`` (nan matching nan), including what a rejected
non-monotonic append leaves behind.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import TimeSeries

from .reference_timeseries import TimeSeries as ReferenceSeries

_value = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-(2**53), max_value=2**53),
    st.booleans(),
)
_gap = st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0])
_at = st.one_of(st.none(), st.floats(min_value=-2.0, max_value=80.0))
_window = st.floats(min_value=0.0, max_value=40.0)

_op = st.one_of(
    st.tuples(st.just("append"), _gap, _value),
    st.tuples(st.just("append_earlier"), st.sampled_from([0.25, 1.0, 100.0]), _value),
    st.tuples(st.just("value_at"), st.floats(min_value=-2.0, max_value=80.0)),
    st.tuples(st.just("delta_over"), _window, _at),
    st.tuples(st.sampled_from(["last", "points", "len", "dropped", "repr"])),
)


def same(a, b) -> bool:
    """``a == b`` with nan equal to nan, through tuples and lists."""
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a):
        return math.isnan(b)
    return a == b


def read(series, kind, args):
    if kind == "len":
        return len(series)
    if kind == "repr":
        return repr(series)
    if kind == "dropped":
        return series.dropped
    return getattr(series, kind)(*args)


def run_program(make, capacity, program):
    """Run *program* on ``make(name, capacity)`` and the reference."""
    subject, reference = make("s", capacity), ReferenceSeries("s", capacity)
    now = 0.0
    for step, (kind, *args) in enumerate(program):
        where = f"step {step}: {kind} {args!r}"
        if kind == "append":
            now += args[0]
            subject.append(now, args[1])
            reference.append(now, args[1])
        elif kind == "append_earlier":
            if not len(reference):
                continue
            for series in (subject, reference):
                with pytest.raises(ValueError, match="non-monotonic"):
                    series.append(now - args[0], args[1])
        else:
            assert same(read(subject, kind, args), read(reference, kind, args)), where
    for kind in ("last", "points", "len", "dropped"):
        assert same(read(subject, kind, ()), read(reference, kind, ())), f"final {kind}"


@settings(max_examples=300, deadline=None)
@given(
    capacity=st.integers(min_value=1, max_value=12),
    program=st.lists(_op, max_size=60),
)
def test_every_read_equals_the_deque_reference(capacity, program):
    run_program(TimeSeries, capacity, program)


class _ForgetsDropped(TimeSeries):
    """Mutant: the ring bound evicts without counting it."""

    __slots__ = ()

    def append(self, t, value):
        dropped = self.dropped
        super().append(t, value)
        self.dropped = dropped


class _BisectsValues(TimeSeries):
    """Mutant: point reads bisect the value column, not the time column."""

    __slots__ = ()

    def value_at(self, at):
        index = bisect_right(self._values, at)
        return self._values[index - 1] if index else None


@pytest.mark.parametrize(
    "mutant, capacity, program",
    [
        # Evicted history changes delta_over's baseline rule.
        (
            _ForgetsDropped,
            1,
            [("append", 1.0, 5.0), ("append", 1.0, 9.0), ("delta_over", 40.0, None)],
        ),
        (_BisectsValues, 4, [("append", 0.0, 5.0), ("append", 1.0, 1.0), ("value_at", 0.5)]),
    ],
)
def test_differential_test_catches_seeded_mutants(mutant, capacity, program):
    run_program(TimeSeries, capacity, program)
    with pytest.raises(AssertionError):
        run_program(mutant, capacity, program)
