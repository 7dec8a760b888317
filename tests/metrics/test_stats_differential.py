"""Differential oracles for the two sample types.

Hypothesis generates programs of adds (floats incl. subnormals, ±inf and
nan; ints; bools) interleaved with reads, and every read must be ``==``
(nan matching nan) — not approximately equal:

* the array-backed ``SummaryStats`` against the list-backed
  ``reference_stats.SummaryStats`` (a C double is a Python float, so the
  storage change may not move a single bit);
* the eager ``Moments`` every registry sample is against ``SummaryStats``
  folding the kept sample lazily (the same recurrence, so the same bits).
"""

from __future__ import annotations

import math
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import Moments, SummaryStats

from .reference_stats import SummaryStats as ReferenceStats

_number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, sys.float_info.min, sys.float_info.max,
         math.inf, -math.inf, math.nan, 0.1, 1.0]
    ),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.booleans(),
)

_READS = ("count", "len", "total", "mean", "variance", "stdev", "minimum",
          "maximum", "median", "p95", "p99", "values", "repr")

_op = st.one_of(
    st.tuples(st.just("add"), _number),
    st.tuples(st.just("read"), st.sampled_from(_READS)),
    st.tuples(st.just("percentile"), st.floats(min_value=0.0, max_value=100.0)),
    st.tuples(st.just("merge"), st.lists(_number, max_size=6)),
)


def same(a, b) -> bool:
    """``a == b`` with nan equal to nan, element-wise for lists; types too."""
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if type(a) is not type(b):
        return False
    if isinstance(a, float) and math.isnan(a):
        return math.isnan(b)
    if isinstance(a, float) and a == 0.0:
        return b == 0.0 and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


def read(stats, name):
    if name == "len":
        return len(stats)
    if name == "values":
        return stats.values()
    if name == "repr":
        return repr(stats)
    return getattr(stats, name)


def run_program(make, program):
    """Run *program* on ``make()`` and on the reference; assert equal reads."""
    subject, reference = make(), ReferenceStats()
    for step, (kind, arg) in enumerate(program):
        where = f"step {step}: {kind} {arg!r}"
        if kind == "add":
            subject.add(arg)
            reference.add(arg)
        elif kind == "read":
            assert same(read(subject, arg), read(reference, arg)), where
        elif kind == "percentile":
            assert same(subject.percentile(arg), reference.percentile(arg)), where
        else:  # merge with a second sample, then read the merged moments
            merged = subject.merge(type(subject)(arg))
            expected = reference.merge(ReferenceStats(arg))
            for name in ("count", "values", "mean", "variance", "minimum", "maximum"):
                assert same(read(merged, name), read(expected, name)), f"{where}: {name}"
    for name in _READS:
        assert same(read(subject, name), read(reference, name)), f"final {name}"


@settings(max_examples=300, deadline=None)
@given(program=st.lists(_op, max_size=40))
def test_every_read_equals_the_list_backed_reference(program):
    run_program(SummaryStats, program)


def test_values_is_a_copy():
    stats = SummaryStats([1.0, 2.0])
    stats.values().append(3.0)
    assert stats.values() == [1.0, 2.0]


def test_differential_test_catches_a_single_precision_sample():
    """A seeded mutant: the column holds C floats, not doubles."""
    from array import array

    class SinglePrecision(SummaryStats):
        __slots__ = ()

        def __init__(self, values=None):
            super().__init__(values)
            self._values = array("f", self._values)

    with pytest.raises(AssertionError):
        run_program(SinglePrecision, [("add", 0.1), ("read", "mean")])


_MOMENT_READS = ("count", "len", "mean", "variance", "stdev", "minimum", "maximum")


def run_moments_program(make, program):
    """Run *program* on ``make()`` and on a ``SummaryStats``; equal moments."""
    subject, reference = make(), SummaryStats()
    for step, (kind, arg) in enumerate(program):
        if kind == "add":
            subject.add(arg)
            reference.add(arg)
        else:
            assert same(read(subject, arg), read(reference, arg)), f"step {step}: {arg}"
    for name in _MOMENT_READS:
        assert same(read(subject, name), read(reference, name)), f"final {name}"


@settings(max_examples=300, deadline=None)
@given(
    program=st.lists(
        st.one_of(
            st.tuples(st.just("add"), _number),
            st.tuples(st.just("read"), st.sampled_from(_MOMENT_READS)),
        ),
        max_size=40,
    )
)
def test_moments_equal_the_summary_of_the_kept_sample(program):
    run_moments_program(Moments, program)


@pytest.mark.parametrize("bad", ["1.5", None, 1j, [1.0]])
def test_moments_reject_what_the_column_rejects(bad):
    with pytest.raises(TypeError):
        SummaryStats().add(bad)
    with pytest.raises(TypeError):
        Moments().add(bad)


def test_moments_differential_catches_a_skipped_minimum():
    """A seeded mutant: the first observation never reaches the minimum."""

    class LateMinimum(Moments):
        __slots__ = ()

        def add(self, value):
            low = self._min
            super().add(value)
            if self.count == 1:
                self._min = low

    with pytest.raises(AssertionError):
        run_moments_program(LateMinimum, [("add", 2.0), ("read", "minimum")])
