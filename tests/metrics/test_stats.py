"""Unit and property tests for SummaryStats, cross-checked with numpy."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.metrics import SummaryStats

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)


class TestSummaryStats:
    def test_empty_stats_are_nan(self):
        stats = SummaryStats()
        assert math.isnan(stats.mean)
        assert math.isnan(stats.minimum)
        assert math.isnan(stats.percentile(50))
        assert stats.count == 0

    def test_single_value(self):
        stats = SummaryStats([5.0])
        assert stats.mean == 5.0
        assert stats.minimum == stats.maximum == 5.0
        assert stats.percentile(50.0) == 5.0

    def test_known_values(self):
        stats = SummaryStats([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.mean == pytest.approx(5.0)
        assert stats.percentile(50.0) == 4.5

    def test_percentile_bounds_validation(self):
        stats = SummaryStats([1.0])
        with pytest.raises(ValueError):
            stats.percentile(101)
        with pytest.raises(ValueError):
            stats.percentile(-1)

    def test_ints_and_bools_convert_to_float(self):
        s = SummaryStats([1, True])
        s.add(2)
        s.add(False)
        assert s.values() == [1.0, 1.0, 2.0, 0.0]
        assert all(type(v) is float for v in s.values())

    @pytest.mark.parametrize("bad", ["1.5", None, [1.0], 1j])
    def test_a_non_number_raises_where_it_is_added(self, bad):
        s = SummaryStats([1.0])
        with pytest.raises(TypeError):
            s.add(bad)
        with pytest.raises(TypeError):
            SummaryStats([bad])
        assert s.values() == [1.0]

    def test_merge_combines_samples(self):
        a = SummaryStats([1.0, 2.0])
        b = SummaryStats([3.0])
        merged = a.merge(b)
        assert merged.count == 3
        assert merged.mean == pytest.approx(2.0)
        assert a.count == 2  # originals untouched

    @given(st.lists(finite_floats, min_size=1, max_size=200))
    def test_mean_matches_numpy(self, values):
        stats = SummaryStats(values)
        assert stats.mean == pytest.approx(float(np.mean(values)), rel=1e-9, abs=1e-6)

    @given(
        st.lists(finite_floats, min_size=1, max_size=100),
        st.floats(min_value=0, max_value=100),
    )
    def test_percentile_matches_numpy_linear(self, values, q):
        stats = SummaryStats(values)
        expected = float(np.percentile(values, q, method="linear"))
        assert stats.percentile(q) == pytest.approx(expected, rel=1e-9, abs=1e-6)

    @given(st.lists(finite_floats, min_size=1, max_size=100))
    def test_min_max_bound_all_percentiles(self, values):
        stats = SummaryStats(values)
        assert stats.minimum <= stats.percentile(50.0) <= stats.maximum
        assert stats.minimum == min(values)
        assert stats.maximum == max(values)
