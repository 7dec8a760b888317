"""Tests for the fixed-bucket latency histogram."""

from __future__ import annotations

import math

import pytest

from repro.metrics import (
    DEFAULT_LATENCY_EDGES,
    LatencyHistogram,
    MetricsRegistry,
    render_histograms,
)


class TestBuckets:
    def test_default_edges_are_sorted_and_log_spaced(self):
        edges = DEFAULT_LATENCY_EDGES
        assert list(edges) == sorted(edges)
        assert edges[0] == 1e-4
        assert edges[-1] == 100.0

    def test_value_on_exact_boundary_lands_in_lower_bucket(self):
        # bisect_left makes each bucket upper-edge-inclusive: a value
        # exactly on an edge counts in the bucket that edge closes.
        hist = LatencyHistogram(edges=(1.0, 2.0, 5.0))
        hist.add(1.0)
        hist.add(2.0)
        hist.add(5.0)
        buckets = dict(zip(hist.edges, hist.counts))
        assert buckets[1.0] == 1
        assert buckets[2.0] == 1
        assert buckets[5.0] == 1
        assert hist.overflow == 0

    def test_value_just_past_boundary_lands_in_next_bucket(self):
        hist = LatencyHistogram(edges=(1.0, 2.0))
        hist.add(1.0000001)
        buckets = dict(zip(hist.edges, hist.counts))
        assert buckets[1.0] == 0
        assert buckets[2.0] == 1

    def test_overflow_bucket(self):
        hist = LatencyHistogram(edges=(1.0, 2.0))
        hist.add(3.0)
        hist.add(1000.0)
        assert hist.overflow == 2
        assert hist.count == 2
        assert hist.counts == [0, 0]

    def test_counts_and_mean(self):
        hist = LatencyHistogram()
        for value in (0.001, 0.002, 0.003):
            hist.add(value)
        assert hist.count == 3
        assert hist.total / hist.count == pytest.approx(0.002)
        assert hist._min == 0.001
        assert hist.maximum == 0.003


class TestQuantiles:
    def test_empty_quantiles_are_nan(self):
        hist = LatencyHistogram()
        assert math.isnan(hist.p50)
        assert math.isnan(hist.p99)
        assert math.isnan(hist.percentile(10.0))

    def test_single_value_quantiles_clamp_to_it(self):
        hist = LatencyHistogram()
        hist.add(0.05)
        for q in (0.0, 50.0, 90.0, 99.9, 100.0):
            assert hist.percentile(q) == pytest.approx(0.05)

    def test_percentiles_are_monotone(self):
        hist = LatencyHistogram()
        for i in range(1, 1001):
            hist.add(i / 1000.0)
        p50, p90, p99, p999 = hist.p50, hist.p90, hist.p99, hist.p999
        assert p50 <= p90 <= p99 <= p999 <= hist.maximum
        assert p50 == pytest.approx(0.5, rel=0.25)
        assert p99 == pytest.approx(0.99, rel=0.25)

    def test_overflow_quantile_reports_observed_max(self):
        hist = LatencyHistogram(edges=(1.0,))
        hist.add(500.0)
        assert hist.percentile(99.0) == 500.0

    def test_percentile_range_validated(self):
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.percentile(-1.0)
        with pytest.raises(ValueError):
            hist.percentile(101.0)


class TestRegistryIntegration:
    def test_histogram_handle_accumulates(self):
        metrics = MetricsRegistry()
        handle = metrics.histogram_handle("obs.stage.execute")
        handle.add(0.01)
        handle.add(0.02)
        assert metrics.histograms("obs.stage.execute")["obs.stage.execute"].count == 2
        # Same name returns the same histogram.
        assert metrics.histogram_handle("obs.stage.execute") is handle

    def test_missing_histogram_is_empty(self):
        metrics = MetricsRegistry()
        assert metrics.histograms("nope") == {}

    def test_prefix_scan_sorted(self):
        metrics = MetricsRegistry()
        metrics.histogram_handle("obs.stage.b").add(1.0)
        metrics.histogram_handle("obs.stage.a").add(1.0)
        metrics.histogram_handle("other").add(1.0)
        assert list(metrics.histograms("obs.stage.")) == [
            "obs.stage.a",
            "obs.stage.b",
        ]


class TestRendering:
    def test_render_histograms_table(self):
        hist = LatencyHistogram()
        hist.add(0.01)
        text = render_histograms({"obs.latency.all": hist}, title="t")
        assert "obs.latency.all" in text
        assert "p99" in text

    def test_render_empty_histogram(self):
        text = render_histograms({"idle": LatencyHistogram()})
        name, count, *quantiles = text.splitlines()[-1].split()
        assert (name, count) == ("idle", "0")
        assert quantiles == ["-"] * 5


class TestMerge:
    def test_merge_sums_counts_overflow_and_total(self):
        a = LatencyHistogram(edges=(1.0, 2.0))
        b = LatencyHistogram(edges=(1.0, 2.0))
        for v in (0.5, 1.5, 9.0):
            a.add(v)
        for v in (0.6, 9.5):
            b.add(v)
        merged = a.merge(b)
        assert merged.count == 5
        assert merged.overflow == 2
        assert merged.total == pytest.approx(0.5 + 1.5 + 9.0 + 0.6 + 9.5)
        assert merged._min == 0.5
        assert merged.maximum == 9.5

    def test_merge_requires_identical_edges(self):
        a = LatencyHistogram(edges=(1.0, 2.0))
        b = LatencyHistogram(edges=(1.0, 3.0))
        with pytest.raises(ValueError, match="edges"):
            a.merge(b)

    def test_merge_with_empty_operand_keeps_min_max(self):
        a = LatencyHistogram(edges=(1.0, 2.0))
        a.add(0.5)
        empty = LatencyHistogram(edges=(1.0, 2.0))
        merged = a.merge(empty)
        assert merged._min == 0.5
        assert merged.maximum == 0.5
        both_empty = empty.merge(LatencyHistogram(edges=(1.0, 2.0)))
        assert both_empty.count == 0
        assert math.isnan(both_empty.percentile(50))

    def test_merge_does_not_mutate_operands(self):
        a = LatencyHistogram(edges=(1.0,))
        b = LatencyHistogram(edges=(1.0,))
        a.add(0.5)
        b.add(0.6)
        a.merge(b)
        assert a.count == 1 and b.count == 1

    def test_merge_equals_adding_all_values_to_one(self):
        import random

        rng = random.Random(4)
        values_a = [rng.uniform(0.0001, 50.0) for _ in range(200)]
        values_b = [rng.uniform(0.0001, 200.0) for _ in range(150)]
        a = LatencyHistogram()
        b = LatencyHistogram()
        combined = LatencyHistogram()
        for v in values_a:
            a.add(v)
            combined.add(v)
        for v in values_b:
            b.add(v)
            combined.add(v)
        merged = a.merge(b)
        assert list(merged.counts) == list(combined.counts)
        assert merged.overflow == combined.overflow
        assert merged.count == combined.count
        assert merged.total == pytest.approx(combined.total)
        assert merged._min == combined._min
        assert merged.maximum == combined.maximum
        for q in (50, 90, 99):
            assert merged.percentile(q) == pytest.approx(
                combined.percentile(q)
            )
