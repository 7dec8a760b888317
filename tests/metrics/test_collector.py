"""Unit tests for MetricsRegistry and report rendering."""

from __future__ import annotations

from repro.metrics import MetricsRegistry, render_table


class TestMetricsRegistry:
    def test_counters_accumulate(self):
        m = MetricsRegistry()
        m.increment("a")
        m.increment("a", 2.5)
        assert m.counter("a") == 3.5
        assert m.counter("missing") == 0.0

    def test_counters_prefix_filter(self):
        m = MetricsRegistry()
        m.increment("broker.drops.qos1")
        m.increment("broker.drops.qos2")
        m.increment("broker.served")
        assert set(m.counters("broker.drops.")) == {
            "broker.drops.qos1",
            "broker.drops.qos2",
        }

    def test_samples_accumulate(self):
        m = MetricsRegistry()
        for v in (1.0, 2.0, 3.0):
            m.observe("latency", v)
        assert m.sample("latency").count == 3
        assert m.sample("latency").mean == 2.0
        assert m.sample("never").count == 0

    def test_iteration_sorted(self):
        m = MetricsRegistry()
        m.increment("z")
        m.increment("a")
        assert [name for name, _ in m] == ["a", "z"]


class TestReportRendering:
    def test_render_table_aligns_columns(self):
        rows = [{"n": 10, "rt": 1.5}, {"n": 100, "rt": 22.25}]
        text = render_table(rows, title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "n" in lines[1] and "rt" in lines[1]
        assert len(lines) == 5

    def test_render_table_infers_columns(self):
        text = render_table([{"a": 1}, {"b": 2}])
        assert "a" in text and "b" in text

    def test_float_formatting(self):
        text = render_table([{"v": 0.123456}])
        assert "0.1235" in text

    def test_nan_renders_as_dash(self):
        text = render_table([{"v": float("nan")}])
        assert "-" in text.splitlines()[-1]
