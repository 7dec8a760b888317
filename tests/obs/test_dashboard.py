"""Tests for the terminal sparkline dashboard."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import MetricsRegistry
from repro.obs import (
    Panel,
    SloEngine,
    TelemetryScraper,
    default_panels,
    live_panel,
    qos_slos,
    render_dashboard,
    sparkline,
)
from repro.obs import dashboard
from repro.obs.dashboard import SPARK_CHARS
from repro.sim import Simulation


class TestSparkline:
    def test_empty_series_renders_empty(self):
        assert sparkline([]) == ""

    def test_flat_series_renders_lowest_level(self):
        assert sparkline([5.0, 5.0, 5.0]) == SPARK_CHARS[0] * 3

    def test_min_and_max_hit_the_extremes(self):
        out = sparkline([0.0, 1.0])
        assert out == SPARK_CHARS[0] + SPARK_CHARS[-1]

    def test_nan_renders_as_space(self):
        out = sparkline([0.0, math.nan, 1.0])
        assert out[1] == " "

    def test_all_nan_renders_spaces(self):
        assert sparkline([math.nan, math.nan]) == "  "

    def test_width_takes_the_tail(self, monkeypatch):
        monkeypatch.setattr(dashboard, "SPARK_WIDTH", 2)
        out = sparkline([0.0] * 10 + [1.0])
        assert len(out) == 2
        assert out[-1] == SPARK_CHARS[-1]

    @given(
        st.lists(
            st.floats(min_value=-1e9, max_value=1e9),
            min_size=1,
            max_size=100,
        ),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=60)
    def test_output_width_and_alphabet(self, values, width):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dashboard, "SPARK_WIDTH", width)
            out = sparkline(values)
        assert len(out) == min(len(values), width)
        assert all(c in SPARK_CHARS + " " for c in out)


class TestPanel:
    def test_kind_validated(self):
        with pytest.raises(ValueError, match="value|rate"):
            Panel(title="t", rows=(), kind="bogus")


def _scraper_with_series():
    """A scraper fed from a tiny sim with counter + gauge families."""
    sim = Simulation(seed=3)
    registry = MetricsRegistry()

    def ticker():
        while True:
            yield 1.0
            registry.increment("app.fullfid.qos1")
            registry.increment("app.fullfid.qos2", 2)

    sim.process(ticker(), name="ticker")
    scraper = TelemetryScraper(interval=1.0).attach(sim)
    scraper.watch_registry(registry, prefix="app.")
    scraper.add_gauge("broker.load.b1", lambda: 4.0)
    scraper.add_gauge("broker.load.b1.queue_depth", lambda: 2.0)
    scraper.use_slo(SloEngine(qos_slos()))
    scraper.start(until=6.0)
    sim.run(until=6.0)
    return scraper


class TestDefaultPanels:
    def test_families_with_series_get_panels(self):
        scraper = _scraper_with_series()
        titles = [panel.title for panel in default_panels(scraper)]
        assert any("full-fidelity" in t for t in titles)
        assert any("outstanding" in t for t in titles)
        assert any("queue depth" in t for t in titles)
        assert any("error budget" in t for t in titles)

    def test_empty_scraper_yields_no_panels(self):
        sim = Simulation(seed=1)
        scraper = TelemetryScraper().attach(sim)
        assert default_panels(scraper) == []

    def test_rows_are_capped(self):
        scraper = _scraper_with_series()
        for panel in default_panels(scraper):
            assert len(panel.rows) <= 12


class TestRenderDashboard:
    def test_live_frame_has_header_and_sparklines(self):
        scraper = _scraper_with_series()
        frame = render_dashboard(scraper)
        assert "telemetry dashboard" in frame
        assert "live" in frame
        assert any(c in frame for c in SPARK_CHARS)

    def test_rate_panels_divide_by_interval(self):
        scraper = _scraper_with_series()
        frame = render_dashboard(scraper)
        # qos2 increments by 2 each second -> its last rate shows 2.
        lines = [l for l in frame.splitlines() if "fullfid.qos2" in l]
        assert lines and lines[0].rstrip().endswith("2")

    def test_engine_alerts_section(self):
        scraper = _scraper_with_series()
        frame = render_dashboard(scraper, engine=scraper.slo)
        assert "alerts: 0 fired, 0 active" in frame


class TestLivePanel:
    def test_subscriber_emits_every_n_scrapes(self):
        frames = []
        sim = Simulation(seed=2)
        scraper = TelemetryScraper(interval=1.0).attach(sim)
        scraper.add_gauge("g", lambda: 1.0)
        scraper.subscribe(live_panel(frames.append))
        scraper.start(until=6.0)
        sim.run(until=6.0)
        assert len(frames) == 6
        assert all("telemetry dashboard" in frame for frame in frames)
