"""Tests for the in-flight telemetry scraper and its ring buffers."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import LatencyHistogram, MetricsRegistry
from repro.obs import TelemetryScraper, TimeSeries, run_telemetry_command
from repro.obs.telemetry import _HistogramTrack
from repro.sim import Simulation
from repro.workload.scenarios import run_qos_experiment


# The linear newest-first scans the ring reads used before they bisected
# on the time column, kept here as the reference the properties compare
# against.

def _linear_newest_at_or_before(entries, at):
    for entry in reversed(entries):
        if entry[0] <= at:
            return entry
    return None


def _linear_delta_over(series, window, at=None):
    points = series.points()
    if not points:
        return 0.0
    if at is None:
        at = points[-1][0]
    current = _linear_newest_at_or_before(points, at)
    if current is None:
        return 0.0
    baseline = _linear_newest_at_or_before(points, at - window)
    if baseline is None:
        return current[1] - (points[0][1] if series.dropped else 0.0)
    return current[1] - baseline[1]


#: Time-ordered rings with repeated timestamps, small enough capacities
#: that most of them have evicted history, and read instants that fall
#: before the first point, between points, on a point and after the last.
_gaps = st.lists(
    st.sampled_from([0.0, 0.0, 0.25, 1.0, 3.0]), min_size=1, max_size=40
)
_capacity = st.integers(min_value=1, max_value=12)
_at = st.one_of(st.none(), st.floats(min_value=-2.0, max_value=60.0))
_window = st.floats(min_value=0.0, max_value=40.0)


class TestTimeSeries:
    def test_appends_and_reads_back_in_order(self):
        series = TimeSeries("x", capacity=8)
        series.append(1.0, 10.0)
        series.append(2.0, 20.0)
        assert series.points() == [(1.0, 10.0), (2.0, 20.0)]
        assert series.last() == (2.0, 20.0)
        assert len(series) == 2

    def test_non_monotonic_append_rejected(self):
        series = TimeSeries("x")
        series.append(5.0, 1.0)
        with pytest.raises(ValueError, match="non-monotonic"):
            series.append(4.0, 2.0)

    def test_equal_timestamps_allowed(self):
        series = TimeSeries("x")
        series.append(1.0, 1.0)
        series.append(1.0, 2.0)
        assert len(series) == 2

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            TimeSeries("x", capacity=0)

    def test_eviction_drops_oldest_and_counts(self):
        series = TimeSeries("x", capacity=3)
        for i in range(5):
            series.append(float(i), float(i * 10))
        assert series.points() == [(2.0, 20.0), (3.0, 30.0), (4.0, 40.0)]
        assert series.dropped == 2

    def test_value_at_picks_newest_at_or_before(self):
        series = TimeSeries("x")
        series.append(1.0, 1.0)
        series.append(3.0, 3.0)
        assert series.value_at(2.5) == 1.0
        assert series.value_at(3.0) == 3.0
        assert series.value_at(0.5) is None

    def test_window_is_half_open(self):
        # A window (at - w, at] leaves the point at at - w out: it is
        # the baseline.
        series = TimeSeries("x")
        for t in (1.0, 2.0, 3.0):
            series.append(t, t)
        assert series.delta_over(2.0, at=3.0) == 2.0
        assert series.delta_over(1.0, at=3.0) == 1.0

    def test_window_until_defaults_to_the_newest_point_and_may_be_empty(self):
        series = TimeSeries("x", capacity=3)
        assert series.delta_over(1.0) == 0.0
        for t in (1.0, 2.0, 2.0, 3.0, 4.0):
            series.append(t, t * 10)
        assert series.delta_over(1.0) == series.delta_over(1.0, at=4.0) == 10.0
        assert series.delta_over(1.0, at=9.0) == 0.0

    def test_points_are_stored_as_doubles(self):
        series = TimeSeries("x")
        series.append(1, 3)
        series.append(2, True)
        assert series.points() == [(1.0, 3.0), (2.0, 1.0)]
        assert all(type(v) is float for point in series.points() for v in point)
        assert type(series.value_at(1)) is float

    @pytest.mark.parametrize("t, value", [(2.0, "3"), (2.0, None), ("2", 3.0)])
    def test_a_non_number_is_rejected_and_leaves_the_ring_unchanged(self, t, value):
        for series in (TimeSeries("empty"), TimeSeries("x")):
            if series.name == "x":
                series.append(1.0, 1.0)
            before = series.points()
            with pytest.raises(TypeError):
                series.append(t, value)
            assert series.points() == before and series.dropped == 0

    def test_delta_over_uses_zero_baseline_before_history(self):
        # Counters start at 0 at t=0, so a window reaching back before
        # the first scrape baselines at zero, not at the first point.
        series = TimeSeries("x")
        series.append(1.0, 5.0)
        series.append(2.0, 8.0)
        assert series.delta_over(10.0) == 8.0

    def test_delta_over_clips_to_retained_history_after_eviction(self):
        series = TimeSeries("x", capacity=2)
        for t, v in ((1.0, 10.0), (2.0, 20.0), (3.0, 30.0)):
            series.append(t, v)
        # Window reaches past the evicted point: baseline is the oldest
        # retained value (20), not an invented zero.
        assert series.delta_over(10.0) == 10.0

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=1e6),
            min_size=1,
            max_size=60,
        ),
        st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=60)
    def test_capacity_bound_and_oldest_first_eviction(self, values, capacity):
        series = TimeSeries("p", capacity=capacity)
        for i, value in enumerate(values):
            series.append(float(i), value)
        assert len(series) <= capacity
        expected = [
            (float(i), v) for i, v in enumerate(values)
        ][-capacity:]
        assert series.points() == expected
        assert series.dropped == max(0, len(values) - capacity)

    @given(
        st.lists(
            st.floats(min_value=0.0, max_value=100.0),
            min_size=1,
            max_size=40,
        ),
        st.floats(min_value=0.5, max_value=50.0),
    )
    @settings(max_examples=60)
    def test_delta_over_matches_brute_force_on_cumulative_series(
        self, increments, window
    ):
        series = TimeSeries("c", capacity=1000)
        total = 0.0
        points = []
        for i, inc in enumerate(increments):
            total += inc
            series.append(float(i), total)
            points.append((float(i), total))
        at = points[-1][0]
        cutoff = at - window
        baseline = 0.0
        for t, v in points:
            if t <= cutoff:
                baseline = v
        expected = points[-1][1] - baseline
        assert series.delta_over(window) == pytest.approx(expected)
        assert series.delta_over(window) >= 0.0

    @given(_gaps, _capacity, _at, _window)
    @settings(max_examples=200)
    def test_window_reads_match_the_linear_scan(self, gaps, capacity, at, window):
        series = TimeSeries("c", capacity=capacity)
        t = 1.0
        for i, gap in enumerate(gaps):
            t += gap
            series.append(t, float(i * i))
        if at is not None:
            found = _linear_newest_at_or_before(series.points(), at)
            assert series.value_at(at) == (None if found is None else found[1])
        assert series.delta_over(window, at) == _linear_delta_over(
            series, window, at
        )


class TestHistogramTrack:
    def _hist(self, values, edges=(1.0, 2.0, 5.0)):
        hist = LatencyHistogram(edges)
        for value in values:
            hist.add(value)
        return hist

    def test_windowed_delta_isolates_recent_observations(self):
        track = _HistogramTrack(edges=(1.0, 2.0, 5.0), capacity=16)
        hist = self._hist([0.5, 0.5])
        track.record(1.0, hist)
        hist.add(4.0)
        hist.add(4.5)
        track.record(2.0, hist)
        delta = track.windowed(window=1.0, at=2.0)
        assert delta.count == 2
        # Only the two 4.x observations are in the window; their bucket
        # is (2, 5], so the bucket-resolution percentile lands there.
        assert 2.0 <= delta.percentile(50) <= 5.0

    def test_window_reaching_before_history_is_whole_run(self):
        track = _HistogramTrack(edges=(1.0, 2.0, 5.0), capacity=16)
        track.record(1.0, self._hist([0.5, 3.0]))
        delta = track.windowed(window=100.0, at=1.0)
        assert delta.count == 2

    def test_empty_track_returns_none(self):
        track = _HistogramTrack(edges=(1.0,), capacity=4)
        assert track.windowed(window=1.0) is None

    def test_all_overflow_window_pins_min_max_to_top_edge(self):
        track = _HistogramTrack(edges=(1.0, 2.0), capacity=4)
        track.record(1.0, self._hist([10.0, 20.0], edges=(1.0, 2.0)))
        delta = track.windowed(window=5.0, at=1.0)
        assert delta._min == 2.0
        assert delta._max == 2.0
        assert delta.percentile(99) == 2.0

    @given(
        st.lists(
            st.lists(
                st.floats(min_value=0.01, max_value=10.0),
                min_size=0,
                max_size=5,
            ),
            min_size=1,
            max_size=10,
        )
    )
    @settings(max_examples=40)
    def test_full_window_delta_equals_cumulative_histogram(self, batches):
        edges = (0.1, 1.0, 5.0)
        hist = LatencyHistogram(edges)
        track = _HistogramTrack(edges=edges, capacity=64)
        for i, batch in enumerate(batches):
            for value in batch:
                hist.add(value)
            track.record(float(i + 1), hist)
        delta = track.windowed(window=1e9)
        assert delta.count == hist.count
        assert list(delta.counts) == list(hist.counts)
        assert delta.overflow == hist.overflow
        if hist.count:
            # Bucket-resolution estimates bracket the exact percentile.
            exact = hist.percentile(50)
            assert delta.percentile(50) == pytest.approx(exact, abs=5.0)

    @given(_gaps, _capacity, _at, _window)
    @settings(max_examples=200)
    def test_windowed_matches_the_linear_scan(self, gaps, capacity, at, window):
        edges = (1.0, 2.0, 5.0)
        hist = LatencyHistogram(edges)
        track = _HistogramTrack(edges=edges, capacity=capacity)
        t = 1.0
        for i, gap in enumerate(gaps):
            t += gap
            hist.add(float(i % 7))
            track.record(t, hist)
        snaps = list(track._snaps)
        read_at = snaps[-1][0] if at is None else at
        newest = _linear_newest_at_or_before(snaps, read_at)
        delta = track.windowed(window, at)
        if newest is None:
            assert delta is None
            return
        base = _linear_newest_at_or_before(snaps, read_at - window)
        if base is None:
            base = (None, (0,) * len(edges), 0, 0, 0.0)
        assert delta.counts == [a - b for a, b in zip(newest[1], base[1])]
        assert delta.overflow == newest[2] - base[2]
        assert delta.count == newest[3] - base[3]
        assert delta.total == newest[4] - base[4]


def _scraped_sim(interval=1.0, until=5.0):
    """A tiny simulation: one counter ticking at 2/s, one gauge."""
    sim = Simulation(seed=7)
    registry = MetricsRegistry()
    hist = registry.histogram_handle("app.latency")

    def ticker():
        while True:
            yield 0.5
            registry.increment("app.requests")
            hist.add(0.05)

    sim.process(ticker(), name="ticker")
    scraper = TelemetryScraper(interval=interval)
    scraper.attach(sim)
    scraper.watch_registry(registry, prefix="app.")
    scraper.add_gauge("depth", lambda: 3.0)
    scraper.start(until=until)
    sim.run(until=until)
    return scraper


class TestTelemetryScraper:
    def test_scrapes_at_every_interval_up_to_horizon(self):
        scraper = _scraped_sim(interval=1.0, until=5.0)
        assert scraper.scrapes == 5
        assert [record.t for record in scraper.records] == [
            1.0, 2.0, 3.0, 4.0, 5.0,
        ]

    def test_counters_sampled_cumulatively(self):
        scraper = _scraped_sim()
        series = scraper.series["app.requests"]
        # The ticker increments at 0.5, 1.0, 1.5, ... but its t=k.0
        # event was scheduled after the scraper's, so each scrape sees
        # the odd count — deterministically, every run.
        assert [v for _, v in series.points()] == [1.0, 3.0, 5.0, 7.0, 9.0]
        assert series.delta_over(2.0) / 2.0 == pytest.approx(2.0)

    def test_gauges_sampled_each_scrape(self):
        scraper = _scraped_sim()
        assert [v for _, v in scraper.series["depth"].points()] == [3.0] * 5

    def test_windowed_percentiles_get_series(self):
        scraper = _scraped_sim()
        key = "app.latency.p99.5s"
        assert key in scraper.series
        # All observations are 0.05s -> inside the (0.01, 0.1] bucket.
        at, p99 = scraper.series[key].last()
        assert 0.01 <= p99 <= 0.1
        delta = scraper._tracks["app.latency"].windowed(5.0, at=at)
        assert delta.percentile(99) == pytest.approx(p99)

    def test_counter_delta_sums_and_ignores_missing(self):
        scraper = _scraped_sim()
        assert scraper.counter_delta(
            ["app.requests", "nope"], window=2.0
        ) == pytest.approx(4.0)

    def test_requires_attach_before_start(self):
        with pytest.raises(RuntimeError, match="attach"):
            TelemetryScraper().start(until=1.0)

    def test_double_start_rejected(self):
        sim = Simulation(seed=1)
        scraper = TelemetryScraper().attach(sim)
        scraper.start(until=1.0)
        with pytest.raises(RuntimeError, match="started"):
            scraper.start(until=1.0)

    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            TelemetryScraper(interval=0.0)

    def test_subscribers_run_after_each_scrape(self):
        seen = []
        sim = Simulation(seed=1)
        scraper = TelemetryScraper(interval=1.0).attach(sim)
        scraper.subscribe(lambda s, record: seen.append(record.t))
        scraper.start(until=3.0)
        sim.run(until=3.0)
        assert seen == [1.0, 2.0, 3.0]

    def test_records_ring_is_bounded(self, monkeypatch):
        monkeypatch.setattr(TelemetryScraper, "capacity", 10)
        scraper = _scraped_sim(interval=0.1, until=5.0)
        assert len(scraper.records) == 10
        assert scraper.scrapes == 50


class TestWorkloadIsolation:
    """Telemetry on vs off must not change workload results."""

    def test_qos_results_identical_with_and_without_scraper(self):
        base = run_qos_experiment(12, mode="broker", duration=30.0, seed=5)
        scraper = TelemetryScraper(interval=1.0)
        scraped = run_qos_experiment(
            12, mode="broker", duration=30.0, seed=5, telemetry=scraper
        )
        assert scraper.scrapes == 30
        assert scraped.completions == base.completions
        assert scraped.full_fidelity == base.full_fidelity
        assert scraped.frontend_rejections == base.frontend_rejections
        assert scraped.drop_ratios == base.drop_ratios
        for level in base.response_times:
            assert (
                scraped.response_times[level].mean
                == base.response_times[level].mean
            )

    def test_scrape_series_deterministic_across_reruns(self):
        def capture():
            scraper = TelemetryScraper(interval=1.0)
            run_qos_experiment(
                12, mode="broker", duration=30.0, seed=5, telemetry=scraper
            )
            return [record.to_dict() for record in scraper.records]

        assert capture() == capture()


class TestTelemetryCommand:
    def test_quick_qos_run_returns_scraper_and_engine(self):
        out = run_telemetry_command(
            scenario="qos", quick=True, seed=3, emit=None
        )
        assert out["scenario"] == "qos"
        assert out["scraper"].scrapes == 30
        assert out["engine"].evaluations == 30
        assert out["exports"] == {}

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown telemetry scenario"):
            run_telemetry_command(scenario="nope", emit=None)

    def test_export_writes_jsonl_and_prometheus(self, tmp_path):
        jsonl = tmp_path / "TELEMETRY.jsonl"
        out = run_telemetry_command(
            scenario="qos",
            quick=True,
            seed=3,
            export=str(jsonl),
            emit=None,
        )
        assert jsonl.exists()
        prom = tmp_path / "TELEMETRY.prom"
        assert prom.exists()
        assert out["exports"] == {
            "jsonl": str(jsonl),
            "prometheus": str(prom),
        }

    def test_shard_scenario_scrapes_leader_only_shard_table(self):
        out = run_telemetry_command(
            scenario="shard", quick=True, seed=3, shards=2, emit=None
        )
        shard_series = [
            name
            for name in out["scraper"].series
            if name.startswith("shard.load.")
        ]
        assert shard_series, sorted(out["scraper"].series)

    def test_dashboard_and_slo_emit_renderings(self):
        lines = []
        run_telemetry_command(
            scenario="qos",
            quick=True,
            seed=3,
            slo=True,
            dashboard=True,
            emit=lines.append,
        )
        text = "\n".join(lines)
        assert "telemetry dashboard" in text
        assert "alert timeline" in text
