"""Tests for the trace exporters and the terminal waterfall renderer."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    TraceCollector,
    critical_path,
    render_attribution,
    render_trace,
    render_waterfall,
    to_chrome_trace,
    to_jsonl,
    validate_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

from .test_spans import run_broker_scenario


@pytest.fixture
def collector(sim, net):
    collector = TraceCollector()
    run_broker_scenario(sim, net, collector)
    return collector


class TestChromeTrace:
    def test_document_is_valid(self, collector):
        doc = to_chrome_trace(collector.traces)
        assert validate_chrome_trace(doc) == []
        assert doc["displayTimeUnit"] == "ms"

    def test_complete_events_use_microseconds(self, collector):
        trace = collector.traces[0]
        doc = to_chrome_trace([trace])
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        root = next(e for e in events if e["name"] == "request")
        assert root["ts"] == pytest.approx(trace.start * 1e6)
        assert root["dur"] == pytest.approx(trace.duration * 1e6)

    def test_one_thread_lane_per_trace(self, collector):
        doc = to_chrome_trace(collector.traces)
        tids = {e["tid"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert len(tids) == len(collector.traces)
        names = [
            e for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert len(names) == len(collector.traces)

    def test_folded_events_become_instants(self, collector):
        doc = to_chrome_trace(collector.traces)
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants
        assert all(e["s"] == "t" for e in instants)

    def test_write_round_trips_through_json(self, collector, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(collector.traces, str(path))
        loaded = json.loads(path.read_text())
        assert validate_chrome_trace(loaded) == []

    def test_validator_catches_problems(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": []}) != []
        bad = {"traceEvents": [{"ph": "Z", "name": 3, "pid": "x", "tid": 0}]}
        problems = validate_chrome_trace(bad)
        assert len(problems) >= 2

    def test_write_refuses_invalid_document(self, tmp_path, monkeypatch):
        # Build a trace, then corrupt the exporter's view of it.
        import repro.obs.export as export

        def broken(_traces):
            return {"traceEvents": [{"ph": "Z"}]}

        monkeypatch.setattr(export, "to_chrome_trace", broken)
        with pytest.raises(ValueError):
            export.write_chrome_trace([], str(tmp_path / "bad.json"))


class TestJsonl:
    def test_one_object_per_span(self, collector, tmp_path):
        path = tmp_path / "spans.jsonl"
        written = write_jsonl(collector.traces, str(path))
        lines = path.read_text().splitlines()
        assert written == len(lines) == collector.span_count()
        record = json.loads(lines[0])
        for key in ("trace", "span", "start", "end", "category", "parent"):
            assert key in record

    def test_to_jsonl_parses(self, collector):
        for line in to_jsonl(collector.traces):
            json.loads(line)


class TestTimeline:
    def test_waterfall_shows_hops_and_sum(self, collector):
        trace = collector.traces[0]
        text = render_waterfall(trace)
        for hop in trace.hops:
            assert hop.name in text
        assert "sum" in text
        assert "end-to-end" in text

    def test_attribution_mentions_broker_and_fidelity(self, collector):
        text = render_attribution(collector.traces[0])
        assert "at broker broker:web" in text
        assert "full-fidelity" in text

    def test_critical_path_descends_along_longest_children(self, collector):
        path = critical_path(collector.traces[0])
        assert path[0].name == "request"
        for parent, child in zip(path, path[1:]):
            assert child in parent.children
        # Stops at a leaf or where only zero-width children remain.
        tail = path[-1]
        assert not tail.children or all(
            child.duration <= 0 for child in tail.children
        )

    def test_render_trace_combines_sections(self, collector):
        text = render_trace(collector.traces[0], events=True)
        assert "critical path:" in text
        assert "sum" in text


def _telemetry_scraper():
    """A scraper with counters, a gauge, and a watched histogram."""
    from repro.metrics import MetricsRegistry
    from repro.obs import TelemetryScraper
    from repro.sim import Simulation

    sim = Simulation(seed=9)
    registry = MetricsRegistry()
    hist = registry.histogram_handle("app.latency")

    def ticker():
        while True:
            yield 0.5
            registry.increment("app.requests")
            hist.add(0.05)

    sim.process(ticker(), name="ticker")
    scraper = TelemetryScraper(interval=1.0).attach(sim)
    scraper.watch_registry(registry, prefix="app.")
    scraper.add_gauge("depth", lambda: 3.0)
    scraper.start(until=5.0)
    sim.run(until=5.0)
    return scraper


class TestTelemetryJsonl:
    def test_round_trip_validates_clean(self):
        from repro.obs import telemetry_to_jsonl, validate_telemetry_jsonl

        lines = telemetry_to_jsonl(_telemetry_scraper())
        assert validate_telemetry_jsonl(lines) == []
        header = json.loads(lines[0])
        assert header["kind"] == "header"
        assert header["schema"] == 1
        assert header["retained"] == len(lines) - 1

    def test_scrape_lines_carry_all_sections(self):
        from repro.obs import telemetry_to_jsonl

        lines = telemetry_to_jsonl(_telemetry_scraper())
        record = json.loads(lines[1])
        assert record["kind"] == "scrape"
        assert "app.requests" in record["counters"]
        assert "depth" in record["gauges"]
        assert any(".p99." in k for k in record["percentiles"])

    def test_write_creates_file_and_returns_line_count(self, tmp_path):
        from repro.obs import validate_telemetry_jsonl, write_telemetry_jsonl

        path = tmp_path / "t.jsonl"
        written = write_telemetry_jsonl(_telemetry_scraper(), path)
        lines = path.read_text().splitlines()
        assert written == len(lines)
        assert validate_telemetry_jsonl(lines) == []

    def test_validator_rejects_missing_header(self):
        from repro.obs import validate_telemetry_jsonl

        problems = validate_telemetry_jsonl(
            ['{"kind": "scrape", "t": 1, "counters": {}, '
             '"gauges": {}, "percentiles": {}}']
        )
        assert any("header" in p for p in problems)

    def test_validator_rejects_unknown_schema(self):
        from repro.obs import validate_telemetry_jsonl

        problems = validate_telemetry_jsonl(
            ['{"kind": "header", "schema": 99, "interval": 1.0}']
        )
        assert any("schema" in p for p in problems)

    def test_validator_rejects_non_increasing_t(self):
        from repro.obs import validate_telemetry_jsonl

        scrape = (
            '{"kind": "scrape", "t": %d, "counters": {}, '
            '"gauges": {}, "percentiles": {}}'
        )
        problems = validate_telemetry_jsonl(
            [
                '{"kind": "header", "schema": 1, "interval": 1.0}',
                scrape % 2,
                scrape % 1,
            ]
        )
        assert any("does not increase" in p for p in problems)

    def test_validator_rejects_null_counter_and_bad_json(self):
        from repro.obs import validate_telemetry_jsonl

        problems = validate_telemetry_jsonl(
            [
                '{"kind": "header", "schema": 1, "interval": 1.0}',
                '{"kind": "scrape", "t": 1, "counters": {"x": null}, '
                '"gauges": {}, "percentiles": {"p": null}}',
                "not json",
            ]
        )
        assert any("is null" in p for p in problems)
        assert any("invalid JSON" in p for p in problems)
        # A percentile null is legal, so exactly those two problems.
        assert len(problems) == 2


class TestPrometheus:
    def test_snapshot_validates_clean(self):
        from repro.obs import to_prometheus, validate_prometheus

        text = to_prometheus(_telemetry_scraper())
        assert validate_prometheus(text) == []

    def test_names_are_sanitized_under_repro_prefix(self):
        from repro.obs import to_prometheus

        text = to_prometheus(_telemetry_scraper())
        assert "repro_app_requests" in text
        assert "# TYPE repro_app_requests counter" in text
        assert "# TYPE repro_depth gauge" in text

    def test_histogram_buckets_are_cumulative_with_inf(self):
        from repro.obs import to_prometheus

        text = to_prometheus(_telemetry_scraper())
        buckets = [
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_app_latency_bucket")
        ]
        assert buckets == sorted(buckets)
        assert 'le="+Inf"' in text
        count = next(
            float(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_app_latency_count")
        )
        assert buckets[-1] == count

    def test_write_prometheus_creates_file(self, tmp_path):
        from repro.obs import validate_prometheus, write_prometheus

        path = tmp_path / "snap.prom"
        text = write_prometheus(_telemetry_scraper(), path)
        assert path.read_text() == text
        assert validate_prometheus(text) == []

    def test_validator_rejects_malformed_lines(self):
        from repro.obs import validate_prometheus

        problems = validate_prometheus(
            "# TYPE bad kind\n9metric 1.0\ngood_metric notanumber\n"
        )
        assert len(problems) >= 3
