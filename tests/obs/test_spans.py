"""Tests for span-based request tracing."""

from __future__ import annotations

import gc
import types

import pytest

from repro.core import (
    BrokerClient,
    HttpAdapter,
    QoSPolicy,
    ReplyStatus,
    ServiceBroker,
)
from repro.http import BackendWebServer
from repro.obs import Span, TraceCollector
from repro.workload import run_clustering_experiment, run_qos_experiment, scenarios


def reachable(root, skip=()):
    """Count objects reachable from *root* via ``gc.get_referents``.

    Objects reachable from *skip* are left out, and so are numbers
    (a histogram count past 256 is a new ``int`` object, not new
    state) and the shared code objects: types, modules and functions.
    """
    opaque = (type, types.ModuleType, types.FunctionType, int, float)
    seen = set()

    def walk(start):
        count = 0
        stack = list(start)
        while stack:
            obj = stack.pop()
            if id(obj) in seen or isinstance(obj, opaque):
                continue
            seen.add(id(obj))
            count += 1
            stack.extend(gc.get_referents(obj))
        return count

    walk(skip)
    return walk([root])


def run_broker_scenario(sim, net, collector, n_requests=8, service_time=0.05):
    """One broker over one backend; *n_requests* staggered calls."""
    collector.attach(sim)
    node = net.node("web")
    server = BackendWebServer(sim, net.node("origin"), max_clients=2)

    def cgi(server, request):
        yield server.sim.timeout(service_time)
        return "ok"

    server.add_cgi("/s", cgi)
    broker = ServiceBroker(
        sim,
        node,
        service="web",
        adapters=[HttpAdapter(sim, node, server.address)],
        qos=QoSPolicy(levels=3, threshold=100),
        pool_size=2,
    )
    client = BrokerClient(sim, node, {"web": broker.address})
    statuses = []

    def one(i):
        yield sim.timeout(0.01 * i)
        reply = yield from client.call(
            "web", "get", ("/s", {"i": i}), qos_level=(i % 3) + 1, cacheable=False
        )
        statuses.append(reply.status)

    for i in range(n_requests):
        sim.process(one(i))
    sim.run()
    assert all(status is ReplyStatus.OK for status in statuses)
    return broker



def find_span(trace, name):
    """The first span of *trace* (pre-order) called *name*, if any."""
    return next((span for span in trace.spans() if span.name == name), None)

class TestSpanTree:
    def test_all_spans_closed_and_nested(self, sim, net):
        collector = TraceCollector()
        run_broker_scenario(sim, net, collector)
        assert len(collector) == 8
        for trace in collector.traces:
            assert trace.validate() == []
            for span in trace.spans():
                assert span.end is not None
                assert span.end >= span.start
                # No span closes before its children (the invariant
                # validate() checks, asserted directly here).
                for child in span.children:
                    assert child.end <= span.end + 1e-9

    def test_expected_spans_present(self, sim, net):
        collector = TraceCollector()
        run_broker_scenario(sim, net, collector)
        trace = collector.traces[0]
        for name in ("net.request", "queue", "net.reply", "stage.execute"):
            assert find_span(trace, name) is not None, name
        broker_span = find_span(trace, "broker:web")
        assert broker_span is not None
        assert any(c.name.startswith("stage.") for c in broker_span.walk())

    def test_hops_sum_to_end_to_end_latency(self, sim, net):
        collector = TraceCollector()
        run_broker_scenario(sim, net, collector)
        for trace in collector.traces:
            total = sum(hop.duration for hop in trace.hops)
            assert total == pytest.approx(trace.duration, abs=1e-9)
            # Hops telescope: consecutive hops share a boundary.
            for first, second in zip(trace.hops, trace.hops[1:]):
                assert first.end == pytest.approx(second.start, abs=1e-12)

    def test_trace_metadata(self, sim, net):
        collector = TraceCollector()
        run_broker_scenario(sim, net, collector)
        trace = collector.traces[0]
        assert trace.origin == "web"
        assert trace.broker == "broker:web"
        assert trace.status == "ok"
        assert trace.request_id is not None
        assert trace.qos_level in (1, 2, 3)


class TestCollector:
    def test_sampling_keeps_every_nth_root(self, sim, net):
        collector = TraceCollector(sample=3)
        run_broker_scenario(sim, net, collector, n_requests=9)
        assert collector.roots_seen == 9
        assert len(collector) == 3

    def test_limit_bounds_retention(self, sim, net):
        collector = TraceCollector(limit=2)
        run_broker_scenario(sim, net, collector, n_requests=5)
        assert len(collector) == 2
        assert collector.dropped == 3

    def test_histograms_fed_for_every_request(self, sim, net):
        collector = TraceCollector(sample=100)  # retain almost nothing
        run_broker_scenario(sim, net, collector, n_requests=6)
        assert len(collector) == 1
        histograms = collector.metrics.histograms("obs.")
        assert histograms["obs.latency.all"].count == 6
        assert histograms["obs.stage.execute"].count == 6
        by_backend = collector.metrics.histograms("obs.backend.")
        assert sum(h.count for h in by_backend.values()) == 6

    def test_slowest_ranked_descending(self, sim, net):
        collector = TraceCollector()
        run_broker_scenario(sim, net, collector)
        ranked = collector.slowest(3)
        assert len(ranked) == 3
        durations = [trace.duration for trace in ranked]
        assert durations == sorted(durations, reverse=True)

    def test_request_events_land_on_the_root_span(self, sim, net):
        collector = TraceCollector()
        run_broker_scenario(sim, net, collector)
        for trace in collector.traces:
            names = [event.name for event in trace.root.events]
            assert names[0] == "broker.arrival"
            assert names[-1] == "pipeline.complete"
            times = [event.time for event in trace.root.events]
            assert times == sorted(times)
            arrival = trace.root.events[0]
            assert arrival.fields["request_id"] == trace.request_id
            # Stamped with the simulated time the broker received it.
            broker = next(s for s in trace.spans() if s.category == "broker")
            assert arrival.time == broker.start
            # Events are consumed, never leaked as trace annotations.
            assert "obs.events" not in trace.annotations
            for span in trace.spans()[1:]:
                assert span.events == []

    def test_state_is_bounded_by_retained_traces_not_requests(self):
        """The collector ``repro telemetry --scenario qos`` attaches.

        Four times the simulated time (and requests) must not grow what
        the collector holds beyond its retained traces: it keeps
        histograms with fixed buckets and at most ``limit`` traces,
        never a per-request event log.
        """
        held, roots = [], []
        for duration in (20.0, 80.0):
            collector = TraceCollector(sample=1000, limit=64)
            run_qos_experiment(
                12, mode="broker", duration=duration, seed=2026, obs=collector
            )
            held.append(reachable(collector, skip=[collector.traces]))
            roots.append(collector.roots_seen)
        assert roots[1] >= 4 * roots[0]
        # A histogram first fed late may add a few objects; a
        # per-request event log would add thousands.
        assert held[1] - held[0] < 100, held

    def test_validation(self):
        with pytest.raises(ValueError):
            TraceCollector(sample=0)
        with pytest.raises(ValueError):
            TraceCollector(limit=0)


def overload_broker(sim, net):
    """One single-threaded broker with admission threshold 2, five calls."""
    node = net.node("web")
    server = BackendWebServer(sim, net.node("origin"), max_clients=1)

    def slow_cgi(server, request):
        yield server.sim.timeout(0.5)
        return "ok"

    server.add_cgi("/s", slow_cgi)
    broker = ServiceBroker(
        sim,
        node,
        service="web",
        adapters=[HttpAdapter(sim, node, server.address)],
        qos=QoSPolicy(levels=1, threshold=2),
        pool_size=1,
    )
    client = BrokerClient(sim, node, {"web": broker.address})
    contexts = []

    def one(i):
        reply = yield from client.call(
            "web", "get", ("/s", {"i": i}), cacheable=False
        )
        contexts.append(reply.context)

    for i in range(5):
        sim.process(one(i))
    sim.run()
    return contexts


class TestRequestEvents:
    def test_broker_notes_arrival_dispatch_drop(self, sim, net):
        collector = TraceCollector().attach(sim)
        overload_broker(sim, net)
        names = [
            event.name for trace in collector.traces for event in trace.root.events
        ]
        assert names.count("broker.arrival") == 5
        assert names.count("pipeline.complete") == 5
        assert {"broker.dispatch", "broker.drop"} <= set(names)

    def test_no_events_without_collector(self, sim, net):
        contexts = overload_broker(sim, net)
        assert len(contexts) == 5
        assert all("obs.events" not in ctx.annotations for ctx in contexts)


class TestParentChildTraces:
    def test_frontend_trace_nests_broker_calls(self, monkeypatch):
        monkeypatch.setattr(scenarios, "_FIG7_REQUESTS", 6)
        collector = TraceCollector()
        run_clustering_experiment(2, seed=7, obs=collector)
        assert collector.roots_seen == 6
        with_children = [t for t in collector.traces if t.children]
        assert with_children, "front-end traces should nest broker calls"
        for trace in with_children:
            assert trace.validate() == []
            child = trace.children[0]
            assert child.broker == "clustering-broker"
            # The child's root span is part of the parent's span tree.
            assert child.root in trace.spans()
            total = sum(hop.duration for hop in trace.hops)
            assert total == pytest.approx(trace.duration, abs=1e-9)


class TestDeterminism:
    def test_tracing_does_not_perturb_seeded_results(self):
        baseline = run_qos_experiment(6, mode="broker", duration=8.0, seed=5)
        traced = run_qos_experiment(
            6, mode="broker", duration=8.0, seed=5, obs=TraceCollector()
        )
        assert traced.completions == baseline.completions
        assert traced.full_fidelity == baseline.full_fidelity
        for level in baseline.response_times:
            assert traced.response_times[level].mean == pytest.approx(
                baseline.response_times[level].mean, abs=0.0
            )


class TestSpanPrimitives:
    def test_contains_and_walk(self):
        outer = Span("outer", "x", 0.0, 10.0)
        inner = Span("inner", "x", 2.0, 4.0)
        outer.add_child(inner)
        assert outer.contains(inner)
        assert not inner.contains(outer)
        assert [s.name for s in outer.walk()] == ["outer", "inner"]
        assert inner.parent is outer
        assert inner.duration == pytest.approx(2.0)
