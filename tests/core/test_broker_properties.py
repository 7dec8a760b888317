"""Property-based tests of broker-level invariants.

Hypothesis drives randomized (but deterministic per example) request
schedules through a real broker stack and asserts the invariants the
evaluation relies on: request conservation, class-ordered cumulative
drops, and reply addressing.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BrokerClient,
    HttpAdapter,
    QoSPolicy,
    ReplyStatus,
    ServiceBroker,
)
from repro.http import BackendWebServer
from repro.net import Link, Network
from repro.sim import Simulation

# One scheduled request: (qos level, arrival gap in ms).
request_schedule = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=50),
    ),
    min_size=1,
    max_size=40,
)


def run_schedule(schedule, threshold=6, service_time=0.05):
    sim = Simulation(seed=1234)
    net = Network(sim, default_link=Link.lan())
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
        qos=QoSPolicy(levels=3, threshold=threshold),
        pool_size=2,
        priority_queueing=False,
    )
    client = BrokerClient(sim, node, {"web": broker.address})
    replies = []

    def one(index, qos):
        reply = yield from client.call(
            "web", "get", ("/s", {"i": index}), qos_level=qos, cacheable=False
        )
        replies.append((qos, reply))

    def driver():
        for index, (qos, gap_ms) in enumerate(schedule):
            yield sim.timeout(gap_ms / 1000.0)
            sim.process(one(index, qos))

    sim.process(driver())
    sim.run()
    return broker, replies


class TestBrokerInvariants:
    @given(request_schedule)
    @settings(max_examples=25, deadline=None)
    def test_every_request_answered_exactly_once(self, schedule):
        broker, replies = run_schedule(schedule)
        assert len(replies) == len(schedule)
        ids = [reply.request_id for _, reply in replies]
        assert len(set(ids)) == len(ids)
        assert broker.outstanding == 0
        assert len(broker.queue) == 0

    @given(request_schedule)
    @settings(max_examples=25, deadline=None)
    def test_arrivals_equal_served_plus_dropped(self, schedule):
        broker, replies = run_schedule(schedule)
        metrics = broker.metrics
        assert metrics.counter("broker.arrivals") == len(schedule)
        assert metrics.counter("broker.arrivals") == (
            metrics.counter("broker.served")
            + metrics.counter("broker.drops")
            + metrics.counter("broker.backend_errors")
        )

    @given(request_schedule)
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_simultaneous_burst_drops_are_class_ordered(self, schedule):
        """Whatever state a schedule leaves the broker in, a burst of
        simultaneous probes arriving in class order 1..3 can only be
        dropped from some class downward: once a class-k probe is shed,
        every later probe of class >= k is shed too (monotone limits,
        monotone outstanding)."""
        sim = Simulation(seed=1234)
        net = Network(sim, default_link=Link.lan())
        node = net.node("web")
        server = BackendWebServer(sim, net.node("origin"), max_clients=2)

        def cgi(server, request):
            yield server.sim.timeout(0.05)
            return "ok"

        server.add_cgi("/s", cgi)
        broker = ServiceBroker(
            sim,
            node,
            service="web",
            adapters=[HttpAdapter(sim, node, server.address)],
            qos=QoSPolicy(levels=3, threshold=6),
            pool_size=2,
            priority_queueing=False,
        )
        client = BrokerClient(sim, node, {"web": broker.address})
        probe_statuses = []

        def one(index, qos, record=False):
            reply = yield from client.call(
                "web", "get", ("/s", {"i": index}), qos_level=qos, cacheable=False
            )
            if record:
                probe_statuses.append((qos, reply.status))

        def driver():
            for index, (qos, gap_ms) in enumerate(schedule):
                yield sim.timeout(gap_ms / 1000.0)
                sim.process(one(index, qos))
            # The probe burst: same instant, class order 1,1,2,2,3,3.
            for offset, qos in enumerate((1, 1, 2, 2, 3, 3)):
                sim.process(one(1000 + offset, qos, record=True))

        sim.process(driver())
        sim.run()
        assert len(probe_statuses) == 6
        dropped_classes = [q for q, s in probe_statuses if s is ReplyStatus.DROPPED]
        served_classes = [q for q, s in probe_statuses if s is not ReplyStatus.DROPPED]
        if dropped_classes and served_classes:
            assert min(dropped_classes) >= max(served_classes)
