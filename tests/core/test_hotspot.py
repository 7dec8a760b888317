"""Tests for hot-spot detection and the front-end gate."""

from __future__ import annotations

import pytest

from repro.core import (
    BrokerClient,
    HotSpotGate,
    HotSpotMonitor,
    HotSpotNotice,
    HttpAdapter,
    QoSPolicy,
    ResourceProfileRegistry,
    ServiceBroker,
)
from repro.errors import BrokerError
from repro.http import BackendWebServer, HttpRequest


@pytest.fixture
def slow_stack(sim, net):
    """A capacity-2, 1-second backend behind a threshold-10 broker."""
    node = net.node("web")
    server = BackendWebServer(sim, net.node("origin"), max_clients=2)

    def slow_cgi(server, request):
        yield server.sim.timeout(1.0)
        return "ok"

    server.add_cgi("/slow", slow_cgi)
    broker = ServiceBroker(
        sim,
        node,
        service="slow",
        adapters=[HttpAdapter(sim, node, server.address)],
        qos=QoSPolicy(levels=1, threshold=10),
        pool_size=2,
    )
    client = BrokerClient(sim, node, {"slow": broker.address})
    return node, broker, client


class TestHotSpotMonitor:
    def test_validation(self, sim, slow_stack):
        _node, broker, _client = slow_stack
        with pytest.raises(BrokerError):
            HotSpotMonitor(broker, onset_fraction=0.4, clear_fraction=0.5)
        with pytest.raises(BrokerError):
            HotSpotMonitor(broker, poll_interval=0)

    def test_onset_and_clear_with_hysteresis(self, sim, slow_stack):
        node, broker, client = slow_stack
        monitor = HotSpotMonitor(
            broker, onset_fraction=0.8, clear_fraction=0.3, poll_interval=0.01
        )
        sock = node.datagram_socket()
        monitor.subscribe(sock.address)
        notices = []

        def listen():
            while True:
                envelope = yield sock.recv()
                notices.append(envelope.payload)

        sim.process(listen())

        def load():
            for i in range(9):
                sim.process(
                    client.call("slow", "get", ("/slow", {"i": i}), cacheable=False)
                )
            yield sim.timeout(0.0)

        sim.process(load())
        sim.run(until=10.0)
        assert monitor.metrics.counter("hotspot.onsets") == 1
        assert monitor.metrics.counter("hotspot.clears") == 1
        assert [n.hot for n in notices] == [True, False]
        assert notices[0].service == "slow"
        assert notices[0].outstanding >= 8

    def test_no_flapping_within_band(self, sim, slow_stack):
        node, broker, client = slow_stack
        monitor = HotSpotMonitor(
            broker, onset_fraction=0.8, clear_fraction=0.3, poll_interval=0.01
        )

        def steady_medium_load():
            # Keep outstanding around 4-6: above clear, below onset.
            for wave in range(5):
                for i in range(5):
                    sim.process(
                        client.call(
                            "slow", "get", ("/slow", {"w": wave, "i": i}),
                            cacheable=False,
                        )
                    )
                yield sim.timeout(2.5)

        sim.process(steady_medium_load())
        sim.run(until=15.0)
        assert monitor.metrics.counter("hotspot.onsets") == 0
        assert monitor.metrics.counter("hotspot.clears") == 0


class TestHotSpotGate:
    def test_gate_rejects_while_hot(self, sim, net, slow_stack):
        node, broker, client = slow_stack
        monitor = HotSpotMonitor(
            broker, onset_fraction=0.7, clear_fraction=0.3, poll_interval=0.01
        )
        profiles = ResourceProfileRegistry()
        profiles.register("/page", ["slow"])
        gate = HotSpotGate(sim, node, profiles)
        monitor.subscribe(gate.address)

        decisions = {}

        def scenario():
            request = HttpRequest(method="GET", path="/page")
            decisions["before"] = gate.admit(request)[0]
            for i in range(9):
                sim.process(
                    client.call("slow", "get", ("/slow", {"i": i}), cacheable=False)
                )
            yield sim.timeout(0.1)
            decisions["during"] = gate.admit(request)[0]
            decisions["hot"] = "slow" in gate.hot_services
            yield sim.timeout(8.0)  # backlog drains, clear notice arrives
            decisions["after"] = gate.admit(request)[0]

        sim.run(sim.process(scenario()))
        assert decisions == {
            "before": True,
            "during": False,
            "hot": True,
            "after": True,
        }

    def test_unprofiled_paths_unaffected(self, sim, net, slow_stack):
        node, _broker, _client = slow_stack
        gate = HotSpotGate(sim, node, ResourceProfileRegistry())
        gate.hot_services["slow"] = HotSpotNotice("slow", "b", True, 9, 10, 0.0)
        assert gate.admit(HttpRequest(method="GET", path="/other"))[0] is True

    def test_malformed_notices_counted(self, sim, net, slow_stack):
        node, _broker, _client = slow_stack
        gate = HotSpotGate(sim, node, ResourceProfileRegistry())
        sender = net.node("x").datagram_socket()
        sender.sendto("garbage", gate.address)
        sim.run()
        assert gate.metrics.counter("gate.malformed") == 1
