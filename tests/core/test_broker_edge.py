"""Edge cases of the broker: intensity gates, malformed input, stats."""

from __future__ import annotations

import pytest

from repro.core import (
    BrokerClient,
    HttpAdapter,
    QoSPolicy,
    ReplyStatus,
    ServiceBroker,
)
from repro.http import BackendWebServer


@pytest.fixture
def rate_limited_stack(sim, net):
    node = net.node("web")
    server = BackendWebServer(sim, net.node("origin"), max_clients=8)
    server.add_cgi("/x", lambda server, request: "payload")
    broker = ServiceBroker(
        sim,
        node,
        service="web",
        adapters=[HttpAdapter(sim, node, server.address)],
        qos=QoSPolicy(
            levels=2,
            threshold=1000,
            rate_limits={2: 10.0},  # class 2 contracted to 10 req/s
        ),
    )
    client = BrokerClient(sim, node, {"web": broker.address})
    return broker, client


class TestIntensityGateEndToEnd:
    def test_class_exceeding_contract_is_shed(self, sim, rate_limited_stack):
        broker, client = rate_limited_stack
        statuses = {1: [], 2: []}

        def one(qos):
            reply = yield from client.call(
                "web", "get", ("/x", {}), qos_level=qos, cacheable=False
            )
            statuses[qos].append(reply.status)

        def driver():
            # 40 class-2 requests in one second: 4x its contract.
            for i in range(40):
                sim.process(one(2))
                sim.process(one(1))
                yield sim.timeout(0.025)

        sim.process(driver())
        sim.run()
        dropped_2 = sum(1 for s in statuses[2] if s is ReplyStatus.DROPPED)
        dropped_1 = sum(1 for s in statuses[1] if s is ReplyStatus.DROPPED)
        assert dropped_2 > 10, "over-contract class must be shed"
        assert dropped_1 == 0, "other classes are not affected"
        assert (
            broker.metrics.counter("admission.rejected.intensity.qos2") == dropped_2
        )


class TestBrokerRobustness:
    def test_malformed_datagram_ignored(self, sim, net, rate_limited_stack):
        broker, _client = rate_limited_stack
        stranger = net.node("stranger").datagram_socket()
        stranger.sendto({"not": "a request"}, broker.address)
        stranger.sendto(42, broker.address)
        sim.run()
        assert broker.metrics.counter("broker.malformed") == 2
        assert broker.outstanding == 0

    def test_drop_ratio_zero_without_arrivals(self, sim, rate_limited_stack):
        broker, _client = rate_limited_stack
        assert broker.drop_ratio(1) == 0.0

    def test_qos_level_clamped(self, sim, rate_limited_stack):
        broker, client = rate_limited_stack

        def run():
            high = yield from client.call(
                "web", "get", ("/x", {}), qos_level=99, cacheable=False
            )
            low = yield from client.call(
                "web", "get", ("/x", {}), qos_level=-3, cacheable=False
            )
            return high, low

        high, low = sim.run(sim.process(run()))
        assert high.status is ReplyStatus.OK
        assert low.status is ReplyStatus.OK
        # Clamped into 1..levels for accounting.
        assert broker.metrics.counter("broker.arrivals.qos2") == 1
        assert broker.metrics.counter("broker.arrivals.qos1") == 1

    def test_dispatcher_count_validation(self, sim, net):
        server = BackendWebServer(sim, net.node("o2"), max_clients=1)
        from repro.errors import BrokerError

        with pytest.raises(BrokerError):
            ServiceBroker(
                sim,
                net.node("w2"),
                service="web",
                adapters=[HttpAdapter(sim, net.node("w3"), server.address)],
                dispatchers=0,
            )

    def test_broker_requires_adapters(self, sim, net):
        from repro.errors import BrokerError

        with pytest.raises(BrokerError):
            ServiceBroker(sim, net.node("w4"), service="web", adapters=[])
