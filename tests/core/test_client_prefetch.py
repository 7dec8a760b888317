"""Tests for BrokerClient (timeouts, parallel calls) and the Prefetcher."""

from __future__ import annotations

import pytest

from repro.core import (
    BrokerClient,
    HttpAdapter,
    Prefetcher,
    PrefetchRule,
    QoSPolicy,
    ReplyStatus,
    ResultCache,
    ServiceBroker,
)
from repro.errors import BrokerError, BrokerTimeout, UnknownServiceError
from repro.http import BackendWebServer
from repro.net import Address


@pytest.fixture
def web_stack(sim, net):
    """A slow-CGI backend behind a broker, plus a client."""
    node = net.node("webhost")
    server = BackendWebServer(sim, net.node("origin"), max_clients=4)
    state = {"hits": 0}

    def cgi(server, request):
        state["hits"] += 1
        yield server.sim.timeout(0.2)
        return f"result-{state['hits']}"

    server.add_cgi("/data", cgi)
    cache = ResultCache(capacity=16, ttl=0.5, clock=lambda: sim.now)
    broker = ServiceBroker(
        sim,
        node,
        service="web",
        adapters=[HttpAdapter(sim, node, server.address, name="origin")],
        qos=QoSPolicy(levels=1, threshold=1000),
        cache=cache,
    )
    client = BrokerClient(sim, node, {"web": broker.address})
    return broker, client, server, state


class TestBrokerClient:
    def test_unknown_service_raises(self, sim, web_stack):
        _broker, client, _server, _ = web_stack

        def run():
            yield from client.call("nowhere", "get", ("/x", {}))

        with pytest.raises(UnknownServiceError):
            sim.run(sim.process(run()))

    def test_timeout_raises_after_one_attempt(self, sim, net):
        node = net.node("lonely")
        client = BrokerClient(sim, node, {"void": Address("lonely", 9999)})

        def run():
            yield from client.call("void", "get", ("/x", {}), timeout=0.5)

        with pytest.raises(BrokerTimeout):
            sim.run(sim.process(run()))
        assert client.metrics.counter("client.timeouts") == 1
        assert client.metrics.counter("client.calls") == 1
        assert sim.now == pytest.approx(0.5)

    def test_call_parallel_overlaps_requests(self, sim, web_stack):
        _broker, client, _server, _ = web_stack

        def run():
            started = sim.now
            replies = yield from client.call_parallel(
                [
                    ("web", "get", ("/data", {"i": 1}), 1),
                    ("web", "get", ("/data", {"i": 2}), 1),
                    ("web", "get", ("/data", {"i": 3}), 1),
                ]
            )
            return replies, sim.now - started

        replies, elapsed = sim.run(sim.process(run()))
        assert len(replies) == 3
        assert all(r.status is ReplyStatus.OK for r in replies)
        # Three 0.2s CGI calls overlapped (the default pool holds 2
        # connections, so at most one waits): under the 0.6s serial time.
        assert elapsed < 0.5

    def test_reply_routing_by_request_id(self, sim, web_stack):
        _broker, client, _server, _ = web_stack
        results = {}

        def one(i):
            reply = yield from client.call(
                "web", "get", ("/data", {"i": i}), cacheable=False
            )
            results[i] = reply.request_id

        for i in range(5):
            sim.process(one(i))
        sim.run()
        assert len(set(results.values())) == 5


class TestPrefetcher:
    def test_prefetch_fills_cache_during_idle(self, sim, web_stack):
        broker, client, _server, state = web_stack
        Prefetcher(
            broker,
            [
                PrefetchRule(
                    operation="get",
                    payload=("/data", {}),
                    cache_key="web:get:('/data', {})",
                    period=0.3,
                )
            ],
        )
        replies = []

        def reader():
            # Let the prefetcher run a few cycles, then read.
            yield sim.timeout(1.0)
            reply = yield from client.call("web", "get", ("/data", {}))
            replies.append(reply)

        sim.process(reader())
        sim.run(until=1.5)
        assert replies[0].from_cache  # served without a backend trip
        assert broker.metrics.counter("prefetch.refreshes") >= 2

    def test_prefetch_defers_under_load(self, sim, web_stack):
        broker, client, _server, state = web_stack
        Prefetcher(
            broker,
            [
                PrefetchRule(
                    operation="get",
                    payload=("/data", {}),
                    cache_key="hot",
                    period=0.1,
                )
            ],
            idle_threshold=0,
        )

        def flood():
            # Keep the broker busy so prefetches are postponed or skipped.
            for i in range(40):
                sim.process(
                    client.call("web", "get", ("/data", {"i": i}), cacheable=False)
                )
                yield sim.timeout(0.05)

        sim.process(flood())
        sim.run(until=2.0)
        refreshes = broker.metrics.counter("prefetch.refreshes")
        skipped = broker.metrics.counter("prefetch.skipped_busy")
        assert skipped >= 1
        assert refreshes <= 6  # far fewer than the 20 periods elapsed

    def test_prefetcher_requires_cache(self, sim, net):
        node = net.node("webhost2")
        server = BackendWebServer(sim, net.node("origin2"), max_clients=1)
        broker = ServiceBroker(
            sim,
            node,
            service="web",
            adapters=[HttpAdapter(sim, node, server.address)],
            port=7105,
        )
        with pytest.raises(BrokerError):
            Prefetcher(broker, [])

    def test_rule_validation(self):
        with pytest.raises(BrokerError):
            PrefetchRule(operation="get", payload=(), cache_key="k", period=0)
