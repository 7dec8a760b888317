"""Failure injection: backends dying mid-flight.

The broker must degrade gracefully — answer affected requests with ERROR
replies, keep its accounting balanced, and recover when the backend
returns — because in the API model the same failures strand front-end
processes (the paper's §II hot-spot cascade).
"""

from __future__ import annotations

from repro.core import (
    BrokerClient,
    HttpAdapter,
    LeastOutstandingBalancer,
    QoSPolicy,
    ReplyStatus,
    ServiceBroker,
)
from repro.http import BackendWebServer


class TestBackendFailure:
    def test_backend_shutdown_yields_error_replies_and_recovery(self, sim, net):
        node = net.node("web")
        origin_node = net.node("origin")
        server = BackendWebServer(sim, origin_node, max_clients=2)

        def cgi(server, request):
            yield server.sim.timeout(0.1)
            return "ok"

        server.add_cgi("/work", cgi)
        broker = ServiceBroker(
            sim,
            node,
            service="web",
            adapters=[HttpAdapter(sim, node, server.address)],
            qos=QoSPolicy(levels=1, threshold=100),
            pool_size=2,
        )
        client = BrokerClient(sim, node, {"web": broker.address})
        statuses = []

        def caller(i, delay):
            yield sim.timeout(delay)
            reply = yield from client.call(
                "web", "get", ("/work", {"i": i}), cacheable=False
            )
            statuses.append((i, reply.status))

        def chaos():
            # Let a couple of requests succeed, then crash the server:
            # live sessions sever, new connections are refused, until a
            # fresh server binds and the adapter is repointed.
            yield sim.timeout(0.35)
            server.crash()
            yield sim.timeout(1.0)
            revived = BackendWebServer(
                sim, origin_node, port=8080, max_clients=2, name="revived"
            )
            revived.add_cgi("/work", cgi)
            broker.backends[0].adapter.address = revived.address

        sim.process(chaos())
        for i in range(10):
            sim.process(caller(i, 0.3 * i))
        sim.run()

        outcome = dict(statuses)
        assert outcome[0] is ReplyStatus.OK
        assert ReplyStatus.ERROR in outcome.values(), "outage must surface"
        assert outcome[9] is ReplyStatus.OK, "broker recovers after revival"
        # Accounting balanced: nothing leaked.
        assert broker.outstanding == 0
        assert len(broker.queue) == 0

    def test_replica_failover_via_balancer(self, sim, net):
        """With a replicated backend, killing one replica only costs the
        in-flight requests; the balancer routes around it."""
        node = net.node("web")
        servers = []
        for i in range(2):
            server = BackendWebServer(sim, net.node(f"r{i}"), max_clients=4)

            def cgi(server, request):
                yield server.sim.timeout(0.05)
                return "ok"

            server.add_cgi("/work", cgi)
            servers.append(server)
        broker = ServiceBroker(
            sim,
            node,
            service="web",
            adapters=[
                HttpAdapter(sim, node, s.address, name=f"r{i}")
                for i, s in enumerate(servers)
            ],
            qos=QoSPolicy(levels=1, threshold=1000),
            balancer=LeastOutstandingBalancer(),
            pool_size=2,
        )
        client = BrokerClient(sim, node, {"web": broker.address})
        statuses = []

        def caller(i):
            yield sim.timeout(0.02 * i)
            reply = yield from client.call(
                "web", "get", ("/work", {"i": i}), cacheable=False
            )
            statuses.append(reply.status)

        def kill_r0():
            yield sim.timeout(0.3)
            servers[0].crash()

        sim.process(kill_r0())
        for i in range(40):
            sim.process(caller(i))
        sim.run()
        ok = sum(1 for s in statuses if s is ReplyStatus.OK)
        # The healthy replica keeps the service mostly available.
        assert ok >= 30
        assert servers[1].metrics.counter("http.requests") >= 20
        assert broker.outstanding == 0
