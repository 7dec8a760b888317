"""End-to-end tests of the ServiceBroker over the full stack."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import (
    BrokerClient,
    DatabaseAdapter,
    HttpAdapter,
    LatencyAwareBalancer,
    QoSPolicy,
    ReplyStatus,
    ResultCache,
    ServiceBroker,
    TransactionTracker,
)
from repro.db import Database, DatabaseServer
from repro.http import BackendWebServer


@pytest.fixture
def db_backend(sim, net):
    database = Database()
    table = database.create_table("kv", [("k", int), ("v", str)])
    for i in range(2000):
        table.insert((i, f"v{i}"))
    table.create_index("k")
    return DatabaseServer(sim, net.node("dbhost"), database, max_workers=4)


def make_broker(sim, net, db_backend, **kwargs):
    node = net.node("webhost")
    defaults = dict(
        service="db",
        adapters=[DatabaseAdapter(sim, node, db_backend.address, name="db0")],
        qos=QoSPolicy(levels=3, threshold=12),
        pool_size=2,
    )
    defaults.update(kwargs)
    broker = ServiceBroker(sim, node, **defaults)
    client = BrokerClient(sim, node, {"db": broker.address})
    return broker, client


class TestBrokerBasics:
    def test_query_through_broker(self, sim, net, db_backend):
        broker, client = make_broker(sim, net, db_backend)

        def run():
            reply = yield from client.call("db", "query", "SELECT v FROM kv WHERE k = 5")
            return reply

        reply = sim.run(sim.process(run()))
        assert reply.status is ReplyStatus.OK
        assert reply.payload.rows == (("v5",),)
        assert reply.fidelity == 1.0
        assert broker.metrics.counter("broker.served") == 1

    def test_unknown_service_is_error_reply(self, sim, net, db_backend):
        broker, client = make_broker(sim, net, db_backend)
        client.add_route("ghost", broker.address)

        def run():
            reply = yield from client.call("ghost", "query", "SELECT 1")
            return reply

        reply = sim.run(sim.process(run()))
        assert reply.status is ReplyStatus.ERROR
        assert "unknown service" in reply.error

    def test_backend_query_error_propagates(self, sim, net, db_backend):
        broker, client = make_broker(sim, net, db_backend)

        def run():
            reply = yield from client.call("db", "query", "SELECT nope FROM missing")
            return reply

        reply = sim.run(sim.process(run()))
        assert reply.status is ReplyStatus.ERROR
        assert "missing" in reply.error
        assert broker.outstanding == 0  # bookkeeping balanced

    def test_persistent_connections_reused(self, sim, net, db_backend):
        broker, client = make_broker(sim, net, db_backend)

        def run():
            for i in range(10):
                yield from client.call(
                    "db", "query", f"SELECT v FROM kv WHERE k = {i}", cacheable=False
                )

        sim.run(sim.process(run()))
        # Sequential calls reuse one pooled connection.
        assert db_backend.metrics.counter("db.connections") == 1
        assert db_backend.metrics.counter("db.queries") == 10


class TestBrokerCaching:
    def test_cache_hit_skips_backend(self, sim, net, db_backend):
        cache = ResultCache(capacity=64, ttl=60, clock=lambda: sim.now)
        broker, client = make_broker(sim, net, db_backend, cache=cache)

        def run():
            first = yield from client.call("db", "query", "SELECT v FROM kv WHERE k = 1")
            second = yield from client.call("db", "query", "SELECT v FROM kv WHERE k = 1")
            return first, second

        first, second = sim.run(sim.process(run()))
        assert not first.from_cache
        assert second.from_cache
        assert second.payload.rows == first.payload.rows
        assert db_backend.metrics.counter("db.queries") == 1

    def test_uncacheable_requests_bypass_cache(self, sim, net, db_backend):
        cache = ResultCache(capacity=64, ttl=60, clock=lambda: sim.now)
        broker, client = make_broker(sim, net, db_backend, cache=cache)

        def run():
            for _ in range(3):
                yield from client.call(
                    "db", "query", "SELECT v FROM kv WHERE k = 1", cacheable=False
                )

        sim.run(sim.process(run()))
        assert db_backend.metrics.counter("db.queries") == 3

    def test_cache_expiry_refetches(self, sim, net, db_backend):
        cache = ResultCache(capacity=64, ttl=1.0, clock=lambda: sim.now)
        broker, client = make_broker(sim, net, db_backend, cache=cache)

        def run():
            yield from client.call("db", "query", "SELECT v FROM kv WHERE k = 1")
            yield sim.timeout(5.0)
            reply = yield from client.call("db", "query", "SELECT v FROM kv WHERE k = 1")
            return reply

        reply = sim.run(sim.process(run()))
        assert not reply.from_cache
        assert db_backend.metrics.counter("db.queries") == 2


class TestBrokerQoS:
    def test_overload_drops_are_class_ordered(self, sim, net, db_backend):
        broker, client = make_broker(sim, net, db_backend)
        statuses = []

        def one(i, qos):
            reply = yield from client.call(
                "db",
                "query",
                f"SELECT COUNT(*) FROM kv WHERE v != 'none{i}'",  # full scan
                qos_level=qos,
                cacheable=False,
            )
            statuses.append((qos, reply.status))

        for i in range(45):
            sim.process(one(i, 1 + i % 3))
        sim.run()
        dropped = Counter(q for q, s in statuses if s is ReplyStatus.DROPPED)
        served = Counter(q for q, s in statuses if s is ReplyStatus.OK)
        assert dropped[3] >= dropped[2] >= dropped[1]
        assert served[1] >= served[3]
        assert broker.drop_ratio(3) >= broker.drop_ratio(1)

    def test_degraded_reply_from_stale_cache(self, sim, net, db_backend):
        cache = ResultCache(capacity=64, ttl=0.5, clock=lambda: sim.now)
        broker, client = make_broker(
            sim, net, db_backend, cache=cache, qos=QoSPolicy(levels=3, threshold=3)
        )
        outcome = {}

        def warm():
            yield from client.call("db", "query", "SELECT v FROM kv WHERE k = 9")

        def flood_and_probe():
            yield sim.process(warm())
            yield sim.timeout(2.0)  # cache entry goes stale
            # Saturate the broker with slow scans...
            for i in range(6):
                sim.process(
                    client.call(
                        "db",
                        "query",
                        f"SELECT COUNT(*) FROM kv WHERE v != '{i}'",
                        cacheable=False,
                    )
                )
            yield sim.timeout(0.001)
            # ...then a level-3 request for the stale key gets a degraded reply.
            reply = yield from client.call(
                "db", "query", "SELECT v FROM kv WHERE k = 9", qos_level=3
            )
            outcome["reply"] = reply

        sim.run(sim.process(flood_and_probe()))
        reply = outcome["reply"]
        assert reply.status is ReplyStatus.DEGRADED
        assert reply.from_cache
        assert reply.payload.rows == (("v9",),)
        assert 0 < reply.fidelity < 1

    def test_priority_queueing_serves_high_class_first(self, sim, net, db_backend):
        broker, client = make_broker(
            sim,
            net,
            db_backend,
            qos=QoSPolicy(levels=3, threshold=1000),
            dispatchers=1,
            pool_size=1,
        )
        completion_order = []

        def one(i, qos):
            # A later-arriving high-priority request should overtake
            # earlier low-priority ones in the queue.
            yield sim.timeout(0.001 * i)
            reply = yield from client.call(
                "db",
                "query",
                f"SELECT COUNT(*) FROM kv WHERE v != 'x{i}'",
                qos_level=qos,
                cacheable=False,
            )
            completion_order.append((qos, i))

        for i in range(6):
            sim.process(one(i, qos=3))
        sim.process(one(6, qos=1))
        sim.run()
        position_of_high = [q for q, _ in completion_order].index(1)
        assert position_of_high <= 2  # jumped ahead of most level-3 work


class TestBrokerTransactions:
    def test_late_step_requests_survive_overload(self, sim, net, db_backend):
        tracker = TransactionTracker(escalation_per_step=1, protect_from_step=3)
        broker, client = make_broker(
            sim,
            net,
            db_backend,
            qos=QoSPolicy(levels=3, threshold=6),
            transactions=tracker,
        )
        results = {}

        def flood():
            for i in range(12):
                sim.process(
                    client.call(
                        "db",
                        "query",
                        f"SELECT COUNT(*) FROM kv WHERE v != 'f{i}'",
                        qos_level=2,
                        cacheable=False,
                    )
                )
            yield sim.timeout(0.001)
            step1 = yield from client.call(
                "db", "query", "SELECT v FROM kv WHERE k = 1",
                qos_level=3, txn_id="order-1", txn_step=1, cacheable=False,
            )
            step3 = yield from client.call(
                "db", "query", "SELECT v FROM kv WHERE k = 2",
                qos_level=3, txn_id="order-2", txn_step=3, cacheable=False,
            )
            results["step1"] = step1.status
            results["step3"] = step3.status

        sim.run(sim.process(flood()))
        # The step-1 access is shed; the protected step-3 access is not.
        assert results["step1"] is ReplyStatus.DROPPED
        assert results["step3"] is ReplyStatus.OK


class TestBrokerReplication:
    def test_load_balancing_spreads_work(self, sim, net):
        node = net.node("webhost")
        backends = []
        for i in range(3):
            server = BackendWebServer(sim, net.node(f"w{i}"), max_clients=4)

            def cgi(server, request):
                yield server.sim.timeout(0.05)
                return "ok"

            server.add_cgi("/work", cgi)
            backends.append(server)
        broker = ServiceBroker(
            sim,
            node,
            service="web",
            adapters=[
                HttpAdapter(sim, node, b.address, name=f"w{i}")
                for i, b in enumerate(backends)
            ],
            qos=QoSPolicy(levels=1, threshold=10_000),
            balancer=LatencyAwareBalancer(),
            pool_size=2,
        )
        client = BrokerClient(sim, node, {"web": broker.address})

        def one(i):
            yield from client.call("web", "get", ("/work", {"i": i}), cacheable=False)

        for i in range(60):
            sim.process(one(i))
        sim.run()
        counts = [b.metrics.counter("http.requests") for b in backends]
        assert sum(counts) == 60
        assert min(counts) >= 10  # no backend starved
