"""Tests for the connection pool and load balancers."""

from __future__ import annotations

from typing import List

import pytest

from repro.core import (
    BackendState,
    ConnectionPool,
    LatencyAwareBalancer,
    LeastOutstandingBalancer,
    RoundRobinBalancer,
)
from repro.core.adapters import ServiceAdapter
from repro.errors import BrokerError


class FakeConnection:
    def __init__(self, ident: int) -> None:
        self.ident = ident
        self.closed = False


class FakeAdapter(ServiceAdapter):
    """Adapter whose connect takes simulated time and counts calls."""

    def __init__(self, sim, connect_delay: float = 0.1) -> None:
        self.sim = sim
        self.name = "fake"
        self.connect_delay = connect_delay
        self.connects = 0

    def connect(self):
        yield self.sim.timeout(self.connect_delay)
        self.connects += 1
        return FakeConnection(self.connects)

    def execute(self, connection, operation, payload):
        yield self.sim.timeout(0.01)
        return payload

    def close(self, connection):
        connection.closed = True
        return
        yield  # pragma: no cover


class TestConnectionPool:
    def test_reuse_avoids_reconnect(self, sim):
        adapter = FakeAdapter(sim)
        pool = ConnectionPool(sim, adapter, max_size=2)

        def run():
            conn1 = yield from pool.acquire()
            pool.release(conn1)
            conn2 = yield from pool.acquire()
            pool.release(conn2)
            return conn1 is conn2

        assert sim.run(sim.process(run()))
        assert adapter.connects == 1
        assert pool.metrics.counter("pool.reused") == 1

    def test_max_size_enforced(self, sim):
        adapter = FakeAdapter(sim)
        pool = ConnectionPool(sim, adapter, max_size=2)
        held: List[FakeConnection] = []

        def holder():
            conn = yield from pool.acquire()
            held.append(conn)
            yield sim.timeout(1.0)
            pool.release(conn)

        def late():
            yield sim.timeout(0.5)
            started = sim.now
            conn = yield from pool.acquire()
            pool.release(conn)
            return sim.now - started

        for _ in range(2):
            sim.process(holder())
        waited = sim.run(sim.process(late()))
        assert adapter.connects == 2
        assert pool._count == 2
        assert waited > 0.4  # had to wait for a release

    def test_broken_idle_connection_replaced(self, sim):
        adapter = FakeAdapter(sim)
        pool = ConnectionPool(sim, adapter, max_size=1)

        def run():
            conn = yield from pool.acquire()
            pool.release(conn)
            conn.closed = True  # breaks while idle
            fresh = yield from pool.acquire()
            return fresh is not conn

        assert sim.run(sim.process(run()))
        assert adapter.connects == 2

    def test_discard_frees_capacity_for_waiter(self, sim):
        adapter = FakeAdapter(sim)
        pool = ConnectionPool(sim, adapter, max_size=1)
        outcomes = []

        def breaker():
            conn = yield from pool.acquire()
            yield sim.timeout(0.5)
            pool.release(conn, discard=True)

        def waiter():
            yield sim.timeout(0.1)
            conn = yield from pool.acquire()
            outcomes.append(conn.ident)
            pool.release(conn)

        sim.process(breaker())
        sim.process(waiter())
        sim.run()
        assert outcomes == [2]  # a fresh connection was created
        assert pool._count == 1

    def test_validation(self, sim):
        with pytest.raises(BrokerError):
            ConnectionPool(sim, FakeAdapter(sim), max_size=0)


def make_backends(sim, count: int) -> List[BackendState]:
    backends = []
    for i in range(count):
        adapter = FakeAdapter(sim)
        adapter.name = f"b{i}"
        backends.append(BackendState(adapter, ConnectionPool(sim, adapter)))
    return backends


class TestBalancers:
    def test_round_robin_cycles(self, sim):
        backends = make_backends(sim, 3)
        balancer = RoundRobinBalancer()
        picks = [balancer.pick(backends).name for _ in range(6)]
        assert picks == ["b0", "b1", "b2", "b0", "b1", "b2"]

    def test_least_outstanding_picks_idle(self, sim):
        backends = make_backends(sim, 3)
        backends[0].note_dispatch()
        backends[0].note_dispatch()
        backends[1].note_dispatch()
        assert LeastOutstandingBalancer().pick(backends).name == "b2"

    def test_latency_aware_probes_then_prefers_fast(self, sim):
        backends = make_backends(sim, 2)
        balancer = LatencyAwareBalancer()
        # Unprobed backends are tried first.
        assert balancer.pick(backends).name == "b0"
        backends[0].note_completion(1.0)
        assert balancer.pick(backends).name == "b1"
        backends[1].note_completion(0.1)
        # Now both probed: the faster one wins.
        assert balancer.pick(backends).name == "b1"

    def test_latency_aware_accounts_outstanding(self, sim):
        backends = make_backends(sim, 2)
        backends[0].note_completion(0.1)
        backends[1].note_completion(0.1)
        for _ in range(5):
            backends[1].note_dispatch()
        assert LatencyAwareBalancer().pick(backends).name == "b0"

    def test_empty_backends_raise(self, sim):
        with pytest.raises(BrokerError):
            RoundRobinBalancer().pick([])

    def test_ewma_updates(self, sim):
        backend = make_backends(sim, 1)[0]
        backend.note_completion(1.0)
        assert backend.ewma_latency == pytest.approx(1.0)
        backend.note_completion(0.0)
        assert backend.ewma_latency == pytest.approx(0.8)

    def test_error_completion_does_not_update_latency(self, sim):
        backend = make_backends(sim, 1)[0]
        backend.note_completion(1.0)
        backend.note_dispatch()
        backend.note_completion(99.0, error=True)
        assert backend.ewma_latency == pytest.approx(1.0)
        assert backend.errors == 1


class TestCircuitBreaking:
    def test_unhealthy_replica_skipped(self, sim):
        backends = make_backends(sim, 2)
        for _ in range(3):
            backends[0].note_dispatch()
            backends[0].note_completion(0.0, error=True)
        assert not backends[0].healthy
        balancer = RoundRobinBalancer()
        picks = {balancer.pick(backends).name for _ in range(4)}
        assert picks == {"b1"}

    def test_success_resets_streak(self, sim):
        backend = make_backends(sim, 1)[0]
        for _ in range(2):
            backend.note_dispatch()
            backend.note_completion(0.0, error=True)
        backend.note_dispatch()
        backend.note_completion(0.1)
        assert backend.healthy
        assert backend.consecutive_errors == 0

    def test_all_unhealthy_falls_back_to_probing(self, sim):
        backends = make_backends(sim, 2)
        for backend in backends:
            for _ in range(3):
                backend.note_dispatch()
                backend.note_completion(0.0, error=True)
        # No healthy replica: the balancer still picks one (a probe).
        picked = LeastOutstandingBalancer().pick(backends)
        assert picked in backends

    def test_latency_aware_skips_unhealthy(self, sim):
        backends = make_backends(sim, 2)
        backends[0].note_completion(0.01)  # fast but...
        for _ in range(3):
            backends[0].note_dispatch()
            backends[0].note_completion(0.0, error=True)  # ...now broken
        backends[1].note_completion(1.0)  # slow but healthy
        assert LatencyAwareBalancer().pick(backends).name == "b1"
