"""Integration tests for the networked database server and client."""

from __future__ import annotations

import pytest

from repro.db import Database, DatabaseClient, DatabaseServer, cost
from repro.db.executor import ExecutionStats
from repro.errors import QueryError


@pytest.fixture
def served_db(sim, net):
    database = Database()
    table = database.create_table("kv", [("k", int), ("v", str)])
    for i in range(100):
        table.insert((i, f"v{i}"))
    table.create_index("k")
    server = DatabaseServer(
        sim, net.node("dbhost"), database, max_workers=2
    )
    client_node = net.node("app")
    return server, client_node


class TestDatabaseServer:
    def test_query_round_trip(self, sim, served_db):
        server, client_node = served_db

        def run():
            conn = yield from DatabaseClient.connect(sim, client_node, server.address)
            result = yield from conn.query("SELECT v FROM kv WHERE k = 7")
            yield from conn.close()
            return result

        result = sim.run(sim.process(run()))
        assert result.rows == (("v7",),)
        assert result.stats["plan"] == "hash-eq"

    def test_query_error_propagates_and_connection_survives(self, sim, served_db):
        server, client_node = served_db

        def run():
            conn = yield from DatabaseClient.connect(sim, client_node, server.address)
            try:
                yield from conn.query("SELECT nope FROM missing")
            except QueryError:
                pass
            result = yield from conn.query("SELECT COUNT(*) FROM kv")
            yield from conn.close()
            return result.rows[0][0]

        assert sim.run(sim.process(run())) == 100

    def test_worker_pool_limits_concurrency(self, sim, served_db):
        server, client_node = served_db
        finish_times = []

        def one(i):
            conn = yield from DatabaseClient.connect(sim, client_node, server.address)
            # Full scan: examined=100 rows -> measurable service time.
            yield from conn.query("SELECT COUNT(*) FROM kv WHERE v = 'x'")
            finish_times.append(sim.now)
            yield from conn.close()

        for i in range(6):
            sim.process(one(i))
        sim.run()
        # With 2 workers the 6 queries finish in 3 distinct waves.
        assert len(finish_times) == 6
        waves = sorted(set(round(t, 6) for t in finish_times))
        assert len(waves) >= 3

    def test_service_time_follows_cost_model(self, sim, net, monkeypatch):
        monkeypatch.setattr(cost, "BASE_TIME", 0.5)
        monkeypatch.setattr(cost, "PER_ROW_EXAMINED", 0.001)
        database = Database()
        table = database.create_table("t", [("x", int)])
        for i in range(1000):
            table.insert((i,))
        server = DatabaseServer(sim, net.node("db2"), database)
        client_node = net.node("app2")

        def run():
            conn = yield from DatabaseClient.connect(sim, client_node, server.address)
            started = sim.now
            yield from conn.query("SELECT COUNT(*) FROM t")
            elapsed = sim.now - started
            yield from conn.close()
            return elapsed

        elapsed = sim.run(sim.process(run()))
        # base 0.5 + 1000 rows * 1ms = 1.5s, plus small network time.
        assert 1.49 < elapsed < 1.6

    def test_bad_handshake_rejected(self, sim, net, served_db):
        server, client_node = served_db

        def run():
            stream = yield from client_node.connect_stream(server.address)
            stream.send(("query", "SELECT 1"))  # no hello first
            envelope = yield stream.recv()
            return envelope.payload

        reply = sim.run(sim.process(run()))
        assert reply[0] == "error"

    def test_metrics_counted(self, sim, served_db):
        server, client_node = served_db

        def run():
            conn = yield from DatabaseClient.connect(sim, client_node, server.address)
            yield from conn.query("SELECT v FROM kv WHERE k = 1")
            yield from conn.query("SELECT v FROM kv WHERE k = 2")
            yield from conn.close()

        sim.run(sim.process(run()))
        assert server.metrics.counter("db.queries") == 2
        assert server.metrics.counter("db.connections") == 1


class TestCostModel:
    def test_scan_costs_more_than_lookup(self):
        scan = ExecutionStats("scan", 42_000, 40, 40)
        lookup = ExecutionStats("hash-eq", 42, 40, 40)
        assert cost.service_time(scan) > 10 * cost.service_time(lookup)

    def test_write_cost_counted(self):
        write = ExecutionStats("insert", 0, 0, 0, rows_written=10)
        assert cost.service_time(write) == pytest.approx(
            cost.BASE_TIME + 10 * cost.PER_ROW_WRITTEN
        )
