"""Tests for the multiple-query-optimization combiner (IN-list rewrite)."""

from __future__ import annotations

import pytest

from repro.core import (
    BrokerClient,
    BrokerRequest,
    ClusteringConfig,
    DatabaseAdapter,
    InListQueryCombiner,
    QoSPolicy,
    ReplyStatus,
    ServiceBroker,
)
from repro.db import Database, DatabaseServer, parse
from repro.errors import SqlSyntaxError
from repro.net import Address

REPLY_TO = Address("web", 50000)


def query_request(request_id: int, sql: str) -> BrokerRequest:
    return BrokerRequest(
        request_id=request_id,
        service="db",
        operation="query",
        payload=sql,
        reply_to=REPLY_TO,
    )


@pytest.fixture
def combiner():
    return InListQueryCombiner()


class TestPatternMatching:
    def test_keyed_selects_cluster_together(self, combiner):
        a = query_request(1, "SELECT name FROM users WHERE id = 1")
        b = query_request(2, "SELECT name FROM users WHERE id = 2")
        assert combiner.key(a) == combiner.key(b)
        assert combiner.key(a) is not None

    def test_different_tables_or_columns_do_not_cluster(self, combiner):
        a = query_request(1, "SELECT name FROM users WHERE id = 1")
        b = query_request(2, "SELECT name FROM orders WHERE id = 1")
        c = query_request(3, "SELECT name FROM users WHERE email = 'x'")
        d = query_request(4, "SELECT email FROM users WHERE id = 1")
        keys = {combiner.key(r) for r in (a, b, c, d)}
        assert len(keys) == 4

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT name FROM users WHERE id > 1",
            "SELECT name FROM users WHERE id = 1 AND age = 2",
            "SELECT name FROM users WHERE id = 1 ORDER BY name",
            "SELECT name FROM users WHERE id = 1 LIMIT 1",
            "SELECT COUNT(*) FROM users WHERE id = 1",
            "DELETE FROM users WHERE id = 1",
            "not sql at all",
        ],
    )
    def test_non_candidates_rejected(self, combiner, sql):
        assert combiner.key(query_request(1, sql)) is None

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT name FROM users WHERE id > 1",
            "SELECT name FROM users WHERE id = 1 AND age = 2",
            "SELECT name FROM users WHERE id = 1 ORDER BY name",
            "SELECT name FROM users WHERE id = 1 LIMIT 1",
            "DELETE FROM users WHERE id = 1",
        ],
    )
    def test_forms_outside_the_dialect_are_parse_errors(self, sql):
        # They are not candidates because the engine refuses them too.
        with pytest.raises(SqlSyntaxError):
            parse(sql)

    def test_non_query_operations_rejected(self, combiner):
        request = BrokerRequest(1, "web", "get", ("/x", {}), REPLY_TO)
        assert combiner.key(request) is None


class TestCombine:
    def test_single_request_passthrough(self, combiner):
        request = query_request(1, "SELECT name FROM users WHERE id = 1")
        operation, payload = combiner.combine([request])
        assert operation == "query"
        assert payload == request.payload

    def test_combined_sql_uses_in_list(self, combiner):
        batch = [
            query_request(i, f"SELECT name FROM users WHERE id = {i}")
            for i in (1, 2, 3)
        ]
        _, sql = combiner.combine(batch)
        assert "IN (1, 2, 3)" in sql
        assert "id" in sql and "name" in sql

    def test_duplicate_values_deduplicated(self, combiner):
        batch = [
            query_request(1, "SELECT name FROM users WHERE id = 5"),
            query_request(2, "SELECT name FROM users WHERE id = 5"),
        ]
        _, sql = combiner.combine(batch)
        assert sql.count("5") == 1

    def test_string_keys_quoted(self, combiner):
        batch = [
            query_request(1, "SELECT id FROM users WHERE name = 'bob'"),
            query_request(2, "SELECT id FROM users WHERE name = 'o''brien'"),
        ]
        _, sql = combiner.combine(batch)
        assert "'bob'" in sql and "'o''brien'" in sql


class TestEndToEnd:
    @pytest.fixture
    def stack(self, sim, net):
        database = Database()
        table = database.create_table(
            "users", [("id", int), ("name", str), ("age", int)]
        )
        for i in range(100):
            table.insert((i, f"user-{i}", 20 + i % 50))
        table.create_index("id")
        server = DatabaseServer(sim, net.node("dbhost"), database, max_workers=4)
        node = net.node("web")
        broker = ServiceBroker(
            sim,
            node,
            service="db",
            adapters=[DatabaseAdapter(sim, node, server.address)],
            qos=QoSPolicy(levels=1, threshold=1000),
            clustering=ClusteringConfig(
                combiner=InListQueryCombiner(), max_batch=10, window=0.005
            ),
            dispatchers=1,
            pool_size=1,
        )
        client = BrokerClient(sim, node, {"db": broker.address})
        return server, broker, client

    def test_each_requester_gets_its_own_rows(self, sim, stack):
        server, broker, client = stack
        results = {}

        def one(key):
            reply = yield from client.call(
                "db", "query", f"SELECT name FROM users WHERE id = {key}",
                cacheable=False,
            )
            results[key] = reply

        for key in (3, 7, 7, 11, 999):  # includes a duplicate and a miss
            sim.process(one(key))
        sim.run()
        assert results[3].payload.rows == (("user-3",),)
        assert results[7].payload.rows == (("user-7",),)
        assert results[11].payload.rows == (("user-11",),)
        assert results[999].payload.rows == ()  # missing key: empty result
        assert all(r.status is ReplyStatus.OK for r in results.values())
        # The five requests collapsed into fewer backend queries.
        assert server.metrics.counter("db.queries") < 5

    def test_select_star_round_trip(self, sim, stack):
        server, broker, client = stack
        results = {}

        def one(key):
            reply = yield from client.call(
                "db", "query", f"SELECT * FROM users WHERE id = {key}",
                cacheable=False,
            )
            results[key] = reply.payload

        for key in (1, 2):
            sim.process(one(key))
        sim.run()
        assert results[1].columns == ("id", "name", "age")
        assert results[1].rows == ((1, "user-1", 21),)
        assert results[2].rows == ((2, "user-2", 22),)
