"""Tests for the shared cache tier and the cross-broker combining stages."""

from __future__ import annotations

import pytest

from repro.core import (
    BrokerClient,
    BrokerPeerGroup,
    CacheTierStage,
    ClusteringConfig,
    DatabaseAdapter,
    InListQueryCombiner,
    QoSPolicy,
    QueryCombineStage,
    ReplyStatus,
    ServiceBroker,
    SharedCacheTier,
    TransactionTracker,
    stage_plan,
)
from repro.core import cachetier
from repro.db import Database, DatabaseServer
from repro.errors import NetworkError
from repro.metrics import MetricsRegistry


class FakeBroker:
    """Just enough broker surface for tier-level write-behind tests."""

    def __init__(self, sim, name="fake", fail=False):
        self.sim = sim
        self.name = name
        self.fail = fail
        self.transactions = None
        self.cache_tier = None
        self.executed = []

    def execute_direct(self, operation, payload):
        yield self.sim.timeout(0.001)
        if self.fail:
            raise NetworkError("backend unreachable")
        self.executed.append((operation, payload))
        return "ok"


@pytest.fixture
def registry():
    return MetricsRegistry()


@pytest.fixture
def tier(sim, registry):
    return SharedCacheTier(sim, capacity=8, ttl=10.0, metrics=registry)


class TestSharedCacheTier:
    def test_put_get_and_mirrored_counters(self, tier, registry):
        assert tier.get("k") is None
        tier.put("k", "v")
        assert tier.get("k") == "v"
        assert registry.counter("broker.cachetier.hits") == 1
        assert registry.counter("broker.cachetier.misses") == 1
        assert registry.counter("broker.cachetier.puts") == 1

    def test_ttl_expiry_uses_sim_clock(self, sim, tier):
        tier.put("k", "v")

        def later():
            yield sim.timeout(11.0)
            assert tier.get("k") is None

        sim.run(sim.process(later()))

    def test_invalidate_counts(self, tier, registry):
        tier.put("k", "v")
        assert tier.invalidate("k")
        assert not tier.invalidate("k")
        assert registry.counter("broker.cachetier.invalidations") == 1

    def test_attach_sets_broker_and_is_idempotent(self, sim, tier):
        broker = FakeBroker(sim)
        tier.attach(broker)
        tier.attach(broker)
        assert broker.cache_tier is tier
        assert tier._brokers == [broker]


class TestWriteBehind:
    def test_accepted_write_invalidates_and_flushes(self, sim, tier, registry):
        broker = FakeBroker(sim)
        tier.put("k", "old")
        assert tier.write_behind(broker, "query", "UPDATE ...", keys=("k",))
        assert tier.get("k") is None  # invalidated before the flush
        assert broker.executed == []
        sim.run(until=1.0)
        assert broker.executed == [("query", "UPDATE ...")]
        assert registry.counter("broker.cachetier.writebehind.enqueued") == 1
        assert registry.counter("broker.cachetier.writebehind.flushed") == 1

    def test_overflow_refused_but_keys_still_invalidated(
        self, sim, registry, monkeypatch
    ):
        monkeypatch.setattr(cachetier, "FLUSH_QUEUE_DEPTH", 1)
        tier = SharedCacheTier(sim, metrics=registry)
        broker = FakeBroker(sim)
        tier.put("k2", "old")
        assert tier.write_behind(broker, "query", "w1", keys=("k1",))
        assert not tier.write_behind(broker, "query", "w2", keys=("k2",))
        assert tier.get("k2") is None
        assert registry.counter("broker.cachetier.writebehind.overflow") == 1
        assert registry.counter("broker.cachetier.writebehind.enqueued") == 1

    def test_flush_error_counted_not_raised(self, sim, tier, registry):
        broker = FakeBroker(sim, fail=True)
        tier.write_behind(broker, "query", "w", keys=("k",))
        sim.run(until=1.0)
        assert registry.counter("broker.cachetier.writebehind.errors") == 1
        assert registry.counter("broker.cachetier.writebehind.flushed") == 0

    def test_flush_reinvalidates_raced_fill(self, sim, tier):
        broker = FakeBroker(sim)
        tier.write_behind(broker, "query", "w", keys=("k",))
        tier.put("k", "stale-refill")  # a read-through fill racing the queue
        sim.run(until=1.0)
        assert tier.get("k") is None


class TestTransactionInvalidation:
    def test_write_set_invalidated_on_complete(self, sim, tier, registry):
        tracker = TransactionTracker()
        tier.watch_transactions(tracker)
        broker = FakeBroker(sim)
        tracker.observe_remote("T1", 1)
        tier.write_behind(broker, "query", "w", keys=("k",), txn_id="T1")
        tier.put("k", "refill")
        tracker.complete("T1")
        assert tier.get("k") is None
        assert registry.counter("broker.cachetier.txn_invalidations") == 1

    def test_watch_is_idempotent_per_tracker(self, sim, tier):
        tracker = TransactionTracker()
        tier.watch_transactions(tracker)
        tier.watch_transactions(tracker)
        assert len(tracker._on_complete) == 1

    def test_note_txn_write_without_queue(self, sim, tier):
        tracker = TransactionTracker()
        tier.watch_transactions(tracker)
        tracker.observe_remote("T2", 1)
        tier.note_txn_write("T2", "k")
        tier.put("k", "v")
        tracker.complete("T2")
        assert tier.get("k") is None


def make_db_fixture(groups=5, rows=20):
    database = Database()
    table = database.create_table(
        "records", [("id", int), ("grp", int), ("val", int)]
    )
    for i in range(rows):
        table.insert((i, i % groups, i * 10))
    table.create_index("grp")
    return database


def make_broker(
    sim, net, web, server, name, port, tier=None,
    cluster_window=0.0, combine_window=0.05, registry=None,
):
    stages = stage_plan(
        "distributed",
        CacheTierStage(tier),
        QueryCombineStage(window=combine_window, max_batch=8),
    )
    return ServiceBroker(
        sim,
        web,
        service="db",
        adapters=[DatabaseAdapter(sim, web, server.address)],
        port=port,
        qos=QoSPolicy(levels=1, threshold=100),
        clustering=ClusteringConfig(
            InListQueryCombiner(), max_batch=8, window=cluster_window
        ),
        transactions=TransactionTracker(),
        pool_size=2,
        dispatchers=1,
        metrics=registry,
        name=name,
        stages=stages,
    )


class TestCacheTierStage:
    def test_tier_hit_across_brokers(self, sim, net, registry):
        web = net.node("web")
        server = DatabaseServer(sim, net.node("dbhost"), make_db_fixture())
        tier = SharedCacheTier(sim, metrics=registry)
        broker_a = make_broker(
            sim, net, web, server, "tier-a", 7411, tier=tier, registry=registry
        )
        broker_b = make_broker(
            sim, net, web, server, "tier-b", 7412, tier=tier, registry=registry
        )
        client_a = BrokerClient(sim, web, {"db": broker_a.address})
        client_b = BrokerClient(sim, web, {"db": broker_b.address})
        sql = "SELECT val FROM records WHERE grp = 1"
        replies = {}

        def run():
            replies["a"] = yield from client_a.call("db", "query", sql)
            replies["b"] = yield from client_b.call("db", "query", sql)

        sim.run(sim.process(run()))
        assert replies["a"].status is ReplyStatus.OK
        assert not replies["a"].from_cache
        assert replies["b"].status is ReplyStatus.OK
        assert replies["b"].from_cache  # broker B never touched the backend
        assert replies["b"].payload.rows == replies["a"].payload.rows
        assert registry.counter("broker.cachetier.replies") == 1
        assert server.database is not None

    def test_degenerate_plan_without_tier_passes_through(self, sim, net):
        web = net.node("web")
        server = DatabaseServer(sim, net.node("dbhost"), make_db_fixture())
        stages = stage_plan("distributed", CacheTierStage(), QueryCombineStage())
        broker = ServiceBroker(
            sim, web, service="db",
            adapters=[DatabaseAdapter(sim, web, server.address)],
            port=7413, stages=stages, name="no-tier",
        )
        client = BrokerClient(sim, web, {"db": broker.address})
        replies = {}

        def run():
            replies["r"] = yield from client.call(
                "db", "query", "SELECT val FROM records WHERE grp = 1"
            )

        sim.run(sim.process(run()))
        assert replies["r"].status is ReplyStatus.OK
        assert not replies["r"].from_cache


class TestQueryCombineStage:
    def make_pair(self, sim, net, registry, window_a=0.0, window_b=0.2):
        web = net.node("web")
        server = DatabaseServer(
            sim, net.node("dbhost"), make_db_fixture(), max_workers=8
        )
        broker_a = make_broker(
            sim, net, web, server, "comb-a", 7421,
            cluster_window=window_a, registry=registry,
        )
        broker_b = make_broker(
            sim, net, web, server, "comb-b", 7422,
            cluster_window=window_b, registry=registry,
        )
        group = BrokerPeerGroup()
        group.join(broker_a)
        group.join(broker_b)
        client_a = BrokerClient(sim, web, {"db": broker_a.address})
        client_b = BrokerClient(sim, web, {"db": broker_b.address})
        return broker_a, broker_b, client_a, client_b

    @staticmethod
    def keyed_sql(grp):
        return f"SELECT val FROM records WHERE grp = {grp}"

    def test_advertiser_claims_from_peer_queue(self, sim, net, registry):
        broker_a, broker_b, client_a, client_b = self.make_pair(
            sim, net, registry, window_a=0.0, window_b=0.2
        )
        replies = {}

        def call(client, tag, grp):
            def proc():
                replies[tag] = yield from client.call(
                    "db", "query", self.keyed_sql(grp), cacheable=False
                )
            return proc()

        # Broker B's single dispatcher opens a long local window on the
        # first request; the second sits queued and is claimed by A.
        sim.process(call(client_a, "a1", 1))
        sim.process(call(client_b, "b1", 2))
        sim.process(call(client_b, "b2", 3))
        sim.run(until=2.0)

        for tag, grp in (("a1", 1), ("b1", 2), ("b2", 3)):
            assert replies[tag].status is ReplyStatus.OK
            expected = {(i * 10,) for i in range(20) if i % 5 == grp}
            assert set(replies[tag].payload.rows) == expected
        assert registry.counter("broker.cachetier.combine.batches") == 1
        assert registry.counter("broker.cachetier.combine.remote_items") == 1
        assert registry.counter("peering.combinable_adverts_sent") >= 1
        assert registry.counter("peering.combinable_adverts_applied") >= 1
        # Ledger transfer balanced: nothing outstanding on either side.
        assert broker_a.admission.outstanding == 0
        assert broker_b.admission.outstanding == 0

    def test_peer_yields_while_advert_is_fresh(self, sim, net, registry):
        _a, _b, client_a, client_b = self.make_pair(
            sim, net, registry, window_a=0.0, window_b=0.02
        )
        replies = {}

        def call(client, tag, grp):
            def proc():
                replies[tag] = yield from client.call(
                    "db", "query", self.keyed_sql(grp), cacheable=False
                )
            return proc()

        # B's short local window closes while A's advert is still fresh:
        # B combines its own pair locally and yields instead of opening a
        # competing cross-broker window.
        sim.process(call(client_a, "a1", 1))
        sim.process(call(client_b, "b1", 2))
        sim.process(call(client_b, "b2", 3))
        sim.run(until=2.0)

        assert all(r.status is ReplyStatus.OK for r in replies.values())
        assert registry.counter("broker.cachetier.combine.yields") == 1
        assert registry.counter("broker.cachetier.combine.remote_items") == 0

    def test_plain_plan_outputs_unchanged_without_peers(self, sim, net):
        """A cache-tier plan broker with no peer group and no tier answers
        exactly like a distributed-plan broker at the same seed."""
        web = net.node("web")
        server = DatabaseServer(sim, net.node("dbhost"), make_db_fixture())
        broker = make_broker(sim, net, web, server, "solo", 7431)
        client = BrokerClient(sim, web, {"db": broker.address})
        replies = {}

        def run():
            replies["r"] = yield from client.call(
                "db", "query", self.keyed_sql(1), cacheable=False
            )

        sim.run(sim.process(run()))
        assert replies["r"].status is ReplyStatus.OK
        assert set(replies["r"].payload.rows) == {
            (i * 10,) for i in range(20) if i % 5 == 1
        }
