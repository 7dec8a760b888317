"""Tests for the shard tier: hash ring, replica groups, routing, peering.

Unit tests pin the deterministic building blocks (ring placement,
bully elections, the directory), hypothesis drives the consistent-
hashing remap bound and election convergence, and the integration
tests run real brokers through :class:`ShardRouteStage` forwarding —
including the cross-shard span attribution and exporter round-trip.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BrokerClient,
    HashRing,
    HttpAdapter,
    QoSPolicy,
    ReplyStatus,
    ServiceBroker,
    ShardDirectory,
    ShardGroup,
    ShardPeerGroup,
    ShardRouteStage,
    stage_plan,
)
from repro.core.centralized import LoadListener, ShardLoadReport
from repro.core.peering import JournalSync, RouteAdvert
from repro.errors import BrokerError
from repro.http import BackendWebServer
from repro.metrics import MetricsRegistry
from repro.net import Link, Network
from repro.obs import TraceCollector
from repro.obs.export import to_chrome_trace, to_jsonl, validate_chrome_trace
from repro.sim import Simulation
from repro.workload import run_shard_chaos_experiment, run_sharded_qos_experiment



def find_span(trace, name):
    """The first span of *trace* (pre-order) called *name*, if any."""
    return next((span for span in trace.spans() if span.name == name), None)

class FakeReplica:
    """Just enough broker surface for ShardGroup unit tests."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.address = ("web", 7000)
        self.alive = True


def make_group(n: int = 3, service: str = "svc", index: int = 0):
    group = ShardGroup(service, index, MetricsRegistry())
    members = [FakeReplica(f"r{i}") for i in range(n)]
    for member in members:
        group.add(member)
    return group, members


# ---------------------------------------------------------------------------
# HashRing
# ---------------------------------------------------------------------------


class TestHashRing:
    def test_owner_deterministic_across_instances(self):
        nodes = [f"n{i}" for i in range(5)]
        a = HashRing(seed=9, nodes=nodes)
        b = HashRing(seed=9, nodes=nodes)
        for i in range(100):
            assert a.owner(f"key{i}") == b.owner(f"key{i}")

    def test_seed_changes_placement(self):
        nodes = [f"n{i}" for i in range(4)]
        a = HashRing(seed=1, nodes=nodes)
        b = HashRing(seed=2, nodes=nodes)
        assert any(a.owner(f"key{i}") != b.owner(f"key{i}") for i in range(50))

    def test_duplicate_add_rejected(self):
        ring = HashRing(nodes=["n0"])
        with pytest.raises(BrokerError):
            ring.add("n0")

    def test_remove_missing_rejected(self):
        with pytest.raises(BrokerError):
            HashRing(nodes=["n0"]).remove("n1")

    def test_empty_ring_lookup_raises(self):
        with pytest.raises(BrokerError):
            HashRing().owner("key")

    def test_zero_vnodes_rejected(self):
        with pytest.raises(BrokerError):
            HashRing(vnodes=0)

    def test_preference_starts_with_owner_and_is_distinct(self):
        ring = HashRing(seed=3, nodes=[f"n{i}" for i in range(4)])
        for i in range(20):
            prefs = ring.preference(f"key{i}")
            assert prefs[0] == ring.owner(f"key{i}")
            assert len(prefs) == len(set(prefs)) == 4

    def test_average_remap_fraction_near_one_over_n(self):
        """Growing 8 -> 9 nodes moves about 1/9 of the keyspace."""
        keys = [f"key{i}" for i in range(2000)]
        ring = HashRing(seed=7, nodes=[f"n{i}" for i in range(8)])
        before = {key: ring.owner(key) for key in keys}
        ring.add("n8")
        moved = sum(1 for key in keys if ring.owner(key) != before[key])
        assert moved <= 2 * len(keys) / 9

    @given(
        keys=st.lists(
            st.text(alphabet="abcdef0123456789", min_size=1, max_size=8),
            min_size=1,
            max_size=50,
            unique=True,
        ),
        n=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_add_remaps_keys_only_to_the_new_node(self, keys, n, seed):
        """The consistent-hashing bound: an added node only *steals*."""
        ring = HashRing(seed=seed, nodes=[f"n{i}" for i in range(n)])
        before = {key: ring.owner(key) for key in keys}
        ring.add("fresh")
        for key in keys:
            after = ring.owner(key)
            assert after == before[key] or after == "fresh"

    @given(
        keys=st.lists(
            st.text(alphabet="abcdef0123456789", min_size=1, max_size=8),
            min_size=1,
            max_size=50,
            unique=True,
        ),
        n=st.integers(min_value=2, max_value=6),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_remove_remaps_only_the_removed_nodes_keys(self, keys, n, seed):
        ring = HashRing(seed=seed, nodes=[f"n{i}" for i in range(n)])
        before = {key: ring.owner(key) for key in keys}
        ring.remove("n0")
        for key in keys:
            after = ring.owner(key)
            if before[key] == "n0":
                assert after != "n0"
            else:
                assert after == before[key]

    @given(
        order=st.permutations([f"n{i}" for i in range(5)]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=50, deadline=None)
    def test_placement_independent_of_construction_order(self, order, seed):
        canonical = HashRing(seed=seed, nodes=[f"n{i}" for i in range(5)])
        shuffled = HashRing(seed=seed, nodes=order)
        for i in range(30):
            assert canonical.owner(f"key{i}") == shuffled.owner(f"key{i}")


# ---------------------------------------------------------------------------
# ShardGroup elections
# ---------------------------------------------------------------------------


class TestShardGroup:
    def test_join_order_is_priority(self):
        group, members = make_group(3)
        assert group.leader is members[0]

    def test_duplicate_member_rejected(self):
        group, members = make_group(2)
        with pytest.raises(BrokerError):
            group.add(members[0])

    def test_leader_death_promotes_next_replica(self):
        group, members = make_group(3)
        members[0].alive = False
        group.note_down("r0")
        assert group.leader is members[1]

    def test_returning_senior_replica_bullies_back(self):
        group, members = make_group(3)
        members[0].alive = False
        group.note_down("r0")
        members[0].alive = True
        group.note_up("r0")
        assert group.leader is members[0]

    def test_route_self_heals_on_undetected_crash(self):
        """A dead-but-not-yet-flagged leader is replaced inline."""
        group, members = make_group(2)
        members[0].alive = False  # crash, no note_down yet
        assert group.route() is members[1]
        assert group.leader is members[1]

    def test_route_none_when_all_replicas_down(self):
        group, members = make_group(2)
        for member in members:
            member.alive = False
            group.note_down(member.name)
        assert group.route() is None

    def test_elections_counted(self):
        group, members = make_group(2)
        start = group.elections
        members[0].alive = False
        group.note_down("r0")
        assert group.elections == start + 1

    @given(
        ops=st.lists(
            st.tuples(st.integers(min_value=0, max_value=4), st.booleans()),
            max_size=20,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_election_converges_to_first_live_member(self, ops):
        """Any interleaving of failures and recoveries converges on the
        highest-priority live replica (or no leader at all)."""
        group, members = make_group(5)
        for index, up in ops:
            members[index].alive = up
            if up:
                group.note_up(members[index].name)
            else:
                group.note_down(members[index].name)
        expected = next((m for m in members if m.alive), None)
        assert group.route() is expected


# ---------------------------------------------------------------------------
# ShardDirectory
# ---------------------------------------------------------------------------


class TestShardDirectory:
    def make_directory(self, shards=3, replicas=2, service="items", seed=11):
        directory = ShardDirectory()
        groups = []
        for shard in range(shards):
            group = ShardGroup(service, shard, MetricsRegistry())
            for replica in range(replicas):
                group.add(FakeReplica(f"s{shard}r{replica}"))
            groups.append(group)
        directory.register(service, groups, seed=seed)
        return directory, groups

    def test_duplicate_service_rejected(self):
        directory, groups = self.make_directory()
        with pytest.raises(BrokerError):
            directory.register("items", groups)

    def test_empty_group_list_rejected(self):
        with pytest.raises(BrokerError):
            ShardDirectory().register("items", [])

    def test_shard_of_is_stable_and_in_range(self):
        directory, _groups = self.make_directory(shards=3)
        for i in range(50):
            shard = directory.shard_of("items", f"item{i}")
            assert 0 <= shard < 3
            assert directory.shard_of("items", f"item{i}") == shard

    def test_route_returns_owning_shards_leader(self):
        directory, groups = self.make_directory()
        shard = directory.shard_of("items", "item0")
        assert directory.route("items", "item0") is groups[shard].leader

    def test_address_for_raises_when_shard_has_no_live_replica(self):
        directory, groups = self.make_directory(shards=1, replicas=2)
        for group in groups:
            for member in group.members:
                member.alive = False
                group.note_down(member.name)
        with pytest.raises(BrokerError):
            directory.address_for("items", "item0")

    def test_describe_names_leaders(self):
        directory, _groups = self.make_directory(shards=2)
        text = directory.describe()
        assert "items: 2 shard(s)" in text
        assert "leader=s0r0" in text and "s0r0*" in text
        assert "leader=s1r0" in text

    def test_partition_covers_every_key_exactly_once(self):
        ring = HashRing(seed=11, nodes=["0", "1", "2"])
        keys = [f"item{i}" for i in range(200)]
        buckets = ring.partition(keys)
        assert sorted(buckets) == ["0", "1", "2"]
        scattered = [key for node in buckets for key in buckets[node]]
        assert sorted(scattered) == sorted(keys)
        for node, owned in buckets.items():
            assert all(ring.owner(key) == node for key in owned)

    def test_partition_slice_ring_matches_full_directory(self):
        """A slice registered over the full universe places keys like
        the unpartitioned directory does."""
        full, _groups = self.make_directory(shards=3, seed=11)
        sliced = ShardDirectory()
        group = ShardGroup("items", 1, MetricsRegistry())
        group.add(FakeReplica("s1r0"))
        sliced.register("items", [group], seed=11, universe=range(3))
        for i in range(100):
            assert sliced.shard_of("items", f"item{i}") == full.shard_of(
                "items", f"item{i}"
            )

    def test_universe_must_cover_instantiated_groups(self):
        group = ShardGroup("items", 5, MetricsRegistry())
        group.add(FakeReplica("s5r0"))
        with pytest.raises(BrokerError, match="not in the ring universe"):
            ShardDirectory().register(
                "items", [group], seed=11, universe=range(3)
            )

    def test_uninstantiated_shard_fails_loudly(self):
        """A key owned by a shard outside this partition must not
        silently rehash onto a local group."""
        sliced = ShardDirectory()
        group = ShardGroup("items", 1, MetricsRegistry())
        group.add(FakeReplica("s1r0"))
        sliced.register("items", [group], seed=11, universe=range(3))
        foreign = next(
            key
            for key in (f"item{i}" for i in range(200))
            if sliced.shard_of("items", key) != 1
        )
        with pytest.raises(BrokerError, match="not instantiated"):
            sliced.route("items", foreign)


# ---------------------------------------------------------------------------
# ShardRouteStage + peering integration (real brokers)
# ---------------------------------------------------------------------------


def build_sharded_service(sim, net, shards=2, replicas=2, service="items"):
    """N shards x R replicas over per-shard backends, fully peered."""
    web = net.node("web")
    directory = ShardDirectory()
    groups, peers, brokers = [], [], []
    port = 7400
    for shard in range(shards):
        server = BackendWebServer(
            sim, net.node(f"origin{shard}"), max_clients=4
        )

        def cgi(server, request, shard=shard):
            yield server.sim.timeout(0.05)
            return f"ok-s{shard}"

        server.add_cgi("/s", cgi)
        group = ShardGroup(service, shard, MetricsRegistry())
        peer = ShardPeerGroup(group)
        for replica in range(replicas):
            broker = ServiceBroker(
                sim,
                web,
                service=service,
                port=port,
                adapters=[HttpAdapter(sim, web, server.address)],
                qos=QoSPolicy(levels=3, threshold=100),
                pool_size=2,
                name=f"s{shard}r{replica}",
                stages=stage_plan(
                    "distributed", ShardRouteStage(directory, shard=shard)
                ),
            )
            port += 1
            group.add(broker)
            peer.join(broker)
            brokers.append(broker)
        groups.append(group)
        peers.append(peer)
    for peer in peers:
        peer.set_roster(brokers)
    directory.register(service, groups, seed=5)
    return web, directory, groups, peers, brokers


def key_owned_by(directory, service, shard):
    """A request key the given shard owns, by construction."""
    for i in range(10_000):
        if directory.shard_of(service, f"item{i}") == shard:
            return f"item{i}"
    raise AssertionError(f"no key found for shard {shard}")


class TestShardRouteStage:
    def test_local_key_stays_local(self, sim, net):
        web, directory, groups, _peers, brokers = build_sharded_service(sim, net)
        key = key_owned_by(directory, "items", 0)
        client = BrokerClient(sim, web, {"items": brokers[0].address})
        replies = []

        def run():
            reply = yield from client.call(
                "items", "get", ("/s", {}), cacheable=False, cache_key=key
            )
            replies.append(reply)

        sim.run(sim.process(run()))
        assert replies[0].status is ReplyStatus.OK
        assert replies[0].broker == "s0r0"
        assert brokers[0].metrics.counter("broker.shard.local") == 1
        assert brokers[0].metrics.counter("broker.shard.forwarded") == 0

    def test_misdirected_key_is_forwarded_to_owner(self, sim, net):
        web, directory, groups, _peers, brokers = build_sharded_service(sim, net)
        key = key_owned_by(directory, "items", 1)
        # Address shard 0's leader with a shard-1 key on purpose.
        client = BrokerClient(sim, web, {"items": brokers[0].address})
        replies = []

        def run():
            reply = yield from client.call(
                "items", "get", ("/s", {}), cacheable=False, cache_key=key
            )
            replies.append(reply)

        sim.run(sim.process(run()))
        reply = replies[0]
        assert reply.status is ReplyStatus.OK
        assert reply.payload.body == "ok-s1"
        # The owner replied straight to the caller.
        assert reply.broker == groups[1].leader.name
        assert brokers[0].metrics.counter("broker.shard.forwarded") == 1
        assert brokers[0].metrics.counter("broker.shard.local") == 0
        owner = groups[1].leader
        assert owner.metrics.counter("broker.shard.local") == 1

    def test_forward_spans_nest_under_relay_broker(self, sim, net):
        """Cross-shard hops appear as child spans of the relay broker."""
        collector = TraceCollector()
        collector.attach(sim)
        web, directory, groups, _peers, brokers = build_sharded_service(sim, net)
        key = key_owned_by(directory, "items", 1)
        client = BrokerClient(sim, web, {"items": brokers[0].address})

        def run():
            yield from client.call(
                "items", "get", ("/s", {}), cacheable=False, cache_key=key
            )

        sim.run(sim.process(run()))
        assert len(collector) == 1
        trace = collector.traces[0]
        assert trace.validate() == []
        relay = find_span(trace, "s0r0")
        owner = find_span(trace, groups[1].leader.name)
        assert relay is not None and owner is not None
        forward = find_span(trace, "net.forward")
        assert forward is not None
        # The broker->broker leg is attributed to the forwarding broker.
        assert any(span.name == "net.forward" for span in relay.walk())
        assert all(span.name != "net.forward" for span in owner.walk())

    def test_forwarded_trace_round_trips_through_exporters(self, sim, net):
        collector = TraceCollector()
        collector.attach(sim)
        web, directory, groups, _peers, brokers = build_sharded_service(sim, net)
        key = key_owned_by(directory, "items", 1)
        client = BrokerClient(sim, web, {"items": brokers[0].address})

        def run():
            yield from client.call(
                "items", "get", ("/s", {}), cacheable=False, cache_key=key
            )

        sim.run(sim.process(run()))
        doc = to_chrome_trace(collector.traces)
        assert validate_chrome_trace(doc) == []
        names = {
            event["name"] for event in doc["traceEvents"] if event["ph"] == "X"
        }
        assert "net.forward" in names and "s0r0" in names
        records = [json.loads(line) for line in to_jsonl(collector.traces)]
        forwards = [r for r in records if r["span"] == "net.forward"]
        assert forwards and forwards[0]["parent"] == "s0r0"

    def test_degenerate_plan_is_a_pass_through(self):
        """No directory -> the sharded plan behaves like distributed."""

        def run_one(stages):
            sim = Simulation(seed=7)
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
                stages=stages,
            )
            client = BrokerClient(sim, node, {"web": broker.address})
            out = []

            def one(i):
                yield sim.timeout(0.01 * i)
                reply = yield from client.call(
                    "web", "get", ("/s", {"i": i}),
                    qos_level=(i % 3) + 1, cacheable=False,
                )
                out.append((i, reply.status.value, round(sim.now, 9)))

            for i in range(10):
                sim.process(one(i))
            sim.run()
            return out, broker

        base, _ = run_one(None)
        degenerate, broker = run_one(
            stage_plan("distributed", ShardRouteStage())
        )
        assert degenerate == base
        assert broker.metrics.counter("broker.shard.local") == 10
        assert broker.metrics.counter("broker.shard.forwarded") == 0


class TestShardPeering:
    def test_journal_sync_maintains_shadow(self, sim, net):
        _web, _dir, _groups, _peers, brokers = build_sharded_service(sim, net)
        sender = net.node("ext").datagram_socket()
        sender.sendto(
            JournalSync(
                origin="s0r1", request_id=7, request=None,
                answered=False, sent_at=0.0,
            ),
            brokers[0].address,
        )
        sim.run()
        assert 7 in brokers[0].shard_shadow["s0r1"]
        assert brokers[0].metrics.counter("peering.journal_syncs_applied") == 1
        sender.sendto(
            JournalSync(
                origin="s0r1", request_id=7, request=None,
                answered=True, sent_at=0.0,
            ),
            brokers[0].address,
        )
        sim.run()
        assert 7 not in brokers[0].shard_shadow["s0r1"]

    def test_route_advert_updates_shard_view(self, sim, net):
        _web, _dir, _groups, _peers, brokers = build_sharded_service(sim, net)
        sender = net.node("ext").datagram_socket()
        sender.sendto(
            RouteAdvert(
                service="items", shard=1, leader="s1r1",
                members=("s1r0", "s1r1"), sent_at=0.0,
            ),
            brokers[0].address,
        )
        sim.run()
        assert brokers[0].shard_view[("items", 1)] == "s1r1"

    def test_election_advertises_new_leader_to_roster(self, sim, net):
        web, directory, groups, _peers, brokers = build_sharded_service(sim, net)

        def run():
            yield sim.timeout(0.1)
            groups[0].leader.crash()
            assert groups[0].route().name == "s0r1"  # self-heal + advert
            yield sim.timeout(0.5)

        sim.run(sim.process(run()))
        assert groups[0].leader.name == "s0r1"
        for broker in brokers:
            if broker.name.startswith("s1"):
                assert broker.shard_view[("items", 0)] == "s0r1"


class TestListenerLeaderTracking:
    def report(self, broker, leader=True, outstanding=1):
        return ShardLoadReport(
            broker=broker, service="items", outstanding=outstanding,
            queue_depth=0, threshold=10, sent_at=0.0,
            shard=0, leader=leader,
        )

    def test_reporting_role_failover_counted(self, sim, net):
        web = net.node("web")
        listener = LoadListener(sim, web, process_time=0.0)
        sender = net.node("ext").datagram_socket()

        def run():
            sender.sendto(self.report("s0r0"), listener.address)
            yield sim.timeout(0.1)
            sender.sendto(self.report("s0r0"), listener.address)
            yield sim.timeout(0.1)
            sender.sendto(self.report("s0r1"), listener.address)
            yield sim.timeout(0.1)

        sim.run(sim.process(run()))
        assert listener.shard_leaders[("items", 0)] == "s0r1"
        assert listener.leader_failovers == 1

    def test_non_leader_claims_do_not_move_the_role(self, sim, net):
        web = net.node("web")
        listener = LoadListener(sim, web, process_time=0.0)
        sender = net.node("ext").datagram_socket()

        def run():
            sender.sendto(self.report("s0r0"), listener.address)
            yield sim.timeout(0.1)
            sender.sendto(self.report("s0r1", leader=False), listener.address)
            yield sim.timeout(0.1)

        sim.run(sim.process(run()))
        assert listener.shard_leaders[("items", 0)] == "s0r0"
        assert listener.leader_failovers == 0


# ---------------------------------------------------------------------------
# Workload-level behavior
# ---------------------------------------------------------------------------


class TestShardedWorkloads:
    def test_sharded_qos_runs_and_is_deterministic(self):
        first = run_sharded_qos_experiment(
            6, shards=2, replicas=2, mode="broker", duration=10.0, seed=5
        )
        second = run_sharded_qos_experiment(
            6, shards=2, replicas=2, mode="broker", duration=10.0, seed=5
        )
        assert first.brokers == 12  # 3 services x 2 shards x 2 replicas
        assert sum(first.completions.values()) > 0
        assert first.local_routes > 0
        assert first.completions == second.completions
        assert first.full_fidelity == second.full_fidelity

    def test_parallel_workers_match_each_other_and_do_real_work(self):
        """The partitioned path is worker-count invariant and sane."""
        serial = run_sharded_qos_experiment(
            6, shards=2, replicas=1, duration=10.0, seed=5
        )
        two = run_sharded_qos_experiment(
            6, shards=2, replicas=1, duration=10.0, seed=5, workers=2
        )
        # Partitioned workload != serial replay, but it is the same
        # topology doing comparable work: all pages full-fidelity in
        # this unloaded configuration, zero cross-shard forwards (one
        # item key drives all three services), same broker count.
        assert two.brokers == serial.brokers
        assert two.forwards == 0
        assert sum(two.completions.values()) > 0
        assert two.full_fidelity == two.completions

    def test_parallel_rejects_centralized_mode(self):
        with pytest.raises(ValueError, match="centralized"):
            run_sharded_qos_experiment(
                6, shards=2, mode="centralized", duration=5.0, workers=2
            )

    def test_workers_must_be_positive(self):
        with pytest.raises(ValueError, match="workers"):
            run_sharded_qos_experiment(6, shards=2, duration=5.0, workers=0)

    def test_leader_only_reporting_is_replica_count_invariant(self):
        """The listener's load tracks shards, not replicas — the knob
        the paper's centralized model lacks."""
        single = run_sharded_qos_experiment(
            4, shards=2, replicas=1, mode="centralized", duration=10.0, seed=5
        )
        double = run_sharded_qos_experiment(
            4, shards=2, replicas=2, mode="centralized", duration=10.0, seed=5
        )
        assert single.listener_updates > 0
        assert double.listener_updates == single.listener_updates

    def test_shard_chaos_invariants_hold(self):
        result = run_shard_chaos_experiment(
            duration=40.0, shards=2, replicas=2,
            leader_kill_every=15.0, seed=3,
        )
        assert result.all_invariants_hold, [
            check.detail for check in result.invariants if not check.passed
        ]
        assert result.leader_kills >= 2
        assert result.elections >= result.leader_kills
        assert result.availability >= 0.99
