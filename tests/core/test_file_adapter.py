"""FileAdapter and FileBatchCombiner exercised through a broker."""

from __future__ import annotations

import pytest

from repro.core import (
    BrokerClient,
    ClusteringConfig,
    FileAdapter,
    FileBatchCombiner,
    QoSPolicy,
    ReplyStatus,
    ServiceBroker,
)
from repro.fileserver import FileServer, FileSystem


@pytest.fixture
def file_stack(sim, net):
    fs = FileSystem(total_blocks=50_000)
    rng = sim.rng("layout")
    for i in range(20):
        fs.create(f"doc{i}", 8, fragmented=True, extent_size=8, rng=rng)
    server = FileServer(sim, net.node("nfs"), filesystem=fs, scheduler="elevator")
    node = net.node("web")
    broker = ServiceBroker(
        sim,
        node,
        service="files",
        adapters=[FileAdapter(sim, node, server.address)],
        qos=QoSPolicy(levels=1, threshold=1000),
        clustering=ClusteringConfig(
            combiner=FileBatchCombiner(), max_batch=10, window=0.005
        ),
        dispatchers=1,
        pool_size=1,
    )
    client = BrokerClient(sim, node, {"files": broker.address})
    return server, broker, client


class TestFileAdapter:
    def test_read_through_broker(self, sim, file_stack):
        server, _broker, client = file_stack

        def run():
            reply = yield from client.call("files", "read", "doc3", cacheable=False)
            return reply

        reply = sim.run(sim.process(run()))
        assert reply.status is ReplyStatus.OK
        assert reply.payload["name"] == "doc3"

    def test_stat_through_broker(self, sim, file_stack):
        _server, _broker, client = file_stack

        def run():
            reply = yield from client.call("files", "stat", "doc0", cacheable=False)
            return reply

        assert sim.run(sim.process(run())).payload == 8

    def test_missing_file_is_error_reply(self, sim, file_stack):
        _server, broker, client = file_stack

        def run():
            reply = yield from client.call("files", "read", "ghost", cacheable=False)
            return reply

        reply = sim.run(sim.process(run()))
        assert reply.status is ReplyStatus.ERROR
        assert broker.outstanding == 0

    def test_unknown_operation_is_error_reply(self, sim, file_stack):
        _server, broker, client = file_stack

        def run():
            reply = yield from client.call("files", "frobnicate", (), cacheable=False)
            return reply

        reply = sim.run(sim.process(run()))
        assert reply.status is ReplyStatus.ERROR
        assert broker.outstanding == 0

    def test_concurrent_reads_batched_and_routed(self, sim, file_stack):
        server, broker, client = file_stack
        results = {}

        def one(name):
            reply = yield from client.call("files", "read", name, cacheable=False)
            results[name] = reply

        names = [f"doc{i}" for i in range(8)]
        for name in names:
            sim.process(one(name))
        sim.run()
        assert all(results[n].status is ReplyStatus.OK for n in names)
        assert all(results[n].payload["name"] == n for n in names)
        # The burst collapsed into at least one read_batch exchange.
        assert server.metrics.counter("file.batches") >= 1
        assert broker.metrics.counter("broker.clustered_batches") >= 1


class TestFileBatchCombinerUnit:
    def test_key_only_for_read(self):
        from repro.core import BrokerRequest
        from repro.net import Address

        combiner = FileBatchCombiner()
        read = BrokerRequest(1, "files", "read", "a", Address("w", 1))
        stat = BrokerRequest(2, "files", "stat", "a", Address("w", 1))
        assert combiner.key(read) is not None
        assert combiner.key(stat) is None

    def test_split_validates_shape(self):
        from repro.core import BrokerRequest
        from repro.errors import BrokerError
        from repro.net import Address

        combiner = FileBatchCombiner()
        batch = [
            BrokerRequest(i, "files", "read", f"f{i}", Address("w", 1))
            for i in range(2)
        ]
        with pytest.raises(BrokerError):
            combiner.split(batch, "not-a-list")
        with pytest.raises(BrokerError):
            combiner.split(batch, [{"name": "f0"}])  # wrong length
        ok = combiner.split(batch, [{"name": "f0"}, {"name": "f1"}])
        assert [r["name"] for r in ok] == ["f0", "f1"]
