"""Tests for the disk model, filesystem, and file server."""

from __future__ import annotations

import pytest

from repro.errors import ServiceError
from repro.fileserver import DiskModel, FileClient, FileServer, FileSystem
from repro.sim import Simulation


class TestDiskModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            DiskModel(total_blocks=0)

    def test_seek_time_proportional_to_distance(self, monkeypatch):
        monkeypatch.setattr(DiskModel, "full_seek", 0.010)
        disk = DiskModel(total_blocks=1000)
        assert disk.seek_time(500) == pytest.approx(0.005)
        assert disk.seek_time(0) == 0.0

    def test_access_moves_head_and_accounts(self, monkeypatch):
        monkeypatch.setattr(DiskModel, "per_operation", 0.001)
        monkeypatch.setattr(DiskModel, "full_seek", 0.010)
        monkeypatch.setattr(DiskModel, "per_block_transfer", 0.0001)
        disk = DiskModel(total_blocks=1000)
        time = disk.access(100, 10)
        assert time == pytest.approx(0.001 + 0.010 * 100 / 1000 + 0.001)
        assert disk.head == 109
        assert disk.seeks == 1
        assert disk.blocks_read == 10

    def test_sequential_access_needs_no_seek(self):
        disk = DiskModel(total_blocks=1000)
        disk.access(0, 10)
        before = disk.seeks
        disk.access(10, 10)  # head is at 9; 1-block hop counts as a seek
        disk.access(20, 10)
        assert disk.seeks - before == 2
        assert disk.total_seek_distance <= 2

    def test_out_of_range_rejected(self):
        disk = DiskModel(total_blocks=100)
        with pytest.raises(ValueError):
            disk.access(100, 1)
        with pytest.raises(ValueError):
            disk.access(0, 0)


class TestFileSystem:
    def test_contiguous_allocation(self):
        fs = FileSystem(total_blocks=1000)
        fs.create("a", 100)
        fs.create("b", 50)
        assert fs.extents_of("a")[0].start == 0
        assert fs.extents_of("b")[0].start == 100
        assert fs.size_of("b") == 50

    def test_fragmented_allocation_scatters(self):
        sim = Simulation(seed=4)
        fs = FileSystem(total_blocks=10_000)
        fs.create("frag", 64, fragmented=True, extent_size=8, rng=sim.rng("fs"))
        extents = fs.extents_of("frag")
        assert len(extents) == 8
        assert fs.size_of("frag") == 64
        starts = [e.start for e in extents]
        assert max(starts) - min(starts) > 100  # genuinely scattered

    def test_fragmented_requires_rng(self):
        fs = FileSystem()
        with pytest.raises(ServiceError):
            fs.create("x", 8, fragmented=True)

    def test_full_filesystem(self):
        fs = FileSystem(total_blocks=10)
        fs.create("a", 8)
        with pytest.raises(ServiceError):
            fs.create("b", 8)

    def test_duplicate_and_missing(self):
        fs = FileSystem()
        fs.create("a", 1)
        with pytest.raises(ServiceError):
            fs.create("a", 1)
        with pytest.raises(ServiceError):
            fs.extents_of("ghost")


@pytest.fixture
def served_fs(sim, net):
    fs = FileSystem(total_blocks=10_000)
    fs.create("near", 16)
    fs.create("far", 16)
    # Force 'far' to the end of the disk for seek-ordering tests.
    fs._files["far"] = [type(fs.extents_of("near")[0])(9_000, 16)]
    server = FileServer(sim, net.node("nfs"), filesystem=fs, scheduler="elevator")
    return fs, server, net.node("app")


class TestFileServer:
    def test_read_round_trip(self, sim, served_fs):
        _fs, server, client_node = served_fs

        def run():
            conn = yield from FileClient.connect(sim, client_node, server.address)
            result = yield from conn.read("near")
            yield from conn.close()
            return result

        result = sim.run(sim.process(run()))
        assert result["name"] == "near"
        assert result["blocks"] == 16
        assert result["service_time"] > 0

    def test_missing_file_is_error(self, sim, served_fs):
        _fs, server, client_node = served_fs

        def run():
            conn = yield from FileClient.connect(sim, client_node, server.address)
            try:
                yield from conn.read("ghost")
            except ServiceError as exc:
                yield from conn.close()
                return str(exc)

        assert "ghost" in sim.run(sim.process(run()))

    def test_requires_mount(self, sim, served_fs):
        _fs, server, client_node = served_fs

        def run():
            stream = yield from client_node.connect_stream(server.address)
            stream.send(("read", "near"))
            envelope = yield stream.recv()
            stream.close()
            return envelope.payload

        assert sim.run(sim.process(run()))[0] == "error"

    def test_read_batch_returns_request_order(self, sim, served_fs):
        _fs, server, client_node = served_fs

        def run():
            conn = yield from FileClient.connect(sim, client_node, server.address)
            results = yield from conn.read_batch(["far", "near", "ghost"])
            yield from conn.close()
            return results

        results = sim.run(sim.process(run()))
        assert results[0]["name"] == "far"
        assert results[1]["name"] == "near"
        assert "error" in results[2]

    def test_elevator_reduces_seek_travel_vs_fcfs(self, sim, net):
        """Concurrent scattered reads: the elevator's one sweep beats
        FCFS's zig-zag (the paper's adjacent-disk-layout clustering)."""

        def build(scheduler, host):
            fs = FileSystem(total_blocks=100_000)
            rng = sim.rng(f"layout.{scheduler}")
            for i in range(30):
                fs.create(f"f{i}", 8)
            # Scatter the files deterministically (same layout for both).
            import random as _random
            scatter = _random.Random(99)
            for i in range(30):
                start = scatter.randrange(0, 99_000)
                fs._files[f"f{i}"] = [type(fs.extents_of("f0")[0])(start, 8)]
            return FileServer(
                sim, net.node(host), filesystem=fs, scheduler=scheduler
            )

        fcfs = build("fcfs", "nfs-fcfs")
        elevator = build("elevator", "nfs-elev")
        client_node = net.node("reader")

        def read_all(server):
            conn = yield from FileClient.connect(sim, client_node, server.address)
            # Issue all reads at once so the scheduler has a full queue.
            results = yield from conn.read_batch([f"f{i}" for i in range(30)])
            yield from conn.close()
            return results

        sim.run(sim.process(read_all(fcfs)))
        sim.run(sim.process(read_all(elevator)))
        assert elevator.disk.total_seek_distance < 0.5 * fcfs.disk.total_seek_distance

    def test_elevator_wraps_cscan(self, sim, net):
        fs = FileSystem(total_blocks=1000)
        fs.create("low", 8)
        fs.create("high", 8)
        fs._files["low"] = [type(fs.extents_of("low")[0])(10, 8)]
        fs._files["high"] = [type(fs.extents_of("low")[0])(900, 8)]
        server = FileServer(sim, net.node("nfs2"), filesystem=fs, scheduler="elevator")
        server.disk.head = 500  # between the two files
        client_node = net.node("app2")
        order = []

        def run():
            conn = yield from FileClient.connect(sim, client_node, server.address)
            results = yield from conn.read_batch(["low", "high"])
            yield from conn.close()
            return results

        sim.run(sim.process(run()))
        # 'high' (ahead of the head) must have been served before the
        # wrap back to 'low': the head ends on low's extent.
        assert server.disk.head == 17

    def test_bad_scheduler_rejected(self, sim, net):
        with pytest.raises(ServiceError):
            FileServer(sim, net.node("nfs3"), scheduler="random")
