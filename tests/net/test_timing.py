"""Timing semantics of the network model: bandwidth, jitter, sizes."""

from __future__ import annotations

import pytest

from repro.net import Address, Envelope, Link, Network
from repro.net.message import HEADER_BYTES
from repro.sim import Simulation


class TestBandwidthTiming:
    def test_transfer_time_includes_serialization(self):
        sim = Simulation(seed=1)
        # 1000 bytes/s, zero latency: a 1000-byte payload takes ~1s.
        net = Network(sim, default_link=Link(latency=0.0, bandwidth=1000.0))
        a, b = net.node("a"), net.node("b")
        sock_b = b.datagram_socket(9)
        sock_a = a.datagram_socket()
        arrival = {}

        def receiver():
            envelope = yield sock_b.recv()
            arrival["t"] = sim.now
            arrival["size"] = envelope.size

        sim.process(receiver())
        payload = "x" * (1000 - HEADER_BYTES)
        sock_a.sendto(payload, Address("b", 9))
        sim.run()
        assert arrival["size"] == 1000
        assert arrival["t"] == pytest.approx(1.0)

    def test_larger_messages_take_longer_on_stream(self):
        sim = Simulation(seed=1)
        net = Network(sim, default_link=Link(latency=0.001, bandwidth=10_000.0))
        a, b = net.node("a"), net.node("b")
        listener = b.listen_stream(80)
        arrivals = []

        def server():
            conn = yield listener.accept()
            for _ in range(2):
                yield conn.recv()
                arrivals.append(sim.now)

        def client():
            conn = yield from a.connect_stream(Address("b", 80))
            base = sim.now
            conn.send("small", size=100)
            conn.send("big", size=10_000)
            arrivals.append(base)

        sim.process(server())
        sim.process(client())
        sim.run()
        base, first, second = arrivals[2], arrivals[0], arrivals[1]
        gap_small = first - base
        gap_big = second - first
        assert gap_big > 5 * gap_small


class TestEnvelope:
    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Envelope(
                payload="x",
                source=Address("a", 1),
                destination=Address("b", 2),
                size=-1,
                sent_at=0.0,
            )

    def test_envelope_records_source_and_time(self):
        sim = Simulation(seed=2)
        net = Network(sim, default_link=Link.lan())
        a, b = net.node("a"), net.node("b")
        sock_b = b.datagram_socket(9)
        sock_a = a.datagram_socket()
        seen = {}

        def receiver():
            envelope = yield sock_b.recv()
            seen["env"] = envelope

        sim.process(receiver())

        def sender():
            yield sim.timeout(3.0)
            sock_a.sendto("hello", Address("b", 9))

        sim.process(sender())
        sim.run()
        envelope = seen["env"]
        assert envelope.source == sock_a.address
        assert envelope.destination == Address("b", 9)
        assert envelope.sent_at == pytest.approx(3.0)


class TestJitterDeterminism:
    def test_same_seed_same_delays(self):
        def trace(seed):
            sim = Simulation(seed=seed)
            net = Network(sim, default_link=Link(latency=0.01, jitter=0.01))
            a, b = net.node("a"), net.node("b")
            sock_b = b.datagram_socket(9)
            sock_a = a.datagram_socket()
            times = []

            def receiver():
                while True:
                    yield sock_b.recv()
                    times.append(sim.now)

            sim.process(receiver())
            for i in range(10):
                sock_a.sendto(i, Address("b", 9))
            sim.run()
            return times

        assert trace(5) == trace(5)
        assert trace(5) != trace(6)
