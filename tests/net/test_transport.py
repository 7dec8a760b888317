"""Unit tests for stream connections, listeners, and datagram sockets."""

from __future__ import annotations

import pytest

from repro.errors import (
    AddressInUse,
    ConnectionClosed,
    ConnectionRefused,
    NetworkError,
    NoRouteError,
)
from repro.net import Address, Link, Network


class TestStreamConnection:
    def test_round_trip(self, sim, net):
        a, b = net.node("a"), net.node("b")
        listener = b.listen_stream(80)
        log = {}

        def server():
            conn = yield listener.accept()
            envelope = yield conn.recv()
            conn.send(envelope.payload.upper())

        def client():
            conn = yield from a.connect_stream(Address("b", 80))
            conn.send("hello")
            envelope = yield conn.recv()
            log["reply"] = envelope.payload
            conn.close()

        sim.process(server())
        sim.process(client())
        sim.run()
        assert log["reply"] == "HELLO"

    def test_handshake_costs_a_round_trip(self, sim):
        net = Network(sim, default_link=Link(latency=0.05, bandwidth=None))
        a, b = net.node("a"), net.node("b")
        b.listen_stream(80)
        connect_time = {}

        def client():
            yield from a.connect_stream(Address("b", 80))
            connect_time["t"] = sim.now

        sim.process(client())
        sim.run()
        assert connect_time["t"] == pytest.approx(0.1)

    def test_fifo_delivery_per_connection(self, sim, net):
        a, b = net.node("a"), net.node("b")
        listener = b.listen_stream(80)
        received = []

        def server():
            conn = yield listener.accept()
            for _ in range(20):
                envelope = yield conn.recv()
                received.append(envelope.payload)

        def client():
            conn = yield from a.connect_stream(Address("b", 80))
            for i in range(20):
                conn.send(i, size=100 * (20 - i))  # big first, small last
            yield sim.timeout(0)

        sim.process(server())
        sim.process(client())
        sim.run()
        assert received == list(range(20))

    def test_connect_refused_without_listener(self, sim, net):
        a, _b = net.node("a"), net.node("b")

        def client():
            yield from a.connect_stream(Address("b", 80))

        with pytest.raises(ConnectionRefused):
            sim.run(sim.process(client()))

    def test_connect_unknown_host(self, sim, net):
        a = net.node("a")

        def client():
            yield from a.connect_stream(Address("ghost", 80))

        with pytest.raises(NoRouteError):
            sim.run(sim.process(client()))

    def test_close_delivers_pending_then_eof(self, sim, net):
        a, b = net.node("a"), net.node("b")
        listener = b.listen_stream(80)
        got = []

        def server():
            conn = yield listener.accept()
            while True:
                try:
                    envelope = yield conn.recv()
                except ConnectionClosed:
                    got.append("eof")
                    return
                got.append(envelope.payload)

        def client():
            conn = yield from a.connect_stream(Address("b", 80))
            conn.send("one")
            conn.send("two")
            conn.close()

        sim.process(server())
        sim.process(client())
        sim.run()
        assert got == ["one", "two", "eof"]

    def test_send_after_close_raises(self, sim, net):
        a, b = net.node("a"), net.node("b")
        b.listen_stream(80)
        outcome = {}

        def client():
            conn = yield from a.connect_stream(Address("b", 80))
            conn.close()
            try:
                conn.send("late")
            except ConnectionClosed:
                outcome["raised"] = True

        sim.process(client())
        sim.run()
        assert outcome.get("raised")


class TestStreamTeardown:
    """A locally closed endpoint lets go of its peer; nothing observable moves."""

    @staticmethod
    def connect(sim, net):
        """An established (client, server) pair between hosts ``a`` and ``b``."""
        a, b = net.node("a"), net.node("b")
        listener = b.listen_stream(80)
        ends = {}

        def server():
            ends["server"] = yield listener.accept()

        def client():
            ends["client"] = yield from a.connect_stream(Address("b", 80))

        sim.process(server())
        sim.process(client())
        sim.run()
        return ends["client"], ends["server"]

    @pytest.mark.parametrize("teardown", ["close", "abort", "sever"])
    def test_send_after_teardown_raises_connection_closed(self, sim, net, teardown):
        client, _server = self.connect(sim, net)
        getattr(client, teardown)()
        assert client.peer is None
        with pytest.raises(ConnectionClosed, match="locally closed"):
            client.send("late")

    def test_second_close_is_a_no_op(self, sim, net):
        client, server = self.connect(sim, net)
        client.close()
        sent = (client.messages_sent, client.bytes_sent)
        client.close()
        client.abort()  # close() again, then fails local receives: no second FIN
        assert (client.messages_sent, client.bytes_sent) == sent
        sim.run()
        assert server.closed and not server.local_closed

    def test_in_flight_message_reaches_a_closing_peer(self, sim, net):
        # The delivery holds the receiving end itself, so data sent
        # before close() arrives (then EOF) although the sender has
        # already dropped its peer ...
        client, server = self.connect(sim, net)
        client.send("last words")
        client.close()
        assert client.peer is None
        got = []

        def reader():
            got.append((yield server.recv()).payload)
            with pytest.raises(ConnectionClosed):
                yield server.recv()

        sim.run(sim.process(reader()))
        assert got == ["last words"]

    def test_in_flight_message_to_a_closed_receiver_is_dropped(self, sim, net):
        # ... and data racing towards an end that closes meanwhile falls
        # on the floor, as it always did.
        client, server = self.connect(sim, net)
        client.send("too late")
        server.close()
        sim.run()
        assert not server._inbox.items
        assert client.closed and not client.local_closed  # saw the FIN

    def test_sever_link_with_half_closed_streams(self, sim, net):
        client, server = self.connect(sim, net)
        client.close()  # client.peer is gone, the server end is still open
        seen = []

        def reader():
            try:
                yield server.recv()
            except ConnectionClosed:
                seen.append(sim.now)

        sim.process(reader())
        sim.run(until=sim.now)  # the receive is pending, the FIN still in flight
        assert not server.closed
        net.sever_link("a", "b")
        assert server.local_closed and server.peer is None
        with pytest.raises(ConnectionClosed):
            server.send("into the void")
        sent_at = sim.now
        sim.run()
        assert seen == [sent_at]  # reset at once, not when the FIN would have landed
        net.restore_link("a", "b")
        net.sever_link("a", "b")  # both ends already dead: nothing to touch


class TestDatagramSocket:
    def test_round_trip(self, sim, net):
        a, b = net.node("a"), net.node("b")
        sock_b = b.datagram_socket(9000)
        sock_a = a.datagram_socket()
        got = []

        def receiver():
            envelope = yield sock_b.recv()
            got.append((envelope.payload, envelope.source))

        sim.process(receiver())
        sock_a.sendto({"ping": 1}, Address("b", 9000))
        sim.run()
        assert got == [({"ping": 1}, sock_a.address)]

    def test_lossy_link_drops_share(self, sim):
        net = Network(sim, default_link=Link(latency=0.001, loss=0.5))
        a, b = net.node("a"), net.node("b")
        sock_b = b.datagram_socket(9)
        sock_a = a.datagram_socket()
        got = []

        def receiver():
            while True:
                envelope = yield sock_b.recv()
                got.append(envelope.payload)

        sim.process(receiver())
        for i in range(400):
            sock_a.sendto(i, Address("b", 9))
        sim.run(until=1.0)
        assert 120 < len(got) < 280
        assert sock_a.datagrams_dropped == 400 - len(got)

    def test_send_to_unbound_port_is_silent(self, sim, net):
        a, _b = net.node("a"), net.node("b")
        sock = a.datagram_socket()
        sock.sendto("void", Address("b", 1234))
        sim.run()  # nothing raises

    def test_closed_socket_rejects_io(self, sim, net):
        a = net.node("a")
        sock = a.datagram_socket(5)
        sock.close()
        with pytest.raises(NetworkError):
            sock.sendto("x", Address("a", 5))
        with pytest.raises(NetworkError):
            sock.recv()

    def test_port_reuse_after_close(self, sim, net):
        a = net.node("a")
        sock = a.datagram_socket(5)
        sock.close()
        a.datagram_socket(5)  # no AddressInUse


class TestBinding:
    def test_duplicate_bind_raises(self, sim, net):
        a = net.node("a")
        a.listen_stream(80)
        with pytest.raises(AddressInUse):
            a.listen_stream(80)
        with pytest.raises(AddressInUse):
            a.datagram_socket(80)

    def test_ephemeral_ports_unique(self, sim, net):
        a = net.node("a")
        ports = {a.datagram_socket().address.port for _ in range(10)}
        assert len(ports) == 10

    def test_duplicate_node_name_rejected(self, sim, net):
        net.node("dup")
        with pytest.raises(NetworkError):
            net.node("dup")


class TestTopology:
    def test_explicit_link_overrides_default(self, sim):
        net = Network(sim, default_link=Link(latency=0.5))
        a, b = net.node("a"), net.node("b")
        fast = Link(latency=0.001)
        net.connect(a, b, fast)
        assert net.link_between("a", "b") is fast
        assert net.link_between("b", "a") is fast

    def test_no_route_without_default(self, sim):
        net = Network(sim)
        net.node("a")
        net.node("b")
        with pytest.raises(NoRouteError):
            net.link_between("a", "b")

    def test_loopback_for_same_host(self, sim, net):
        link = net.link_between("x-not-registered", "x-not-registered")
        assert link.latency <= Link.lan().latency

    def test_traffic_accounting(self, sim, net):
        a, b = net.node("a"), net.node("b")
        sock_b = b.datagram_socket(9)
        sock_a = a.datagram_socket()
        sock_a.sendto("hello", Address("b", 9))
        sim.run()
        assert net.metrics.counter("net.messages") == 1
        assert net.metrics.counter("net.bytes") > 5
