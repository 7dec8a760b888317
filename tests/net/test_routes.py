"""Cached routes: every send reads what an uncached lookup would.

:meth:`Network.route` resolves a direction's link, RNG and severed flag
once; the fault methods refresh it in place.
Each case below changes the pair between two sends and checks the
second send against the slow path (``link_severed``, ``link_between``,
``link_rng``) evaluated on a copy of the direction's RNG: the same
delay to the last bit (:meth:`Link.delay` is the reference for the
copies inlined in the send paths), the same lost counters, and the
same RNG state afterwards.

Also here: the overlap rules for link and slow-backend fault windows,
the unseverable loopback, and :meth:`Network.remove_node`, after which
nothing names the host and nothing reaches it.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import NetworkError, NoRouteError
from repro.net import Address, Link, Network
from repro.net.faults import FaultInjector, FaultPlan, LinkDegrade, LinkDown, SlowBackend
from repro.net.message import HEADER_BYTES
from repro.sim import Simulation

#: The link every pair starts on: jitter, so sends draw the RNG.
BASE = Link(latency=0.01, jitter=0.004, bandwidth=1e5)
#: The link a mid-run ``override_link`` installs.
OTHER = Link(latency=0.2, jitter=0.01, bandwidth=2e4)

#: name -> (change before the first send, change between the two sends)
CHANGES = {
    "override_link": (None, lambda net: net.override_link("a", "b", OTHER)),
    "clear_override": (
        lambda net: net.override_link("a", "b", OTHER),
        lambda net: net.clear_override("a", "b"),
    ),
    "sever_link": (None, lambda net: net.sever_link("a", "b")),
    "restore_link": (
        lambda net: net.sever_link("a", "b"),
        lambda net: net.restore_link("a", "b"),
    ),
}

SIZE = 200
#: A datagram payload whose estimated size is *SIZE*.
PAYLOAD = "x" * SIZE


def _network(seed: int = 7):
    sim = Simulation(seed=seed)
    net = Network(sim, default_link=BASE)
    net.node("a")
    net.node("b")
    return sim, net


def _expected(net: Network):
    """What the uncached slow path says the next a→b send does.

    Returns ``(outcome, rng_state_after)`` where the outcome is
    ``"lost"`` or the one-way delay, drawn from a copy of the RNG.
    """
    rng = random.Random()
    rng.setstate(net.link_rng("a", "b").getstate())
    if net.link_severed("a", "b"):
        return "lost", rng.getstate()
    return net.link_between("a", "b").delay(HEADER_BYTES + SIZE, rng), rng.getstate()


def _routes_fresh(net: Network) -> None:
    for a, b in (("a", "b"), ("b", "a")):
        route = net.route(a, b)
        assert route.link is net.link_between(a, b)
        assert route.severed == net.link_severed(a, b)
        assert route.rng is net.link_rng(a, b)


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_stream_send_after_change_matches_uncached_lookup(change):
    before, between = CHANGES[change]
    sim, net = _network()
    listener = net.nodes["b"].listen_stream(80)
    connecting = sim.process(net.nodes["a"].connect_stream(Address("b", 80)))
    sim.run()
    client = connecting.value
    accepted = listener.accept()
    # Half-close: the server end closes, so the client end is `closed`
    # yet still sends. It is the one stream a partition leaves alone,
    # which lets every change, sever_link included, reach its send.
    accepted.value.close()
    sim.run()
    assert client.closed and not client.local_closed

    if before is not None:
        before(net)
    for send in range(2):
        outcome, rng_after = _expected(net)
        lost = net.metrics.counter("net.stream.lost")
        now = sim.now
        client.send("x", size=SIZE)
        if outcome == "lost":
            assert net.metrics.counter("net.stream.lost") == lost + 1
        else:
            assert net.metrics.counter("net.stream.lost") == lost
            assert sim.scheduled == 1
            # The arrival instant as send computes it (FIFO clamp
            # idle: the previous message has landed).
            assert sim.peek() == now + ((now + outcome) - now)
        assert net.link_rng("a", "b").getstate() == rng_after
        sim.run()
        if send == 0:
            between(net)
            _routes_fresh(net)


@pytest.mark.parametrize("change", sorted(CHANGES))
def test_datagram_send_after_change_matches_uncached_lookup(change):
    before, between = CHANGES[change]
    sim, net = _network()
    net.nodes["b"].datagram_socket(90)
    socket = net.nodes["a"].datagram_socket(91)
    if before is not None:
        before(net)
    # Several rounds on each side of the change.
    for round_ in range(12):
        outcome, rng_after = _expected(net)
        lost = net.metrics.counter("net.datagrams.lost")
        now = sim.now
        socket.sendto(PAYLOAD, Address("b", 90))
        if outcome == "lost":
            assert net.metrics.counter("net.datagrams.lost") == lost + 1
            assert sim.scheduled == 0
        else:
            assert net.metrics.counter("net.datagrams.lost") == lost
            assert sim.peek() == now + outcome
        assert net.link_rng("a", "b").getstate() == rng_after
        sim.run()
        if round_ == 5:
            between(net)
            _routes_fresh(net)


class TestOverlappingWindows:
    def test_link_down_windows_heal_when_the_last_one_closes(self):
        sim, net = _network()
        plan = FaultPlan([
            LinkDown(a="a", b="b", at=1.0, duration=4.0),
            LinkDown(a="a", b="b", at=2.0, duration=5.0),
        ])
        FaultInjector(sim, plan, network=net).start()
        for until, severed in ((1.5, True), (3.0, True), (5.5, True), (7.5, False)):
            sim.run(until=until)
            assert net.link_severed("a", "b") is severed, until

    @pytest.mark.parametrize(
        "first, second, expected",
        [
            # the newer window ends last / first
            ((1.0, 4.0), (2.0, 5.0), ((1.5, 0.1), (3.0, 0.2), (5.5, 0.2), (7.5, 0.0))),
            ((1.0, 6.0), (2.0, 3.0), ((1.5, 0.1), (3.0, 0.2), (5.5, 0.1), (7.5, 0.0))),
        ],
    )
    def test_link_degrade_windows_do_not_compound(self, first, second, expected):
        sim, net = _network()
        plan = FaultPlan([
            LinkDegrade(a="a", b="b", at=first[0], duration=first[1], extra_latency=0.1),
            LinkDegrade(a="a", b="b", at=second[0], duration=second[1], extra_latency=0.2),
        ])
        FaultInjector(sim, plan, network=net).start()
        for until, extra in expected:
            sim.run(until=until)
            assert net.link_between("a", "b").latency == pytest.approx(
                BASE.latency + extra
            ), until
        assert net.link_between("a", "b") is BASE

    @pytest.mark.parametrize(
        "first, second, expected",
        [
            ((1.0, 4.0), (2.0, 5.0), ((1.5, 3.0), (3.0, 5.0), (5.5, 5.0), (7.5, 1.0))),
            ((1.0, 6.0), (2.0, 3.0), ((1.5, 3.0), (3.0, 5.0), (5.5, 3.0), (7.5, 1.0))),
        ],
    )
    def test_slow_backend_windows_restore_the_original_scale(
        self, first, second, expected
    ):
        from repro.http.server import BackendWebServer

        sim, net = _network()
        server = BackendWebServer(sim, net.nodes["b"], name="b1")
        plan = FaultPlan([
            SlowBackend(target="b1", at=first[0], duration=first[1], factor=3.0),
            SlowBackend(target="b1", at=second[0], duration=second[1], factor=5.0),
        ])
        FaultInjector(sim, plan, targets={"b1": server}).start()
        for until, scale in expected:
            sim.run(until=until)
            assert server.service_time_scale == scale, until
        sim.run(until=30.0)
        assert server.service_time_scale == 1.0


def test_loopback_cannot_be_severed_or_overridden():
    _sim, net = _network()
    with pytest.raises(NetworkError):
        net.sever_link("a", "a")
    with pytest.raises(NetworkError):
        net.override_link("a", "a", OTHER)
    assert not net.link_severed("a", "a")


class TestRemoveNode:
    def _used_network(self):
        """a, b, c with traffic both ways on a–b, an override and a partition."""
        sim, net = _network()
        net.node("c")
        net.override_link("a", "b", OTHER, window="degrade")
        net.nodes["b"].datagram_socket(90)
        net.nodes["c"].datagram_socket(90)
        socket = net.nodes["a"].datagram_socket(91)
        for host in ("b", "c"):
            for _ in range(4):
                socket.sendto(PAYLOAD, Address(host, 90))
        net.route("b", "a")
        net.sever_link("a", "b")
        sim.run()
        return sim, net, socket

    def test_nothing_names_the_host_afterwards(self):
        sim, net, _socket = self._used_network()
        assert ("a", "b") in net._routes and ("b", "a") in net._routes
        net.remove_node("b")
        assert "b" not in net.nodes
        for table in (net._routes, net._link_rngs):
            assert not [key for key in table if "b" in key]
        for pairs in (net._severed, net._link_overrides):
            assert not [pair for pair in pairs if "b" in pair]
        for name in ("net.link.a->b", "net.link.b->a"):
            with pytest.raises(LookupError):
                sim.rng(name)
        with pytest.raises(NetworkError):
            net.remove_node("b")
        with pytest.raises(NetworkError):
            net.node("b")

    def test_the_other_hosts_routes_are_untouched(self):
        sim, net, _socket = self._used_network()
        route = net.route("a", "c")
        state = net.link_rng("a", "c").getstate()
        net.remove_node("b")
        assert net.route("a", "c") is route
        assert route.link is net.link_between("a", "c")
        assert net.link_rng("a", "c").getstate() == state

    def test_sends_and_connects_to_the_host_raise_no_route(self):
        sim, net, socket = self._used_network()
        net.remove_node("b")
        scheduled = sim.scheduled
        with pytest.raises(NoRouteError):
            socket.sendto(PAYLOAD, Address("b", 90))

        def connect():
            yield from net.nodes["a"].connect_stream(Address("b", 80))

        with pytest.raises(NoRouteError):
            sim.run(sim.process(connect()))
        assert sim.scheduled == scheduled
