"""Network topology: named nodes joined by links — and their failures.

A :class:`Network` registers nodes and the links between them, resolves
addresses to bound sockets/listeners, and accounts traffic. A
:class:`Node` is one host: it binds listeners and sockets and opens
stream connections. All broker-side behaviour lives above this layer,
in the :mod:`repro.core` stage pipeline; the network only moves
messages.

The network is also where link faults land (driven by
:class:`~repro.net.faults.FaultInjector`): :meth:`Network.sever_link`
partitions a host pair — established streams crossing it are killed,
new connects raise :class:`NoRouteError`, datagrams vanish — and
:meth:`Network.override_link` swaps in a degraded link (extra latency,
loss, less bandwidth) until cleared. Both are exact inverses of their
restore operations, so a healed network behaves like one that never
failed (apart from the connections lost in between). Fault windows
may overlap: a pair stays severed until its last open
:class:`~repro.net.faults.LinkDown` ends, and of several open overrides
the newest is in force.

Every message looks up its path in a per-direction :class:`Route`
(link in force, RNG substream, severed flag), built once per host pair
and refreshed in place by :meth:`Network.connect` and the fault
methods, so a stream that holds its route always reads the current
state.
"""

from __future__ import annotations

import random
import weakref
from typing import Dict, FrozenSet, List, Optional, Set, Tuple, Union

from ..errors import (
    AddressInUse,
    ConnectionRefused,
    NetworkError,
    NoRouteError,
)
from ..metrics import MetricsRegistry
from ..sim.core import Event, ProcessGenerator, Simulation
from .address import Address
from .link import Link
from .message import HEADER_BYTES, Envelope
from .transport import DatagramSocket, StreamConnection, StreamListener

__all__ = ["Network", "Node", "Route"]

#: First ephemeral port handed out by :meth:`Node.ephemeral_port`.
EPHEMERAL_BASE = 49152


class Route:
    """The resolved a→b direction of a host pair: what each message reads.

    ``link`` is the link in force (a fault override, the configured
    link, the default link or the loopback), ``rng`` the direction's
    jitter/loss substream, and ``severed`` whether the pair is
    partitioned. :meth:`Network.route` hands out one object per
    direction and updates it in place whenever any of the three changes.
    """

    __slots__ = ("link", "rng", "severed")

    def __init__(self, link: Link, rng: random.Random, severed: bool) -> None:
        self.link = link
        self.rng = rng
        self.severed = severed

    def __repr__(self) -> str:
        return f"<Route {self.link!r}{' severed' if self.severed else ''}>"


class Node:
    """A host in the simulated network."""

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.sim = network.sim
        self.name = name
        self._bound: Dict[int, Union[StreamListener, DatagramSocket]] = {}
        self._next_ephemeral = EPHEMERAL_BASE

    def address(self, port: int) -> Address:
        """This node's address at *port*."""
        return Address(self.name, port)

    def ephemeral_port(self) -> int:
        """Allocate a fresh client-side port number."""
        while self._next_ephemeral in self._bound:
            self._next_ephemeral += 1
        port = self._next_ephemeral
        self._next_ephemeral += 1
        return port

    # -- binding -------------------------------------------------------

    def listen_stream(self, port: int) -> StreamListener:
        """Bind a stream listener at *port*."""
        self._check_free(port)
        listener = StreamListener(self, port)
        self._bound[port] = listener
        return listener

    def datagram_socket(self, port: Optional[int] = None) -> DatagramSocket:
        """Bind a datagram socket (ephemeral port when none given)."""
        if port is None:
            port = self.ephemeral_port()
        else:
            self._check_free(port)
        socket = DatagramSocket(self, port)
        self._bound[port] = socket
        return socket

    def _check_free(self, port: int) -> None:
        if port in self._bound:
            raise AddressInUse(f"{self.name}:{port} is already bound")

    def _unbind(self, port: int) -> None:
        self._bound.pop(port, None)

    # -- connecting ----------------------------------------------------

    def connect_stream(self, destination: Address) -> ProcessGenerator:
        """Open a stream connection to *destination*.

        A generator for use with ``yield from``; costs one full round
        trip on the connecting path (the TCP handshake the paper's
        API-based baseline pays on every backend access). Raises
        :class:`ConnectionRefused` if nothing listens there.
        """
        network = self.network
        name = self.name
        host = destination.host
        routes = network._routes
        route = routes.get((name, host)) or network.route(name, host)
        # Two `Link.delay(HEADER_BYTES, rng)` calls inlined, drawing the
        # RNG exactly as they do: one uniform each, only with jitter.
        link = route.link
        rng = route.rng
        jitter = link.jitter
        bandwidth = link.bandwidth
        there = link.latency
        if jitter:
            there += rng.uniform(0.0, jitter)
        if bandwidth is not None:
            there += HEADER_BYTES / bandwidth
        back = link.latency
        if jitter:
            back += rng.uniform(0.0, jitter)
        if bandwidth is not None:
            back += HEADER_BYTES / bandwidth
        yield there + back

        if route.severed:
            raise NoRouteError(f"link {name!r}<->{host!r} is down")
        target = network.resolve(destination)
        if not isinstance(target, StreamListener) or target.closed:
            raise ConnectionRefused(f"nothing listening at {destination}")

        local = Address(name, self.ephemeral_port())
        client = StreamConnection(network, local, destination, route)
        server = StreamConnection(
            network,
            destination,
            local,
            routes.get((host, name)) or network.route(host, name),
        )
        client.peer = server
        server.peer = client
        target._offer(server)
        network._register_stream(client)
        network._register_stream(server)
        network._connections.value += 1.0
        return client

    def __repr__(self) -> str:
        return f"<Node {self.name!r} bound={sorted(self._bound)}>"


class Network:
    """The set of nodes and links making up one simulated network.

    Parameters
    ----------
    sim:
        The owning simulation.
    default_link:
        Optional link used for any node pair without an explicit link —
        convenient for all-on-one-LAN testbeds.
    """

    def __init__(
        self, sim: Simulation, default_link: Optional[Link] = None
    ) -> None:
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self._links: Dict[Tuple[str, str], Link] = {}
        self._default_link = default_link
        self.metrics = MetricsRegistry()
        self._loopback = Link.loopback()
        # Open LinkDown windows per pair, and per pair the open override
        # windows as (window, link) entries, newest last (in force).
        self._severed: Dict[FrozenSet[str], int] = {}
        self._link_overrides: Dict[FrozenSet[str], List[Tuple[object, Link]]] = {}
        # Established streams, registered at connect time so sever_link
        # can kill the ones crossing a partitioned pair. Weak refs in
        # insertion order (NOT a WeakSet: its iteration order is
        # id-dependent and would make fault runs nondeterministic),
        # pruned amortizedly once the dead refs pile up.
        self._streams: List["weakref.ref"] = []
        self._stream_prune_at = 4096
        # Hot-path handles and caches: traffic counters, per-direction
        # link RNGs and routes (one f-string + registry lookup per pair,
        # not per message).
        self._messages = self.metrics.handle("net.messages")
        self._bytes = self.metrics.handle("net.bytes")
        self._connections = self.metrics.handle("net.connections")
        self._link_rngs: Dict[Tuple[str, str], random.Random] = {}
        self._routes: Dict[Tuple[str, str], Route] = {}
        # Hosts taken out for good (remove_node): no route to them again.
        self._removed: Set[str] = set()

    @property
    def default_link(self) -> Optional[Link]:
        """The link of every node pair without an explicit one, if any."""
        return self._default_link

    @default_link.setter
    def default_link(self, link: Optional[Link]) -> None:
        self._default_link = link
        for (a, b), route in self._routes.items():
            route.link = self.link_between(a, b)

    def node(self, name: str) -> Node:
        """Create and register a node named *name*."""
        if name in self.nodes or name in self._removed:
            raise NetworkError(f"node {name!r} already exists or was removed")
        node = Node(self, name)
        self.nodes[name] = node
        return node

    def remove_node(self, name: str) -> None:
        """Take host *name* out of the network for good.

        Drops the node and every explicit link, cached :class:`Route`,
        fault override and open partition that names it, and releases
        the jitter/loss substreams of its directions
        (:meth:`~repro.sim.core.Simulation.forget_rng`), so the name
        cannot come back with a restarted sequence. Nothing is closed,
        drawn or scheduled: whatever is bound on the host just becomes
        unreachable. A later send or connect to the host raises
        :class:`NoRouteError`, and the name cannot be a node again. An
        elastic pool removes a retired unit's backend this way.
        """
        if self.nodes.pop(name, None) is None:
            raise NetworkError(f"unknown node {name!r}")
        self._removed.add(name)
        for table in (self._links, self._routes):
            for key in [key for key in table if name in key]:
                del table[key]
        for pairs in (self._severed, self._link_overrides):
            for pair in [pair for pair in pairs if name in pair]:
                del pairs[pair]
        for a, b in [key for key in self._link_rngs if name in key]:
            del self._link_rngs[(a, b)]
            self.sim.forget_rng(f"net.link.{a}->{b}")

    def connect(self, a: Union[Node, str], b: Union[Node, str], link: Link) -> None:
        """Join nodes *a* and *b* with *link* (bidirectional)."""
        name_a = a.name if isinstance(a, Node) else a
        name_b = b.name if isinstance(b, Node) else b
        for name in (name_a, name_b):
            if name not in self.nodes:
                raise NetworkError(f"unknown node {name!r}")
        self._links[(name_a, name_b)] = link
        self._links[(name_b, name_a)] = link
        self._refresh(name_a, name_b)

    def configured_link(self, a: str, b: str) -> Link:
        """The link joining hosts *a* and *b*, ignoring fault overrides.

        The explicit link from :meth:`connect`, else the default link;
        the loopback when a == b. Raises :class:`NoRouteError` when
        there is neither.
        """
        if a == b:
            return self._loopback
        link = self._links.get((a, b))
        if link is not None:
            return link
        if self._default_link is not None:
            return self._default_link
        raise NoRouteError(f"no link between {a!r} and {b!r}")

    def link_between(self, a: str, b: str) -> Link:
        """The link joining hosts *a* and *b* (loopback when a == b).

        The newest open fault-window override installed with
        :meth:`override_link` takes precedence over the configured link.
        """
        if self._link_overrides:
            overrides = self._link_overrides.get(frozenset((a, b)))
            if overrides:
                return overrides[-1][1]
        return self.configured_link(a, b)

    def link_rng(self, a: str, b: str) -> random.Random:
        """The RNG substream used for jitter/loss on the a→b direction.

        The registry returns the same stream object for a name's
        lifetime, so the pair→stream cache is purely a lookup shortcut.
        """
        rng = self._link_rngs.get((a, b))
        if rng is None:
            rng = self.sim.rng(f"net.link.{a}->{b}")
            self._link_rngs[(a, b)] = rng
        return rng

    def route(self, a: str, b: str) -> Route:
        """The a→b :class:`Route`, built on first use and then cached.

        The same object is returned for the network's lifetime: link
        changes and fault windows update it in place, so holders (an
        established stream) never go stale. Raises
        :class:`NoRouteError` when the pair has no link or either host
        was removed (:meth:`remove_node`).
        """
        route = self._routes.get((a, b))
        if route is None:
            removed = self._removed
            if removed and (a in removed or b in removed):
                raise NoRouteError(f"host {b if b in removed else a!r} was removed")
            route = Route(
                self.link_between(a, b), self.link_rng(a, b), self.link_severed(a, b)
            )
            self._routes[(a, b)] = route
        return route

    def _refresh(self, a: str, b: str) -> None:
        """Bring both directions' cached routes up to date (pair changed)."""
        for key in ((a, b), (b, a)):
            route = self._routes.get(key)
            if route is not None:
                route.link = self.link_between(*key)
                route.severed = self.link_severed(*key)

    # -- link faults ---------------------------------------------------

    def link_severed(self, a: str, b: str) -> bool:
        """True while the *a*/*b* pair is partitioned (loopback never is)."""
        return bool(self._severed) and frozenset((a, b)) in self._severed

    def sever_link(self, a: str, b: str) -> None:
        """Partition hosts *a* and *b*, for one more open window.

        Established streams crossing the pair are killed on both
        endpoints — like a TCP reset, not an orderly FIN: pending
        receives fail with :class:`~repro.errors.ConnectionClosed`
        immediately, nothing crosses the dead link. New stream connects
        raise :class:`NoRouteError` and datagrams are silently lost
        until every :meth:`sever_link` has had its :meth:`restore_link`.
        The loopback cannot be severed (:class:`NetworkError`).
        """
        if a == b:
            raise NetworkError(f"cannot sever the loopback of {a!r}")
        pair = frozenset((a, b))
        opened = self._severed.get(pair, 0)
        self._severed[pair] = opened + 1
        if opened:
            return  # already partitioned: nothing left to kill
        self._refresh(a, b)
        live: List["weakref.ref"] = []
        for ref in self._streams:
            stream = ref()
            if stream is None or stream.closed:
                continue
            live.append(ref)
            endpoints = frozenset(
                (stream.local_address.host, stream.remote_address.host)
            )
            if endpoints == pair:
                stream.sever()
        self._streams = live
        self.metrics.increment("net.links.severed")

    def restore_link(self, a: str, b: str) -> None:
        """Close one partition window of *a*/*b* (no-op if not severed).

        The pair heals when its last open window closes.
        """
        pair = frozenset((a, b))
        opened = self._severed.get(pair)
        if opened is None:
            return
        if opened > 1:
            self._severed[pair] = opened - 1
            return
        del self._severed[pair]
        self._refresh(a, b)

    def override_link(self, a: str, b: str, link: Link, window: object = None) -> None:
        """Put *link* in force for *a*/*b* until :meth:`clear_override`.

        *window* names the fault window the override belongs to:
        overlapping windows stack, the newest in force, and each is
        cleared by its own name. Installing under an open window's name
        replaces that entry. The loopback cannot be overridden
        (:class:`NetworkError`), nor a pair without a link
        (:class:`NoRouteError`).
        """
        if a == b:
            raise NetworkError(f"cannot override the loopback of {a!r}")
        self.configured_link(a, b)
        overrides = self._link_overrides.setdefault(frozenset((a, b)), [])
        overrides[:] = [entry for entry in overrides if entry[0] != window]
        overrides.append((window, link))
        self._refresh(a, b)

    def clear_override(self, a: str, b: str, window: object = None) -> None:
        """Remove *window*'s override of *a*/*b* (no-op if none installed)."""
        pair = frozenset((a, b))
        overrides = self._link_overrides.get(pair, [])
        kept = [entry for entry in overrides if entry[0] != window]
        if len(kept) == len(overrides):
            return
        if kept:
            self._link_overrides[pair] = kept
        else:
            del self._link_overrides[pair]
        self._refresh(a, b)

    def _register_stream(self, connection: StreamConnection) -> None:
        """Track an established stream for fault-time teardown."""
        self._streams.append(weakref.ref(connection))
        if len(self._streams) >= self._stream_prune_at:
            self._streams = [
                ref for ref in self._streams if ref() is not None
            ]
            self._stream_prune_at = max(4096, 2 * len(self._streams))

    def resolve(self, address: Address) -> Optional[Union[StreamListener, DatagramSocket]]:
        """The listener or socket bound at *address*, if any."""
        node = self.nodes.get(address.host)
        if node is None:
            raise NoRouteError(f"unknown host {address.host!r}")
        return node._bound.get(address.port)

    def _deliver_datagram(self, event: Event) -> None:
        envelope: Envelope = event._value
        try:
            target = self.resolve(envelope.destination)
        except NoRouteError:
            return
        if isinstance(target, DatagramSocket):
            target._deliver(envelope)
        # else: no socket bound — datagram silently dropped, like real UDP.

    def __repr__(self) -> str:
        return f"<Network nodes={len(self.nodes)} links={len(self._links) // 2}>"
