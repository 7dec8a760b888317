"""Transport endpoints: reliable FIFO streams and unreliable datagrams.

* :class:`StreamConnection` — a TCP-like, connection-oriented channel.
  Establishing one costs a full round trip (the paper's argument for
  broker-side persistent connections rests on exactly this cost);
  messages arrive in order, reliably — *while the link underneath is
  up*. A partition (:meth:`Network.sever_link`) kills crossing streams
  unilaterally: :meth:`StreamConnection.sever` fails pending receives
  without any goodbye crossing the wire, and
  :meth:`StreamConnection.abort` is the crash-local variant (FIN to the
  peer, immediate local teardown) used by
  :meth:`~repro.http.server.BackendWebServer.crash`.
* :class:`DatagramSocket` — a UDP-like socket: connectionless, cheap, no
  delivery or ordering guarantee; datagrams sent across a severed link
  are counted lost. The paper's distributed broker model exchanges
  request/response messages with the front end over UDP.
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Deque, Optional

from ..errors import ConnectionClosed, NetworkError
from ..sim.core import _PENDING, Event, Simulation
from .address import Address
from .message import HEADER_BYTES, Envelope, estimate_size

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .network import Network, Node, Route

__all__ = ["StreamConnection", "StreamListener", "DatagramSocket"]


class _CloseMarker:
    """Sentinel delivered in-band to signal an orderly shutdown."""

    __repr__ = lambda self: "<close>"  # noqa: E731


_CLOSE = _CloseMarker()


class _InboxGet(Event):
    """Pending receive."""

    __slots__ = ()

    def __init__(self, sim: Simulation) -> None:
        # ``Event.__init__`` inlined: one of these is allocated per
        # stream/datagram receive, making this a hot constructor.
        self.sim = sim
        self.callbacks = []
        self._value = _PENDING
        self._ok = None
        self.defused = False
        self._waiter = None


class _Delivery(Event):
    """A message in flight: created triggered, dispatched on arrival."""

    __slots__ = ()

    def __init__(
        self, sim: Simulation, callback: Callable[[Event], None], envelope: Envelope
    ) -> None:
        # ``Event.__init__`` inlined, with the outcome ``succeed`` would
        # set: one of these is allocated per message sent. The sender
        # pushes it on the heap itself, with the entry
        # ``succeed(envelope, delay)`` would push (same time expression,
        # one sequence number).
        self.sim = sim
        self.callbacks = [callback]
        self._value = envelope
        self._ok = True
        self.defused = False
        self._waiter = None


class _Inbox:
    """Receive buffer delivering items to waiting events in FIFO order.

    A receive is completed as ``Event.succeed(item)`` would complete it
    — the same outcome and the same ``(now, next sequence number)`` heap
    entry — without its two calls: one happens per message received.
    """

    __slots__ = ("sim", "items", "_getters", "closed")

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.items: Deque[Any] = deque()
        self._getters: Deque[_InboxGet] = deque()
        self.closed = False

    def put(self, item: Any) -> None:
        if self._getters:
            getter = self._getters.popleft()
            getter._ok = True
            getter._value = item
            sim = self.sim
            heappush(sim._heap, (sim._now, next(sim._counter), getter))
        else:
            self.items.append(item)

    def get(self) -> _InboxGet:
        sim = self.sim
        event = _InboxGet(sim)
        if self.items:
            event._ok = True
            event._value = self.items.popleft()
            heappush(sim._heap, (sim._now, next(sim._counter), event))
        elif self.closed:
            event.fail(ConnectionClosed("connection closed by peer"))
        else:
            self._getters.append(event)
        return event

    def close(self) -> None:
        self.closed = True
        while self._getters:
            self._getters.popleft().fail(
                ConnectionClosed("connection closed by peer")
            )


class StreamConnection:
    """One side of an established, reliable, ordered byte stream.

    Obtained from :meth:`Node.connect_stream` (client side) or
    :meth:`StreamListener.accept` (server side). ``send`` is
    fire-and-forget (infinite socket buffer); ``recv`` returns an event
    that succeeds with the next payload or fails with
    :class:`ConnectionClosed`.
    """

    __slots__ = (
        "_network", "sim", "local_address", "remote_address", "peer",
        "_inbox", "_next_arrival", "local_closed", "bytes_sent",
        "messages_sent", "_route", "__weakref__",
    )

    def __init__(
        self,
        network: "Network",
        local_address: Address,
        remote_address: Address,
        route: "Route",
    ) -> None:
        self._network = network
        #: The local→remote :class:`~repro.net.network.Route`, resolved
        #: once; the network keeps it current through fault windows.
        self._route = route
        self.sim = network.sim
        self.local_address = local_address
        self.remote_address = remote_address
        self.peer: Optional["StreamConnection"] = None
        self._inbox = _Inbox(self.sim)
        self._next_arrival = 0.0
        self.local_closed = False
        self.bytes_sent = 0
        self.messages_sent = 0

    @property
    def closed(self) -> bool:
        """``True`` once either side has closed the connection."""
        return self.local_closed or self._inbox.closed

    def send(self, payload: Any, size: Optional[int] = None) -> Event:
        """Transmit *payload*; returns the delivery event (rarely awaited)."""
        if self.local_closed:
            raise ConnectionClosed("send() on a locally closed connection")
        if self.peer is None:
            raise NetworkError("connection has no peer (not established)")
        network = self._network
        route = self._route
        size = HEADER_BYTES + (estimate_size(payload) if size is None else size)
        if route.severed:
            # Partitioned mid-conversation: the bytes never arrive.
            network.metrics.increment("net.stream.lost")
            return Event(self.sim).succeed(None)
        link = route.link
        # `Link.delay` inlined (this is the busiest call site); the RNG
        # must be consumed exactly as there: one uniform iff jitter.
        delay = link.latency
        if link.jitter:
            delay += route.rng.uniform(0.0, link.jitter)
        bandwidth = link.bandwidth
        if bandwidth is not None:
            delay += size / bandwidth
        sim = self.sim
        now = sim._now
        # FIFO: a message never arrives before its predecessor.
        arrival = now + delay
        if arrival < self._next_arrival:
            arrival = self._next_arrival
        self._next_arrival = arrival
        self.bytes_sent += size
        self.messages_sent += 1
        network._messages.value += 1.0  # one message of `size` bytes
        network._bytes.value += size
        envelope = Envelope(
            payload=payload,
            source=self.local_address,
            destination=self.remote_address,
            size=size,
            sent_at=now,
        )
        delivery = _Delivery(sim, self.peer._deliver, envelope)
        heappush(sim._heap, (now + (arrival - now), next(sim._counter), delivery))
        return delivery

    def _deliver(self, event: Event) -> None:
        envelope = event._value
        if self.local_closed:
            return  # receiver already gone; bytes fall on the floor
        if envelope.payload is _CLOSE:
            self._inbox.close()
        else:
            self._inbox.put(envelope)

    def recv(self) -> Event:
        """Event succeeding with the next :class:`Envelope`."""
        return self._inbox.get()

    def close(self) -> None:
        """Orderly shutdown: the peer sees buffered data, then EOF."""
        if self.local_closed:
            return
        if self.peer is not None and not self._inbox.closed:
            self.send(_CLOSE, 0)
        self.local_closed = True
        # A closed end never transmits again; dropping the peer breaks
        # the client<->server cycle (in-flight deliveries hold the peer).
        self.peer = None

    def abort(self) -> None:
        """Crash-local teardown: FIN to the peer, this side dies *now*.

        Unlike :meth:`close`, any receive pending on this endpoint fails
        immediately with :class:`ConnectionClosed` — the process that
        owned the connection is gone.
        """
        self.close()
        self._inbox.close()

    def sever(self) -> None:
        """Kill this endpoint without telling the peer.

        Used when the link underneath is partitioned
        (:meth:`Network.sever_link`): nothing crosses the dead link, so
        no FIN is sent; pending receives fail with
        :class:`ConnectionClosed` and later sends raise it.
        """
        self.local_closed = True
        self.peer = None
        self._inbox.close()

    def __repr__(self) -> str:
        state = "closed" if self.closed else "open"
        return f"<StreamConnection {self.local_address}->{self.remote_address} {state}>"


class StreamListener:
    """A bound, listening stream endpoint; ``accept`` yields connections."""

    __slots__ = ("node", "sim", "address", "_pending", "closed")

    def __init__(self, node: "Node", port: int) -> None:
        self.node = node
        self.sim = node.sim
        self.address = Address(node.name, port)
        self._pending = _Inbox(self.sim)
        self.closed = False

    def accept(self) -> Event:
        """Event succeeding with the next established :class:`StreamConnection`."""
        return self._pending.get()

    def _offer(self, connection: StreamConnection) -> None:
        """Queue an incoming connection for :meth:`accept`."""
        self._pending.put(connection)

    def close(self) -> None:
        """Stop listening; pending accepts fail with :class:`ConnectionClosed`."""
        if not self.closed:
            self.closed = True
            self.node._unbind(self.address.port)
            self._pending.close()

    def __repr__(self) -> str:
        return f"<StreamListener {self.address} pending={len(self._pending.items)}>"


class DatagramSocket:
    """A UDP-like socket: unordered, unreliable, connectionless."""

    __slots__ = (
        "node", "sim", "_network", "address", "_inbox", "closed",
        "datagrams_sent", "datagrams_dropped",
    )

    def __init__(self, node: "Node", port: int) -> None:
        self.node = node
        self.sim = node.sim
        self._network = node.network
        self.address = Address(node.name, port)
        self._inbox = _Inbox(self.sim)
        self.closed = False
        self.datagrams_sent = 0
        self.datagrams_dropped = 0

    def sendto(self, payload: Any, destination: Address) -> None:
        """Send one datagram; silently dropped on loss or missing receiver."""
        if self.closed:
            raise NetworkError("sendto() on a closed socket")
        network = self._network
        size = HEADER_BYTES + estimate_size(payload)
        key = (self.address.host, destination.host)
        route = network._routes.get(key) or network.route(*key)
        if route.severed:
            self.datagrams_sent += 1
            self.datagrams_dropped += 1
            network.metrics.increment("net.datagrams.lost")
            return
        link = route.link
        rng = route.rng
        self.datagrams_sent += 1
        network._messages.value += 1.0  # one message of `size` bytes
        network._bytes.value += size
        # `Link.drops` inlined: sample the RNG only when lossy, exactly
        # as the method does.
        loss = link.loss
        if loss > 0.0 and rng.random() < loss:
            self.datagrams_dropped += 1
            network.metrics.increment("net.datagrams.lost")
            return
        sim = self.sim
        envelope = Envelope(
            payload=payload,
            source=self.address,
            destination=destination,
            size=size,
            sent_at=sim._now,
        )
        # `Link.delay` inlined, consuming the RNG identically.
        delay = link.latency
        if link.jitter:
            delay += rng.uniform(0.0, link.jitter)
        bandwidth = link.bandwidth
        if bandwidth is not None:
            delay += size / bandwidth
        delivery = _Delivery(sim, network._deliver_datagram, envelope)
        heappush(sim._heap, (sim._now + delay, next(sim._counter), delivery))

    def _deliver(self, envelope: Envelope) -> None:
        if not self.closed:
            self._inbox.put(envelope)

    def recv(self) -> Event:
        """Event succeeding with the next :class:`Envelope`."""
        if self.closed:
            raise NetworkError("recv() on a closed socket")
        return self._inbox.get()

    def close(self) -> None:
        """Unbind the port and fail pending receives."""
        if not self.closed:
            self.closed = True
            self.node._unbind(self.address.port)
            self._inbox.close()

    def __repr__(self) -> str:
        return f"<DatagramSocket {self.address}{' closed' if self.closed else ''}>"
