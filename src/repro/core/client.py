"""The broker client used by web applications.

"Dynamic applications ... only pass messages to individual service
brokers in some formats that contain their QoS specification and
queries" (paper §III). :class:`BrokerClient` is that message-passing
stub: it routes each call to the broker registered for the named
service over UDP and matches replies to callers by request id.

With the shard tier the client addresses a *service*, not a broker:
:meth:`BrokerClient.use_directory` installs a
:class:`~repro.core.sharding.ShardDirectory`, and calls for services it
knows resolve per call through the consistent-hash ring to the owning
shard's live leader. Services the
directory does not know — and every call when no directory is set —
use the classic static route table, unchanged.

Because UDP is unreliable, a call may set a timeout; on a lossless LAN
(the default testbeds) it never fires. A call with a timeout therefore
arms no timer of its own: the client keeps the
``(expires_at, request_id)`` pairs of its calls in a small heap and
one kernel event, the alarm, scheduled for the earliest live deadline
(DESIGN.md §9, "deadline alarm").
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import count
from math import inf
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..errors import BrokerTimeout, UnknownServiceError
from ..metrics import MetricsRegistry
from ..net.address import Address
from ..net.network import Node
from ..sim.core import _PENDING, Event, Simulation
from .pipeline import RequestContext
from .protocol import BrokerReply, BrokerRequest

__all__ = ["BrokerClient", "CallSpec"]

#: Specification for one call in :meth:`BrokerClient.call_parallel`:
#: (service, operation, payload, qos_level).
CallSpec = Tuple[str, str, Any, int]

#: What the deadline alarm resolves an attempt's waiter with.
_EXPIRED = object()


class BrokerClient:
    """Message-passing access point to one or more service brokers."""

    def __init__(
        self,
        sim: Simulation,
        node: Node,
        routes: Mapping[str, Address],
    ) -> None:
        self.sim = sim
        self.node = node
        self.routes: Dict[str, Address] = dict(routes)
        self.metrics = MetricsRegistry()
        self.socket = node.datagram_socket()
        self._ids = count(1)
        self._pending: Dict[int, Event] = {}
        #: ``(expires_at, request_id)`` of the attempts made with a
        #: timeout, earliest first — plain numbers, so a queued deadline
        #: pins no reply. Answered attempts are pruned from the front.
        self._deadlines: List[Tuple[float, int]] = []
        #: The one scheduled event, due no later than the earliest live
        #: deadline, and its time (``inf`` while nothing is armed).
        self._alarm: Optional[Event] = None
        self._alarm_at = inf
        self._directory = None
        # Hot-path metric handles (per-status ones resolved lazily).
        self._calls = self.metrics.handle("client.calls")
        self._call_time = self.metrics.sample_handle("client.call_time")
        self._replies_by_status: Dict[str, Any] = {}
        sim.process(self._pump(), name=f"broker-client:{node.name}")

    def add_route(self, service: str, address: Address) -> None:
        """Register (or replace) the broker address for *service*."""
        self.routes[service] = address

    def remove_route(self, service: str) -> None:
        """Forget the broker address for *service* (no-op if unknown).

        A call already sent keeps its address; a new call to *service*
        raises :class:`~repro.errors.UnknownServiceError`.
        """
        self.routes.pop(service, None)

    def use_directory(self, directory) -> None:
        """Resolve shard-routed services through *directory*.

        *directory* is a :class:`~repro.core.sharding.ShardDirectory`;
        services it knows are addressed per call through the
        consistent-hash ring (deterministic in the request key) to the
        owning shard's current leader. Other services keep using
        :attr:`routes`.
        """
        self._directory = directory

    def _pump(self):
        recv = self.socket.recv
        pending = self._pending
        deadlines = self._deadlines
        while True:
            envelope = yield recv()
            reply = envelope.payload
            if not isinstance(reply, BrokerReply):
                self.metrics.increment("client.malformed")
                continue
            waiter = pending.pop(reply.request_id, None)
            if waiter is not None and waiter._value is _PENDING:
                waiter.succeed(reply)
                while deadlines and deadlines[0][1] not in pending:
                    heappop(deadlines)
            else:
                self.metrics.increment("client.orphan_replies")

    def _arm(self, when: float) -> None:
        """Schedule the deadline alarm for the absolute time *when*."""
        alarm = self._alarm = Event(self.sim)
        alarm._ok = True
        alarm._value = None
        alarm.callbacks.append(self._on_alarm)
        self._alarm_at = when
        self.sim.wake_at(alarm, when)

    def _on_alarm(self, alarm: Event) -> None:
        """Expire every attempt whose deadline has come; re-arm for the next."""
        if alarm is not self._alarm:
            return  # superseded by an alarm armed for an earlier deadline
        now = self.sim._now
        deadlines = self._deadlines
        pending = self._pending
        while deadlines:
            expires_at, request_id = deadlines[0]
            if expires_at > now:
                if request_id in pending:
                    self._arm(expires_at)
                    return
            else:
                waiter = pending.pop(request_id, None)
                if waiter is not None:
                    waiter.succeed(_EXPIRED)
            heappop(deadlines)
        self._alarm = None
        self._alarm_at = inf

    def call(
        self,
        service: str,
        operation: str,
        payload: Any,
        qos_level: int = 1,
        txn_id: Optional[str] = None,
        txn_step: int = 0,
        cacheable: bool = True,
        cache_key: Optional[str] = None,
        timeout: Optional[float] = None,
        parent: Optional[RequestContext] = None,
    ):
        """Send one request and await its reply; ``yield from`` this.

        Returns the :class:`BrokerReply` (which may be DEGRADED, DROPPED
        or ERROR — callers inspect ``reply.status``). Raises
        :class:`BrokerTimeout` if no reply arrives within *timeout*.

        Every call originates a fresh
        :class:`~repro.core.pipeline.RequestContext` here, at the
        front-end side; it rides the request through the net layer and
        the broker's stage pipeline, and comes back on
        ``reply.context`` with the complete per-stage timeline. Pass
        the enclosing request's context as *parent* so the obs layer
        (when attached — see :class:`repro.obs.spans.TraceCollector`)
        nests this call's trace under the parent request's trace.
        """
        directory = self._directory
        if directory is not None and directory.knows(service):
            # The same key the broker's ShardRouteStage derives, so the
            # client-side resolution and the ring agree on the owner.
            routing_key = (
                cache_key
                if cache_key is not None
                else f"{service}:{operation}:{payload!r}"
            )
            address = directory.address_for(service, routing_key)
        else:
            address = self.routes.get(service)
            if address is None:
                raise UnknownServiceError(
                    f"no broker registered for service {service!r}"
                )
        request_id = next(self._ids)
        started = self.sim._now
        context = RequestContext.originate(now=started, origin=self.node.name)
        if parent is not None:
            context.parent = parent
        request = BrokerRequest(
            request_id=request_id,
            service=service,
            operation=operation,
            payload=payload,
            reply_to=self.socket.address,
            qos_level=qos_level,
            txn_id=txn_id,
            txn_step=txn_step,
            cacheable=cacheable,
            cache_key=cache_key,
            sent_at=started,
            context=context,
        )
        context.request = request
        waiter = Event(self.sim)
        self._pending[request_id] = waiter
        self._calls.inc()
        self.socket.sendto(request, address)
        if timeout is not None:
            expires_at = started + timeout
            heappush(self._deadlines, (expires_at, request_id))
            if expires_at < self._alarm_at:
                self._arm(expires_at)
        reply = yield waiter
        if reply is _EXPIRED:
            self.metrics.increment("client.timeouts")
            raise BrokerTimeout(
                f"no reply from {service!r} broker within {timeout} s"
            )
        now = self.sim._now
        status = reply.status._value_
        self._call_time.add(now - started)
        counter = self._replies_by_status.get(status)
        if counter is None:
            counter = self._replies_by_status[status] = self.metrics.handle(
                f"client.replies.{status}"
            )
        counter.inc()
        context = reply.context
        if context is not None:
            context.record_stage("client", started, now, status)
            obs = self.sim.obs
            if obs is not None:
                obs.finish(context)
            # The exchange is over: the context lets go of its two
            # messages, so all three die with the caller's last
            # reference (DESIGN.md §9).
            context.request = context.reply = None
        return reply

    def call_parallel(self, specs: Sequence[CallSpec]):
        """Issue several calls concurrently; ``yield from`` this.

        The paper's *multitasking*: "requests that consist of
        independent heterogeneous tasks can send simultaneous messages
        to service brokers which run in parallel". Returns replies in
        spec order.
        """
        processes = [
            self.sim.process(
                self.call(service, operation, payload, qos_level),
                name=f"parallel:{service}",
            )
            for service, operation, payload, qos_level in specs
        ]
        yield self.sim.all_of(processes)
        return [process.value for process in processes]

    def close(self) -> None:
        """Close the client's socket; pending calls will time out."""
        self.socket.close()
