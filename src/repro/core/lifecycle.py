"""Broker lifecycle: heartbeats, crash detection, and recovery.

PR 2 made *backends* failable; this module makes the broker process
itself mortal. Three cooperating pieces:

* every supervised broker emits :class:`Heartbeat` datagrams
  (:meth:`~repro.core.broker.ServiceBroker.start_heartbeat`) — silence
  is the death signal;
* a :class:`RecoveryJournal` shadows the broker's admitted-but-
  unanswered requests (write-ahead on enqueue, cleared on reply), so
  the work lost inside a crash is known exactly;
* a :class:`BrokerSupervisor` watches the heartbeats, marks a silent
  broker down, and **fails its in-flight requests fast** with DROPPED
  ``broker-crash`` replies so clients re-route (retry, failover, or a
  replica broker) instead of hanging until their timeouts expire. On
  restart, whatever the supervisor did not already fail fast is
  *replayed* through the ingress pipeline or *shed* with a degraded
  reply, per the journal's policy.

Everything here is opt-in: a broker without a journal, heartbeat, or
supervisor behaves byte-identically to previous revisions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional

from ..metrics import MetricsRegistry
from ..net.network import Node
from ..sim.core import Simulation
from .protocol import BrokerReply, BrokerRequest, ReplyStatus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .broker import ServiceBroker

__all__ = [
    "Heartbeat",
    "RecoveryJournal",
    "BrokerSupervisor",
    "DEFAULT_SUPERVISOR_PORT",
]

#: Default UDP port the supervisor listens for heartbeats on.
DEFAULT_SUPERVISOR_PORT = 7900

#: Seconds between a supervised broker's heartbeats.
HEARTBEAT_INTERVAL = 0.05

#: Heartbeat intervals of silence after which a broker is declared down.
MISS_FACTOR = 3.0


@dataclass(frozen=True)
class Heartbeat:
    """One liveness beacon from a broker to its supervisor."""

    broker: str
    sent_at: float
    seq: int


class RecoveryJournal:
    """Write-ahead record of one broker's admitted, unanswered requests.

    The broker records every request as it enters the queue
    (:class:`~repro.core.pipeline.EnqueueStage`) and clears it when any
    reply goes out (:meth:`~repro.core.broker.ServiceBroker.send_reply`)
    — so at crash time the journal holds exactly the requests that
    would otherwise vanish silently.

    ``policy`` selects what :meth:`recover` does on restart:

    * ``"replay"`` — re-run each request through the ingress pipeline
      (it re-arrives, may hit the cache, and is re-executed);
    * ``"shed"`` — answer each with an immediate degraded/busy reply.
    """

    def __init__(
        self,
        sim: Simulation,
        policy: str = "replay",
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if policy not in ("replay", "shed"):
            raise ValueError(
                f"unknown recovery policy {policy!r}; "
                "expected 'replay' or 'shed'"
            )
        self.sim = sim
        self.policy = policy
        self.metrics = metrics or MetricsRegistry()
        self._pending: Dict[int, BrokerRequest] = {}
        #: Optional replication hook, called as ``on_admitted(request)``
        #: after each journal write — a shard peer group
        #: (:class:`~repro.core.peering.ShardPeerGroup`) installs one to
        #: mirror the entry onto the shard's replica brokers.
        self.on_admitted: Optional[Callable[[BrokerRequest], None]] = None
        #: Optional replication hook, called as ``on_answered(request_id)``
        #: after each journal clear (the replication tombstone).
        self.on_answered: Optional[Callable[[int], None]] = None
        #: Requests re-run through the pipeline by :meth:`recover`.
        self.replayed = 0
        #: Requests answered degraded by a shedding :meth:`recover`.
        self.shed = 0
        #: Requests answered DROPPED by a supervisor's fast-fail.
        self.failed_fast = 0

    def record_admitted(self, request: BrokerRequest) -> None:
        """Shadow one request entering the broker's queue."""
        self._pending[request.request_id] = request
        if self.on_admitted is not None:
            self.on_admitted(request)

    def record_answered(self, request_id: int) -> None:
        """Clear a request once any reply for it has been sent."""
        self._pending.pop(request_id, None)
        if self.on_answered is not None:
            self.on_answered(request_id)

    @property
    def pending_count(self) -> int:
        """Requests currently admitted but unanswered."""
        return len(self._pending)

    def take_pending(self) -> List[BrokerRequest]:
        """Drain and return the pending set (consumed exactly once)."""
        requests = list(self._pending.values())
        self._pending.clear()
        return requests

    def recover(self, broker: "ServiceBroker") -> None:
        """Replay or shed whatever was pending when *broker* crashed.

        Called by :meth:`ServiceBroker.restart`. Requests the
        supervisor already failed fast are gone from the journal, so no
        request is ever answered twice.
        """
        requests = self.take_pending()
        if not requests:
            return
        sim = broker.sim
        if self.policy == "replay":
            from .pipeline import RequestContext  # avoid an import cycle

            for request in requests:
                self.replayed += 1
                self.metrics.increment("lifecycle.replayed")
                broker.pipeline.run_ingress(
                    RequestContext.adopt(
                        request, now=sim._now, broker=broker.name
                    )
                )
        else:
            for request in requests:
                self.shed += 1
                self.metrics.increment("lifecycle.restart_shed")
                broker.record_shed(
                    broker.qos.clamp(request.qos_level), "restart"
                )
                reply = broker.fidelity.degrade(
                    request,
                    broker.cache,
                    "broker-restart",
                    broker_name=broker.name,
                    context=request.context,
                )
                broker.send_reply(request, reply)


class _Watch:
    """Supervision state for one broker."""

    __slots__ = (
        "broker", "last_heard", "up", "down_since", "detected",
        "recoveries", "released",
    )

    def __init__(self, broker: "ServiceBroker", now: float) -> None:
        self.broker = broker
        self.last_heard = now
        self.up = True
        self.down_since = 0.0
        self.detected = 0
        self.recoveries = 0
        self.released = False


class BrokerSupervisor:
    """Detects broker death via heartbeats and fails in-flight work fast.

    One supervisor process per host (typically the front-end node)
    listens for :class:`Heartbeat` datagrams; a per-broker monitor
    declares the broker *down* after ``HEARTBEAT_INTERVAL × MISS_FACTOR``
    seconds of silence. On detection it answers every journaled in-flight
    request with a DROPPED ``broker-crash`` reply sent from its own
    socket — the liveness analog of the paper's "system busy" fallback
    — so client retry/failover logic re-routes immediately instead of
    waiting out full timeouts. The journal entries are consumed by the
    fast-fail, so a later restart cannot also replay them.
    """

    def __init__(
        self,
        sim: Simulation,
        node: Node,
        port: int = DEFAULT_SUPERVISOR_PORT,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.metrics = metrics or MetricsRegistry()
        self.socket = node.datagram_socket(port)
        self.address = self.socket.address
        self._watches: Dict[str, _Watch] = {}
        self._listeners: List[Callable[["ServiceBroker", bool], None]] = []
        sim.process(self._listen(), name="supervisor:rx")

    def add_listener(
        self, listener: Callable[["ServiceBroker", bool], None]
    ) -> None:
        """Subscribe to up/down detections: ``listener(broker, up)``.

        A :class:`~repro.core.sharding.ShardGroup` registers its
        ``on_supervisor_event`` here so leader elections fire as soon as
        the supervisor declares a shard leader dead, not only when the
        next request routes around the corpse.
        """
        self._listeners.append(listener)

    def watch(
        self,
        broker: "ServiceBroker",
        journal: Optional[RecoveryJournal] = None,
    ) -> _Watch:
        """Supervise *broker*: install a journal, heartbeats, a monitor.

        *journal* defaults to a fresh replay-policy
        :class:`RecoveryJournal` when the broker has none yet.
        """
        if journal is not None:
            broker.journal = journal
        elif broker.journal is None:
            broker.journal = RecoveryJournal(self.sim, metrics=self.metrics)
        watch = _Watch(broker, self.sim.now)
        self._watches[broker.name] = watch
        broker.start_heartbeat(self.address)
        self.sim.process(self._monitor(watch), name=f"supervisor:{broker.name}")
        return watch

    def is_up(self, name: str) -> bool:
        """The supervisor's current belief about broker *name*."""
        return self._watches[name].up

    def release(self, name: str) -> None:
        """Stop supervising broker *name* (graceful decommission).

        Forgets the watch, and with it the broker: the monitor exits at
        its next tick instead of declaring the post-drain heartbeat
        silence a death, and a heartbeat still in flight is ignored like
        one from an unknown broker. Call this *before*
        :meth:`~repro.core.broker.ServiceBroker.decommission`.
        Idempotent; unknown names are ignored.
        """
        watch = self._watches.pop(name, None)
        if watch is None:
            return
        watch.released = True
        self.metrics.increment("lifecycle.released")

    def _listen(self):
        recv = self.socket.recv
        while True:
            envelope = yield recv()
            beat = envelope.payload
            if not isinstance(beat, Heartbeat):
                self.metrics.increment("lifecycle.malformed")
                continue
            watch = self._watches.get(beat.broker)
            if watch is None:
                continue
            watch.last_heard = self.sim.now
            if not watch.up:
                watch.up = True
                watch.recoveries += 1
                self.metrics.increment("lifecycle.broker_up")
                self.metrics.observe(
                    "lifecycle.downtime", self.sim.now - watch.down_since
                )
                for listener in self._listeners:
                    listener(watch.broker, True)

    def _monitor(self, watch: _Watch):
        sim = self.sim
        miss_timeout = HEARTBEAT_INTERVAL * MISS_FACTOR
        while not watch.released:
            yield HEARTBEAT_INTERVAL
            if watch.released:
                return
            if watch.up and sim.now - watch.last_heard > miss_timeout:
                watch.up = False
                watch.down_since = sim.now
                watch.detected += 1
                self.metrics.increment("lifecycle.broker_down")
                self.metrics.observe(
                    "lifecycle.detection_time", sim.now - watch.last_heard
                )
                for listener in self._listeners:
                    listener(watch.broker, False)
                self._fail_fast(watch)

    def _fail_fast(self, watch: _Watch) -> None:
        """Answer the dead broker's in-flight requests immediately."""
        journal = watch.broker.journal
        if journal is None:
            return
        requests = journal.take_pending()
        for request in requests:
            journal.failed_fast += 1
            self.metrics.increment("lifecycle.failed_fast")
            reply = BrokerReply(
                request_id=request.request_id,
                status=ReplyStatus.DROPPED,
                payload="broker down",
                fidelity=0.0,
                error="broker-crash",
                broker=watch.broker.name,
                context=request.context,
            )
            self.socket.sendto(reply, request.reply_to)
