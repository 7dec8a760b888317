"""Broker-to-broker state exchange (paper §III, transaction integrity).

"If service brokers are enabled to communicate with each other, they can
exchange state information to ensure that transactions involving
different backend servers are properly protected."

Each broker that joins a :class:`BrokerPeerGroup` broadcasts a
:class:`TxnStateUpdate` whenever it observes a transaction advance to a
new highest step. Peer brokers feed the update into their own
:class:`TransactionTracker`, so a transaction that invested steps at
vendor A is escalated and protected at vendor B *even when the request
arriving at B carries no step tag* — the cross-backend case the paper
calls out.

Since the shard tier landed (:mod:`repro.core.sharding`), transaction
steps are no longer the only cross-broker state. A
:class:`ShardPeerGroup` extends the mesh with two more message kinds:

* :class:`JournalSync` — intra-shard replication of recovery-journal
  transitions, so every replica holds a shadow copy of its peers'
  admitted-but-unanswered requests (write on admit, tombstone on
  answer);
* :class:`RouteAdvert` — inter-shard routing metadata, broadcast by a
  shard's leader after every election so all brokers of the service
  learn who currently fronts each shard.

The plain full-mesh :class:`BrokerPeerGroup` remains the degenerate
single-shard configuration and behaves byte-identically to before.

The cross-request optimization tier (:mod:`repro.core.cachetier`) adds
a fourth message kind to every mesh: :class:`CombinableAdvert`. A
broker about to open a combining window for an in-list query shape
broadcasts the advert so its peers can *yield* — hand matching queued
requests to the advertiser and skip opening a competing window for the
same shape — turning per-broker in-list combining into cross-broker
combining (see :class:`repro.core.pipeline.QueryCombineStage`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List, Optional, Sequence, Tuple

from ..errors import BrokerError
from .protocol import BrokerRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .broker import ServiceBroker
    from .sharding import ShardGroup

__all__ = [
    "TxnStateUpdate",
    "JournalSync",
    "RouteAdvert",
    "CombinableAdvert",
    "BrokerPeerGroup",
    "ShardPeerGroup",
]


@dataclass(frozen=True)
class TxnStateUpdate:
    """Gossip message: transaction *txn_id* has reached *step*."""

    txn_id: str
    step: int
    origin: str
    sent_at: float


@dataclass(frozen=True)
class JournalSync:
    """Intra-shard replication of one recovery-journal transition.

    ``answered=False`` carries the admitted request (the write);
    ``answered=True`` is the tombstone that clears it (``request`` is
    ``None`` — only the id travels).
    """

    origin: str
    request_id: int
    request: Optional[BrokerRequest]
    answered: bool
    sent_at: float


@dataclass(frozen=True)
class RouteAdvert:
    """Inter-shard routing metadata: a shard's current leader and roster."""

    service: str
    shard: int
    leader: str
    members: Tuple[str, ...]
    sent_at: float


@dataclass(frozen=True)
class CombinableAdvert:
    """Gossip message: *origin* is collecting combinable queries.

    ``key`` is the combiner's shape key (see
    :meth:`repro.core.clustering.InListQueryCombiner.key`); ``count`` is
    how many matching requests the origin already holds; ``window`` is
    how long the origin will keep its combining window open. A peer that
    receives a fresh advert for a shape it is about to dispatch yields
    its queued matches to the advertiser instead of issuing a competing
    backend query.
    """

    origin: str
    service: str
    key: str
    count: int
    window: float
    sent_at: float


class BrokerPeerGroup:
    """Wires a set of brokers into a full-mesh gossip group.

    Joining requires the broker to have a :class:`TransactionTracker` —
    transaction steps are the only state this plain mesh exchanges (the
    shard-aware :class:`ShardPeerGroup` subclass also replicates
    recovery-journal entries and routing metadata, and drops that
    requirement). The group installs itself as each broker's
    ``peer_group``; brokers then call :meth:`publish` from their receive
    path when local transaction knowledge advances.
    """

    def __init__(self) -> None:
        self._members: List["ServiceBroker"] = []

    @property
    def members(self) -> List["ServiceBroker"]:
        return list(self._members)

    def join(self, broker: "ServiceBroker") -> None:
        """Add *broker* to the mesh."""
        if broker.transactions is None:
            raise BrokerError(
                f"{broker.name} has no TransactionTracker; nothing to exchange"
            )
        if broker in self._members:
            raise BrokerError(f"{broker.name} already joined this peer group")
        self._members.append(broker)
        broker.peer_group = self

    def publish(self, origin: "ServiceBroker", txn_id: str, step: int) -> None:
        """Broadcast a transaction-step advance from *origin* to all peers."""
        update = TxnStateUpdate(
            txn_id=txn_id,
            step=step,
            origin=origin.name,
            sent_at=origin.sim.now,
        )
        for member in self._members:
            if member is origin:
                continue
            origin.socket.sendto(update, member.address)
            origin.metrics.increment("peering.updates_sent")

    def advertise_combinable(
        self,
        origin: "ServiceBroker",
        key: str,
        count: int,
        window: float,
    ) -> None:
        """Broadcast a :class:`CombinableAdvert` from *origin* to all peers.

        Called by :class:`~repro.core.pipeline.QueryCombineStage` the
        moment a dispatcher opens a combining window for shape *key*, so
        peer brokers holding the same shape yield to *origin* instead of
        racing it to the backend.
        """
        advert = CombinableAdvert(
            origin=origin.name,
            service=origin.service,
            key=key,
            count=count,
            window=window,
            sent_at=origin.sim.now,
        )
        for member in self._members:
            if member is origin:
                continue
            origin.socket.sendto(advert, member.address)
            origin.metrics.increment("peering.combinable_adverts_sent")

    def handle(self, broker: "ServiceBroker", message: Any) -> bool:
        """Apply a peer message *broker* received; ``True`` if consumed.

        Every mesh understands :class:`CombinableAdvert` (recorded into
        ``broker.combinable_adverts`` for the
        :class:`~repro.core.pipeline.QueryCombineStage` to consult).
        Beyond that the plain mesh exchanges nothing but
        :class:`TxnStateUpdate` (which the broker's receive loop applies
        directly), so anything else landing here is counted malformed.
        """
        if isinstance(message, CombinableAdvert):
            broker.combinable_adverts[message.key] = message
            broker.metrics.increment("peering.combinable_adverts_applied")
            return True
        broker.metrics.increment("broker.malformed")
        return False

    def __repr__(self) -> str:
        return f"<BrokerPeerGroup members={[m.name for m in self._members]}>"


class ShardPeerGroup(BrokerPeerGroup):
    """Shard-aware peering for one :class:`~repro.core.sharding.ShardGroup`.

    Members are the shard's replica brokers. On top of the base mesh's
    transaction gossip (now scoped intra-shard — the replicas of one
    shard serve the same key range, so that is where step knowledge
    matters) the group:

    * mirrors every recovery-journal transition to the other replicas
      via :class:`JournalSync`, maintaining ``broker.shard_shadow`` —
      a per-peer shadow of admitted-but-unanswered requests. The shadow
      is a warm standby view; answering authority for a crashed
      replica's in-flight work stays with the
      :class:`~repro.core.lifecycle.BrokerSupervisor` fast-fail so no
      request is ever answered twice;
    * broadcasts a :class:`RouteAdvert` from each newly elected leader
      to the *roster* (all brokers of the service, across shards),
      maintaining ``broker.shard_view`` — the
      ``(service, shard) → leader name`` map the
      :class:`~repro.core.pipeline.ShardRouteStage` consults before
      falling back to directory truth.
    """

    def __init__(self, group: "ShardGroup") -> None:
        super().__init__()
        self.group = group
        self._roster: Optional[List["ServiceBroker"]] = None
        group.on_leader_change = self._leader_changed

    @property
    def roster(self) -> List["ServiceBroker"]:
        """Advert recipients: the service-wide roster, else the members."""
        return list(self._roster) if self._roster is not None else self.members

    def set_roster(self, roster: Sequence["ServiceBroker"]) -> None:
        """Install the service-wide advert roster (all shards' brokers)."""
        self._roster = list(roster)

    def join(self, broker: "ServiceBroker") -> None:
        """Add *broker*; transaction tracking is optional in a shard mesh.

        When the broker already carries a
        :class:`~repro.core.lifecycle.RecoveryJournal` (supervise first,
        then join), its journal hooks are wired to replicate every
        transition to the shard's other replicas.
        """
        if broker in self._members:
            raise BrokerError(f"{broker.name} already joined this peer group")
        self._members.append(broker)
        broker.peer_group = self
        self.attach_journal(broker)

    def attach_journal(self, broker: "ServiceBroker") -> None:
        """Wire *broker*'s recovery journal into intra-shard replication."""
        journal = broker.journal
        if journal is None:
            return

        def _admitted(request: BrokerRequest, origin: "ServiceBroker" = broker) -> None:
            self.replicate_admitted(origin, request)

        def _answered(request_id: int, origin: "ServiceBroker" = broker) -> None:
            self.replicate_answered(origin, request_id)

        journal.on_admitted = _admitted
        journal.on_answered = _answered

    def replicate_admitted(
        self, origin: "ServiceBroker", request: BrokerRequest
    ) -> None:
        """Mirror a journal write from *origin* to the other replicas."""
        sync = JournalSync(
            origin=origin.name,
            request_id=request.request_id,
            request=request,
            answered=False,
            sent_at=origin.sim.now,
        )
        self._send_to_members(origin, sync, "peering.journal_syncs_sent")

    def replicate_answered(
        self, origin: "ServiceBroker", request_id: int
    ) -> None:
        """Mirror a journal clear (tombstone) from *origin* to replicas."""
        sync = JournalSync(
            origin=origin.name,
            request_id=request_id,
            request=None,
            answered=True,
            sent_at=origin.sim.now,
        )
        self._send_to_members(origin, sync, "peering.journal_syncs_sent")

    def _send_to_members(
        self, origin: "ServiceBroker", message: Any, counter: str
    ) -> None:
        for member in self._members:
            if member is origin:
                continue
            origin.socket.sendto(message, member.address)
            origin.metrics.increment(counter)

    def advertise(self, origin: "ServiceBroker") -> None:
        """Broadcast this shard's leadership from *origin* to the roster."""
        group = self.group
        leader = group.leader
        if leader is None:
            return
        advert = RouteAdvert(
            service=group.service,
            shard=group.index,
            leader=leader.name,
            members=tuple(b.name for b in group.members),
            sent_at=origin.sim.now,
        )
        for target in self.roster:
            if target is origin:
                continue
            origin.socket.sendto(advert, target.address)
            origin.metrics.increment("peering.route_adverts_sent")

    def _leader_changed(
        self, group: "ShardGroup", leader: "ServiceBroker"
    ) -> None:
        if leader.alive and not leader.socket.closed:
            self.advertise(leader)

    def handle(self, broker: "ServiceBroker", message: Any) -> bool:
        """Apply a :class:`JournalSync` or :class:`RouteAdvert` at *broker*."""
        if isinstance(message, JournalSync):
            shadow = broker.shard_shadow.setdefault(message.origin, {})
            if message.answered:
                shadow.pop(message.request_id, None)
            else:
                shadow[message.request_id] = message.request
            broker.metrics.increment("peering.journal_syncs_applied")
            return True
        if isinstance(message, RouteAdvert):
            broker.shard_view[(message.service, message.shard)] = message.leader
            broker.metrics.increment("peering.route_adverts_applied")
            return True
        return super().handle(broker, message)

    def __repr__(self) -> str:
        return (
            f"<ShardPeerGroup {self.group.name} "
            f"members={[m.name for m in self._members]}>"
        )
