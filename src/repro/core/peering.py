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

A shard's replicas (:mod:`repro.core.sharding`) exchange nothing: the
front end resolves each request's owning shard itself, so no broker
needs to know who leads another shard, and a crashed replica's
in-flight work is answered by its supervisor's fast-fail, not by a
peer holding a copy of its journal.

The cross-request optimization tier (:mod:`repro.core.cachetier`) adds
a second message kind to every mesh: :class:`CombinableAdvert`. A
broker about to open a combining window for an in-list query shape
broadcasts the advert so its peers can *yield* — hand matching queued
requests to the advertiser and skip opening a competing window for the
same shape — turning per-broker in-list combining into cross-broker
combining (see :class:`repro.core.pipeline.QueryCombineStage`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, List

from ..errors import BrokerError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .broker import ServiceBroker

__all__ = [
    "TxnStateUpdate",
    "CombinableAdvert",
    "BrokerPeerGroup",
]


@dataclass(frozen=True)
class TxnStateUpdate:
    """Gossip message: transaction *txn_id* has reached *step*."""

    txn_id: str
    step: int
    origin: str
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
    transaction steps are the state this mesh exists to exchange
    (combinable-query adverts ride along). The group installs itself as
    each broker's
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

        The mesh applies :class:`CombinableAdvert` here (recorded into
        ``broker.combinable_adverts`` for the
        :class:`~repro.core.pipeline.QueryCombineStage` to consult).
        Beyond that the mesh exchanges nothing but
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
