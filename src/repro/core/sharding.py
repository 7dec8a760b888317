"""Shard tier: consistent-hash routing, replica groups, leader election.

The paper deploys exactly one service broker per backend service and its
stated weakness (§VI) is the scaling ceiling that follows: the
centralized load listener saturates as brokers multiply and a single
broker per service caps throughput. This module removes the
single-broker assumption. A *service* is now served by N shards × R
replica brokers:

* :class:`HashRing` — a seeded consistent-hash ring with virtual nodes.
  Placement is a pure function of ``(seed, key)`` via BLAKE2b, never
  Python's per-process salted ``hash()``, so the same request key lands
  on the same shard across runs and platforms.
* :class:`ShardGroup` — one shard's replica set, with a deterministic
  bully-style leader election (the highest-priority live replica wins;
  priority is join order). Each replica is tracked by a plain
  :class:`~repro.core.loadbalance.ReplicaHealth`, the same
  outstanding-count/EWMA bookkeeping the backend balancers use — there
  is one health implementation, not a parallel copy in the ring.
* :class:`ShardDirectory` — the service → ring + groups map the front
  end routes by and the :class:`~repro.core.pipeline.ShardRouteStage`
  checks, so callers address a *service* and a request key, never a
  broker.

Existing single-broker topologies are the degenerate 1-shard/1-replica
configuration: nothing in this module runs unless a directory is built,
and seeded outputs of unsharded experiments are byte-identical.
"""

from __future__ import annotations

import bisect
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import BrokerError
from ..metrics import MetricsRegistry
from ..sim.rng import hash64
from .loadbalance import ReplicaHealth

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..net.address import Address
    from .broker import ServiceBroker

__all__ = ["HashRing", "ShardGroup", "ShardDirectory"]


def _point(seed: int, token: str) -> int:
    """Hash *token* onto the 64-bit ring, mixed with *seed*."""
    return hash64(f"{seed}:{token}")


class HashRing:
    """Seeded consistent-hash ring with virtual nodes.

    Each node owns ``vnodes`` points on a 64-bit ring; a key belongs to
    the node owning the first point at or after the key's hash (wrapping
    at the top). Adding a node steals only the key ranges its points
    cover (~K/N of the keyspace), removing a node redistributes only its
    own ranges — the classic consistent-hashing remap bound.
    """

    def __init__(
        self,
        seed: int = 0,
        vnodes: int = 64,
        nodes: Sequence[str] = (),
    ) -> None:
        if vnodes < 1:
            raise BrokerError("HashRing needs at least one virtual node")
        self.seed = seed
        self.vnodes = vnodes
        self._points: List[Tuple[int, str]] = []
        self._hashes: List[int] = []
        self._nodes: Dict[str, None] = {}
        for node in nodes:
            self.add(node)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: str) -> bool:
        return node in self._nodes

    def _rebuild(self) -> None:
        self._points.sort()
        self._hashes = [h for h, _ in self._points]

    def add(self, node: str) -> None:
        """Place *node*'s virtual points on the ring."""
        if node in self._nodes:
            raise BrokerError(f"node {node!r} already on the ring")
        self._nodes[node] = None
        seed = self.seed
        self._points.extend(
            (_point(seed, f"{node}#{i}"), node) for i in range(self.vnodes)
        )
        self._rebuild()

    def remove(self, node: str) -> None:
        """Remove *node* and all of its virtual points."""
        if node not in self._nodes:
            raise BrokerError(f"node {node!r} not on the ring")
        del self._nodes[node]
        self._points = [p for p in self._points if p[1] != node]
        self._rebuild()

    def owner(self, key: str) -> str:
        """Return the node owning *key* (deterministic in seed and key)."""
        if not self._points:
            raise BrokerError("lookup on an empty ring")
        index = bisect.bisect_right(self._hashes, _point(self.seed, key))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def preference(self, key: str) -> List[str]:
        """Return every node, in ring order from *key*.

        The first entry is :meth:`owner`; the rest are the natural
        fallback sequence (the nodes whose points follow on the ring).
        """
        if not self._points:
            raise BrokerError("lookup on an empty ring")
        want = len(self._nodes)
        start = bisect.bisect_right(self._hashes, _point(self.seed, key))
        found: List[str] = []
        seen = set()
        total = len(self._points)
        for step in range(total):
            node = self._points[(start + step) % total][1]
            if node not in seen:
                seen.add(node)
                found.append(node)
                if len(found) == want:
                    break
        return found

    def partition(self, keys: Sequence[str]) -> Dict[str, List[str]]:
        """Group *keys* by owning node: ``{node: [keys...]}``.

        Every member node appears in the result (possibly with an empty
        list), in insertion order; within a node, keys keep their input
        order. This is the partitioning primitive the parallel scenario
        driver uses to split a workload's key space into per-shard
        slices whose union is exactly the original key population.
        """
        buckets: Dict[str, List[str]] = {node: [] for node in self._nodes}
        for key in keys:
            buckets[self.owner(key)].append(key)
        return buckets

    def __repr__(self) -> str:
        return (
            f"<HashRing seed={self.seed} vnodes={self.vnodes} "
            f"nodes={list(self._nodes)}>"
        )


class ShardGroup:
    """One shard's replica set with bully-style leader election.

    Replicas join in priority order: the earliest-joined live replica is
    the bully winner (classic "highest id wins", with id = negative join
    index). :meth:`elect` is deterministic and synchronous — it polls
    members in priority order and promotes the first live one — so
    concurrent failures converge to the same leader on every seeded run.

    Each member is shadowed by a
    :class:`~repro.core.loadbalance.ReplicaHealth`, shared with any
    balancer that routes across the group (see
    :mod:`repro.core.loadbalance`).
    """

    def __init__(
        self,
        service: str,
        index: int,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.service = service
        self.index = index
        self.metrics = metrics or MetricsRegistry()
        self._members: List["ServiceBroker"] = []
        self._by_name: Dict[str, "ServiceBroker"] = {}
        self._health: Dict[str, ReplicaHealth] = {}
        self._up: Dict[str, bool] = {}
        self._leader: Optional["ServiceBroker"] = None
        self.elections = 0
        self.election_rounds = 0

    @property
    def name(self) -> str:
        """Stable shard label, e.g. ``svc1/shard2``."""
        return f"{self.service}/shard{self.index}"

    @property
    def members(self) -> List["ServiceBroker"]:
        """The replica brokers, in priority (join) order."""
        return list(self._members)

    @property
    def leader(self) -> Optional["ServiceBroker"]:
        """The current leader (may be stale; :meth:`route` revalidates)."""
        return self._leader

    def add(self, broker: "ServiceBroker") -> None:
        """Join *broker* as the next (lower-priority) replica."""
        if broker.name in self._by_name:
            raise BrokerError(f"{broker.name} already in {self.name}")
        self._members.append(broker)
        self._by_name[broker.name] = broker
        self._health[broker.name] = ReplicaHealth(label=broker.name)
        self._up[broker.name] = True
        broker.shard_group = self
        if self._leader is None:
            self.elect()

    def leave(self, name: str) -> None:
        """Remove member *name* for good (graceful decommission).

        The departing broker is purged from the membership, health, and
        up-tables; if it led the shard, leadership is handed off by an
        immediate election among the survivors, so leader-only load
        reporting follows the hand-off. Unknown names are ignored,
        making the drain protocol idempotent.
        """
        broker = self._by_name.pop(name, None)
        if broker is None:
            return
        self._members.remove(broker)
        self._health.pop(name, None)
        self._up.pop(name, None)
        if broker.shard_group is self:
            broker.shard_group = None
        self.metrics.increment("shard.member_left")
        if self._leader is broker:
            self._leader = None
            if self._members:
                self.elect()

    def elect(self) -> Optional["ServiceBroker"]:
        """Run a bully election; return and install the winner.

        Polls members in priority order (one "round" counted per member
        challenged) and promotes the first that is both marked up and
        actually alive. Returns ``None`` when every replica is down.
        """
        self.elections += 1
        winner: Optional["ServiceBroker"] = None
        for broker in self._members:
            self.election_rounds += 1
            if self._up.get(broker.name, False) and broker.alive:
                winner = broker
                break
        self._leader = winner
        if winner is not None:
            self.metrics.increment("shard.elections")
        return winner

    def note_down(self, name: str) -> None:
        """Mark member *name* down; re-elect if it led the shard."""
        if name not in self._by_name or not self._up.get(name, False):
            return
        self._up[name] = False
        health = self._health[name]
        health.consecutive_errors = max(
            health.consecutive_errors, ReplicaHealth.UNHEALTHY_AFTER
        )
        self.metrics.increment("shard.member_down")
        if self._leader is not None and self._leader.name == name:
            self.elect()

    def note_up(self, name: str) -> None:
        """Mark member *name* back up; a higher-priority return re-elects."""
        if name not in self._by_name or self._up.get(name, False):
            return
        self._up[name] = True
        self._health[name].consecutive_errors = 0
        self.metrics.increment("shard.member_up")
        returned = self._by_name[name]
        if self._leader is None or self._members.index(returned) < self._members.index(
            self._leader
        ):
            # Bully takeover: a returning higher-priority replica
            # reclaims leadership.
            self.elect()

    def on_supervisor_event(self, broker: "ServiceBroker", up: bool) -> None:
        """Supervisor listener adapter: map up/down detections to the group."""
        if broker.name not in self._by_name:
            return
        if up:
            self.note_up(broker.name)
        else:
            self.note_down(broker.name)

    def route(self) -> Optional["ServiceBroker"]:
        """Return the live leader, re-electing around stale leadership.

        A crash the supervisor has not yet flagged shows up here as a
        leader with ``alive == False``; routing detects it and runs the
        election inline, so the very next request already lands on the
        new leader.
        """
        leader = self._leader
        if leader is not None and self._up.get(leader.name, False) and leader.alive:
            return leader
        if leader is not None and not leader.alive:
            self.note_down(leader.name)
        else:
            self.elect()
        leader = self._leader
        if leader is not None and leader.alive:
            return leader
        return None

    def __repr__(self) -> str:
        leader = self._leader.name if self._leader is not None else None
        return f"<ShardGroup {self.name} members={len(self._members)} leader={leader}>"


class ShardDirectory:
    """Service → shard topology map: one ring plus R-replica groups each.

    The front end (:class:`~repro.core.client.BrokerClient`) resolves a
    ``(service, request key)`` pair through the directory: the ring
    names the owning shard, the shard's :class:`ShardGroup` names the
    live leader. Each broker's :class:`~repro.core.pipeline.ShardRouteStage`
    checks the same ring, so both sides agree on the owner. Services not
    registered here fall back to the classic one-broker route table,
    which keeps unsharded topologies untouched.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self.metrics = metrics or MetricsRegistry()
        self._rings: Dict[str, HashRing] = {}
        self._groups: Dict[str, Dict[int, ShardGroup]] = {}

    def __contains__(self, service: str) -> bool:
        return service in self._rings

    def knows(self, service: str) -> bool:
        """Whether *service* is shard-routed through this directory."""
        return service in self._rings

    def register(
        self,
        service: str,
        groups: Sequence[ShardGroup],
        seed: int = 0,
        universe: Optional[Sequence[int]] = None,
    ) -> HashRing:
        """Register *service* with its shard *groups*; returns the ring.

        *universe* names every shard index that exists in the logical
        topology; it defaults to the indices of *groups*. A parallel
        partition slice (see :mod:`repro.sim.parallel`) instantiates
        brokers for only its own shard but must build the ring over the
        **full** universe so ``key -> shard`` placement is identical to
        the unpartitioned topology; routing a key owned by an
        uninstantiated shard then fails loudly rather than silently
        rehashing onto the local one.
        """
        if service in self._rings:
            raise BrokerError(f"service {service!r} already registered")
        if not groups:
            raise BrokerError(f"service {service!r} needs at least one shard")
        indices = [g.index for g in groups]
        if universe is None:
            universe = indices
        missing = set(indices) - set(universe)
        if missing:
            raise BrokerError(
                f"groups {sorted(missing)} not in the ring universe "
                f"{sorted(universe)} for service {service!r}"
            )
        ring = HashRing(seed=seed, nodes=[str(i) for i in universe])
        self._rings[service] = ring
        self._groups[service] = {g.index: g for g in groups}
        return ring

    def groups(self, service: str) -> List[ShardGroup]:
        """All shard groups for *service*, in shard order."""
        return [self._groups[service][i] for i in sorted(self._groups[service])]

    def group(self, service: str, shard: int) -> ShardGroup:
        """The :class:`ShardGroup` serving (*service*, *shard*)."""
        try:
            return self._groups[service][shard]
        except KeyError:
            raise BrokerError(
                f"shard {shard} of service {service!r} is not instantiated "
                f"in this partition (ring universe is wider than the local "
                f"groups)"
            ) from None

    def shard_of(self, service: str, key: str) -> int:
        """The shard index owning *key* for *service*."""
        return int(self._rings[service].owner(key))

    def route(self, service: str, key: str) -> Optional["ServiceBroker"]:
        """The live leader broker for (*service*, *key*), or ``None``."""
        return self.group(service, self.shard_of(service, key)).route()

    def address_for(self, service: str, key: str) -> "Address":
        """Resolve the UDP address the front end should send to."""
        broker = self.route(service, key)
        if broker is None:
            raise BrokerError(
                f"no live replica for service {service!r} "
                f"(shard {self.shard_of(service, key)})"
            )
        return broker.address

    def describe(self) -> str:
        """Human-readable topology dump (``repro shard --describe``)."""
        lines = []
        for service in self._rings:
            ring = self._rings[service]
            lines.append(
                f"{service}: {len(ring)} shard(s), "
                f"{ring.vnodes} vnodes, seed {ring.seed}"
            )
            for group in self.groups(service):
                leader = group.leader.name if group.leader is not None else "-"
                members = ", ".join(
                    f"{b.name}{'*' if group.leader is b else ''}"
                    for b in group.members
                )
                lines.append(
                    f"  shard {group.index}: leader={leader} "
                    f"replicas=[{members}] elections={group.elections}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"<ShardDirectory services={list(self._rings)}>"
