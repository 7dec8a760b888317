"""The centralized broker model (paper §IV, Figure 4).

In this model the *front-end web server* performs admission control
itself:

* every broker periodically sends a :class:`LoadReport` over UDP;
* a :class:`LoadListener` thread on the web-server host consumes the
  reports — with a per-update processing cost, so a high broker count or
  update rate saturates it and the load table goes stale (the paper's
  stated scalability limit of this model);
* a :class:`ResourceProfileRegistry` maps each URL to the backend
  services it needs;
* the :class:`CentralizedController` checks, before a request enters
  normal handling, whether any required service's broker is overloaded
  for the request's QoS class, and rejects with an error message if so.

With the shard tier (:mod:`repro.core.sharding`) a service is fronted
by many brokers, and having every replica report would multiply the
listener's load — the exact saturation the paper warns about. Instead
each shard's *leader* reports a :class:`ShardLoadReport` (the plain
report plus shard id and a leadership claim, stamped at send time); the
listener keeps a per-``(service, shard)`` view, aggregates the busiest
shard into the service-level table ``admit`` consults, and tracks the
reporting leader per shard — when a shard leader dies and the bully
election promotes a replica, the reporting role fails over with it and
the listener counts a ``centralized.leader_failover``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..http.messages import HttpRequest
from ..frontend.app import qos_of
from ..metrics import MetricsRegistry
from ..net.network import Node
from ..sim.core import Simulation
from .qos import QoSPolicy

__all__ = [
    "LoadReport",
    "ShardLoadReport",
    "LoadListener",
    "ResourceProfileRegistry",
    "CentralizedController",
]


@dataclass(frozen=True)
class LoadReport:
    """One broker load update."""

    broker: str
    service: str
    outstanding: int
    queue_depth: int
    threshold: int
    sent_at: float


@dataclass(frozen=True)
class ShardLoadReport(LoadReport):
    """A load update from a shard replica.

    A separate subclass (rather than extra fields on
    :class:`LoadReport`) so unsharded topologies keep their exact wire
    size — message size feeds transfer times, and the degenerate
    configuration must stay byte-identical. ``leader`` is the sender's
    leadership claim at send time; the listener only moves its per-shard
    leader tracking on reports that claim the role.
    """

    shard: int = 0
    leader: bool = True


class LoadListener:
    """The web server's listener thread for broker load updates.

    ``process_time`` is the CPU cost of handling one update. Updates
    queue behind a single listener thread; when they arrive faster than
    they can be processed the table's entries grow stale —
    :meth:`staleness` exposes that, and the ablation benchmark
    demonstrates the scalability erosion the paper predicts.
    """

    def __init__(
        self,
        sim: Simulation,
        node: Node,
        port: int = 7999,
        process_time: float = 0.001,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.node = node
        self.process_time = process_time
        self.metrics = metrics or MetricsRegistry()
        self.socket = node.datagram_socket(port)
        self.address = self.socket.address
        self.table: Dict[str, LoadReport] = {}
        #: Latest report per ``(service, shard)`` (sharded topologies).
        self.shards: Dict[Tuple[str, int], ShardLoadReport] = {}
        #: Reporting leader per ``(service, shard)``.
        self.shard_leaders: Dict[Tuple[str, int], str] = {}
        #: Times the reporting role moved to a different broker.
        self.leader_failovers = 0
        sim.process(self._listen(), name="load-listener")

    def _listen(self):
        while True:
            envelope = yield self.socket.recv()
            report = envelope.payload
            if not isinstance(report, LoadReport):
                self.metrics.increment("listener.malformed")
                continue
            # The single listener thread serializes update processing.
            yield self.process_time
            self.table[report.service] = report
            self.metrics.increment("listener.updates")
            lag = self.sim.now - report.sent_at
            if lag < 0.0:
                # A report stamped ahead of the listener's clock (e.g.
                # queued across a broker restart) must not poison the
                # lag statistics with a negative sample.
                self.metrics.increment("listener.clock_skew")
                lag = 0.0
            self.metrics.observe("listener.update_lag", lag)
            self.metrics.observe(
                f"broker.load.{report.broker}", float(report.outstanding)
            )
            self.metrics.observe(
                f"broker.load.{report.broker}.queue_depth",
                float(report.queue_depth),
            )
            if isinstance(report, ShardLoadReport):
                self._apply_shard(report)

    def _apply_shard(self, report: ShardLoadReport) -> None:
        """Track per-shard load and leadership for a sharded service.

        The service-level table entry ``admit`` consults becomes the
        busiest shard's report (worst case), and the per-shard leader
        record moves when a report from a *different* broker claims the
        leader role — that is the reporting-role failover the
        controller surfaces after a shard leader dies.
        """
        key = (report.service, report.shard)
        self.shards[key] = report
        worst = report
        for (service, _), other in self.shards.items():
            if service == report.service and other.outstanding > worst.outstanding:
                worst = other
        self.table[report.service] = worst
        if not report.leader:
            return
        previous = self.shard_leaders.get(key)
        if previous == report.broker:
            return
        self.shard_leaders[key] = report.broker
        if previous is not None:
            self.leader_failovers += 1
            self.metrics.increment("centralized.leader_failover")

    def deregister(self, broker_name: str) -> None:
        """Purge every trace of *broker_name* from the routing tables.

        Called when a broker leaves the pool gracefully (scale-in): its
        service-table entries, per-shard reports, and per-shard leader
        records go away *immediately* — a stale entry would keep steering
        the admit decision by a broker that no longer exists. Service
        aggregates are recomputed from the surviving shard reports.
        """
        affected = set()
        for service, report in list(self.table.items()):
            if report.broker == broker_name:
                del self.table[service]
                affected.add(service)
        for key, report in list(self.shards.items()):
            if report.broker == broker_name:
                del self.shards[key]
                affected.add(key[0])
        for key, leader in list(self.shard_leaders.items()):
            if leader == broker_name:
                del self.shard_leaders[key]
        for service in affected:
            worst = None
            for (svc, _), other in self.shards.items():
                if svc != service:
                    continue
                if worst is None or other.outstanding > worst.outstanding:
                    worst = other
            if worst is not None:
                self.table[service] = worst
        self.metrics.increment("listener.deregistered")

    def load_of(self, service: str) -> Optional[LoadReport]:
        """The most recently applied report for *service*, if any."""
        return self.table.get(service)


class ResourceProfileRegistry:
    """URL → the backend services (and weights) a request will touch.

    "All the requested URLs' resource profiles are accessible to the Web
    server" — this registry is that profile store.
    """

    def __init__(self) -> None:
        self._profiles: Dict[str, Tuple[str, ...]] = {}

    def register(self, path: str, services: Sequence[str]) -> None:
        """Declare that requests for *path* touch *services*."""
        self._profiles[path] = tuple(services)

    def services_for(self, path: str) -> Tuple[str, ...]:
        """Services required by *path* (empty if unprofiled)."""
        return self._profiles.get(path, ())

    def __contains__(self, path: str) -> bool:
        return path in self._profiles

    def __len__(self) -> int:
        return len(self._profiles)


class CentralizedController:
    """Front-end admission hook for the centralized model.

    Install as ``FrontendWebServer(admission=controller.admit)``. A
    request is rejected when, for any service its URL's profile names,
    the last known broker load meets or exceeds that QoS class's
    admission limit. Unknown services (no report yet) are treated
    optimistically, as the real system must.
    """

    def __init__(
        self,
        listener: LoadListener,
        profiles: ResourceProfileRegistry,
        qos: Optional[QoSPolicy] = None,
    ) -> None:
        self.listener = listener
        self.profiles = profiles
        self.qos = qos or QoSPolicy()
        self.metrics = MetricsRegistry()

    def admit(self, request: HttpRequest) -> Tuple[bool, str]:
        """The admission decision for one incoming front-end request."""
        level = self.qos.clamp(qos_of(request))
        for service in self.profiles.services_for(request.path):
            report = self.listener.load_of(service)
            if report is None:
                continue
            if report.outstanding >= self.qos.admit_limit(level):
                self.metrics.increment("centralized.rejected")
                self.metrics.increment(f"centralized.rejected.qos{level}")
                return (
                    False,
                    f"service {service!r} overloaded "
                    f"({report.outstanding} outstanding)",
                )
        self.metrics.increment("centralized.admitted")
        return True, ""
