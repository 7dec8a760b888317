"""Hot-spot detection and notification.

Paper §III, *Backend server overload control*: "Service brokers ...
are aware of the states of the associated backend servers. Service
brokers can notify request schedulers about the onset of hot spots."
And §II: in the API model, "hot spots generated in backend servers are
at most known to those who are using the service" — other processes keep
piling in.

A :class:`HotSpotMonitor` watches one broker's outstanding load and
publishes :class:`HotSpotNotice` datagrams to subscribed request
schedulers (front-end admission hooks, dashboards) when the service
enters or leaves the hot state. Hysteresis (separate onset/clear
thresholds, expressed as fractions of the QoS threshold) prevents
flapping.

:class:`HotSpotGate` is a ready-made front-end admission hook that
consumes the notices: while a service is hot, requests whose URL profile
needs that service are rejected at the door.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from ..errors import BrokerError
from ..http.messages import HttpRequest
from ..metrics import MetricsRegistry
from ..net.address import Address
from ..net.network import Node
from ..sim.core import Simulation
from .broker import ServiceBroker
from .centralized import ResourceProfileRegistry

__all__ = ["HotSpotNotice", "HotSpotMonitor", "HotSpotGate"]


@dataclass(frozen=True)
class HotSpotNotice:
    """A broker's announcement that its service became (or stopped being) hot."""

    service: str
    broker: str
    hot: bool
    outstanding: int
    threshold: int
    sent_at: float


class HotSpotMonitor:
    """Watches a broker's load and notifies subscribers of hot-spot onset.

    Parameters
    ----------
    broker:
        The broker whose backend service is monitored.
    onset_fraction / clear_fraction:
        Hysteresis band, as fractions of the broker's QoS threshold.
        The service turns *hot* when outstanding load reaches
        ``onset_fraction x threshold`` and *cool* again only once it
        falls below ``clear_fraction x threshold``.
    poll_interval:
        How often the monitor samples the broker's load.
    """

    def __init__(
        self,
        broker: ServiceBroker,
        onset_fraction: float = 0.8,
        clear_fraction: float = 0.5,
        poll_interval: float = 0.05,
    ) -> None:
        if not 0.0 < clear_fraction < onset_fraction <= 1.5:
            raise BrokerError(
                "need 0 < clear_fraction < onset_fraction; got "
                f"{clear_fraction!r} / {onset_fraction!r}"
            )
        if poll_interval <= 0:
            raise BrokerError(f"poll_interval must be positive: {poll_interval!r}")
        self.broker = broker
        self.sim: Simulation = broker.sim
        self.onset = onset_fraction * broker.qos.threshold
        self.clear = clear_fraction * broker.qos.threshold
        self.poll_interval = poll_interval
        self.metrics = broker.metrics
        self.hot = False
        self._subscribers: List[Address] = []
        self.sim.process(self._watch(), name=f"hotspot:{broker.name}")

    def subscribe(self, address: Address) -> None:
        """Deliver notices to the datagram socket at *address*."""
        if address not in self._subscribers:
            self._subscribers.append(address)

    def _publish(self) -> None:
        notice = HotSpotNotice(
            service=self.broker.service,
            broker=self.broker.name,
            hot=self.hot,
            outstanding=self.broker.outstanding,
            threshold=self.broker.qos.threshold,
            sent_at=self.sim.now,
        )
        for address in self._subscribers:
            self.broker.socket.sendto(notice, address)
        self.metrics.increment(
            "hotspot.onsets" if self.hot else "hotspot.clears"
        )

    def _watch(self):
        while True:
            yield self.poll_interval
            load = self.broker.outstanding
            if not self.hot and load >= self.onset:
                self.hot = True
                self._publish()
            elif self.hot and load < self.clear:
                self.hot = False
                self._publish()

    def __repr__(self) -> str:
        return (
            f"<HotSpotMonitor {self.broker.service!r} "
            f"{'HOT' if self.hot else 'cool'} onset={self.onset:g}>"
        )


class HotSpotGate:
    """Front-end admission hook driven by hot-spot notices.

    Install as ``FrontendWebServer(admission=gate.admit)`` and subscribe
    its :attr:`address` to the relevant monitors. While a service is
    hot, requests whose URL profile requires it are rejected before a
    server process is allocated — exactly the "request scheduler"
    reaction the paper sketches, without the centralized model's
    continuous load stream.
    """

    def __init__(
        self,
        sim: Simulation,
        node: Node,
        profiles: ResourceProfileRegistry,
    ) -> None:
        self.sim = sim
        self.profiles = profiles
        self.metrics = MetricsRegistry()
        self.socket = node.datagram_socket()
        self.address = self.socket.address
        self.hot_services: Dict[str, HotSpotNotice] = {}
        sim.process(self._listen(), name="hotspot-gate")

    def _listen(self):
        while True:
            envelope = yield self.socket.recv()
            notice = envelope.payload
            if not isinstance(notice, HotSpotNotice):
                self.metrics.increment("gate.malformed")
                continue
            if notice.hot:
                self.hot_services[notice.service] = notice
            else:
                self.hot_services.pop(notice.service, None)
            self.metrics.increment("gate.notices")

    def is_hot(self, service: str) -> bool:
        """True while *service* is marked hot."""
        return service in self.hot_services

    def admit(self, request: HttpRequest) -> Tuple[bool, str]:
        """Admission decision: reject if any required service is hot."""
        for service in self.profiles.services_for(request.path):
            if service in self.hot_services:
                self.metrics.increment("gate.rejected")
                return False, f"service {service!r} is a hot spot"
        self.metrics.increment("gate.admitted")
        return True, ""
