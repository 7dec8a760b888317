"""Point-to-point link model: latency, jitter, bandwidth.

The paper distinguishes *tightly coupled* backends (same LAN: sub-ms
latency) from *loosely coupled* ones (WAN: tens of ms latency, jitter).
:meth:`Link.lan` and :meth:`Link.wan` provide those two archetypes;
experiments override the numbers where the paper pins them. Links do
not lose messages: a datagram is lost only across a severed pair
(:meth:`~repro.net.network.Network.sever_link`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

__all__ = ["Link"]


@dataclass(frozen=True, slots=True)
class Link:
    """Transmission characteristics of a (bidirectional) link.

    Parameters
    ----------
    latency:
        One-way propagation delay in seconds.
    jitter:
        Maximum additional uniform random delay in seconds.
    bandwidth:
        Throughput in bytes/second, or ``None`` for unlimited.
    """

    latency: float = 0.0005
    jitter: float = 0.0
    bandwidth: Optional[float] = None

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"negative latency: {self.latency!r}")
        if self.jitter < 0:
            raise ValueError(f"negative jitter: {self.jitter!r}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive: {self.bandwidth!r}")

    def delay(self, size: int, rng: random.Random) -> float:
        """One-way transfer delay for a *size*-byte message.

        The reference for the three copies inlined on the hot path
        (``StreamConnection.send``, ``DatagramSocket.sendto`` and
        ``Node.connect_stream``): each must give this delay and draw
        *rng* exactly as here, one uniform iff the link has jitter.
        ``tests/net/test_routes.py`` holds them to it.
        """
        delay = self.latency
        if self.jitter:
            delay += rng.uniform(0.0, self.jitter)
        if self.bandwidth is not None:
            delay += size / self.bandwidth
        return delay

    def degraded(
        self, extra_latency: float = 0.0, bandwidth_factor: float = 1.0
    ) -> "Link":
        """This link during a fault window (see :mod:`repro.net.faults`).

        Adds *extra_latency* seconds of one-way delay and scales the
        bandwidth by *bandwidth_factor*.
        """
        bandwidth = (
            None if self.bandwidth is None else self.bandwidth * bandwidth_factor
        )
        return Link(
            latency=self.latency + extra_latency,
            jitter=self.jitter,
            bandwidth=bandwidth,
        )

    @classmethod
    def lan(cls) -> "Link":
        """A same-machine-room link: 0.2 ms, 1 Gb/s."""
        return cls(latency=0.0002, jitter=0.0, bandwidth=125e6)

    @classmethod
    def wan(cls, latency: float = 0.040, jitter: float = 0.010) -> "Link":
        """A cross-Internet link: 40 ms ± 10 ms by default, 10 Mb/s."""
        return cls(latency=latency, jitter=jitter, bandwidth=1.25e6)

    @classmethod
    def loopback(cls) -> "Link":
        """Intra-host IPC: 20 µs, effectively unlimited bandwidth."""
        return cls(latency=0.00002, jitter=0.0, bandwidth=None)
