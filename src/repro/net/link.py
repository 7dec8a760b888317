"""Point-to-point link model: latency, jitter, bandwidth, loss.

The paper distinguishes *tightly coupled* backends (same LAN: sub-ms
latency, no loss) from *loosely coupled* ones (WAN: tens of ms latency,
jitter, possible loss). :meth:`Link.lan` and :meth:`Link.wan` provide
those two archetypes; experiments override the numbers where the paper
pins them.
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
    loss:
        Probability that a *datagram* is silently dropped. Stream
        connections are reliable (retransmission is abstracted into
        latency), so loss only applies to datagrams.
    """

    latency: float = 0.0005
    jitter: float = 0.0
    bandwidth: Optional[float] = None
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.latency < 0:
            raise ValueError(f"negative latency: {self.latency!r}")
        if self.jitter < 0:
            raise ValueError(f"negative jitter: {self.jitter!r}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ValueError(f"bandwidth must be positive: {self.bandwidth!r}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1): {self.loss!r}")

    def delay(self, size: int, rng: random.Random) -> float:
        """One-way transfer delay for a *size*-byte message."""
        delay = self.latency
        if self.jitter:
            delay += rng.uniform(0.0, self.jitter)
        if self.bandwidth is not None:
            delay += size / self.bandwidth
        return delay

    def drops(self, rng: random.Random) -> bool:
        """Sample whether a datagram is lost on this link."""
        return self.loss > 0.0 and rng.random() < self.loss

    def degraded(
        self, extra_latency: float = 0.0, bandwidth_factor: float = 1.0
    ) -> "Link":
        """This link during a fault window (see :mod:`repro.net.faults`).

        Adds *extra_latency* seconds of one-way delay and scales the
        bandwidth by *bandwidth_factor*; the loss stays the link's own.
        """
        bandwidth = (
            None if self.bandwidth is None else self.bandwidth * bandwidth_factor
        )
        return Link(
            latency=self.latency + extra_latency,
            jitter=self.jitter,
            bandwidth=bandwidth,
            loss=self.loss,
        )

    @classmethod
    def lan(cls) -> "Link":
        """A same-machine-room link: 0.2 ms, 1 Gb/s, lossless."""
        return cls(latency=0.0002, jitter=0.0, bandwidth=125e6, loss=0.0)

    @classmethod
    def wan(cls, latency: float = 0.040, jitter: float = 0.010) -> "Link":
        """A cross-Internet link: 40 ms ± 10 ms by default, 10 Mb/s, lossless."""
        return cls(latency=latency, jitter=jitter, bandwidth=1.25e6, loss=0.0)

    @classmethod
    def loopback(cls) -> "Link":
        """Intra-host IPC: 20 µs, effectively unlimited bandwidth."""
        return cls(latency=0.00002, jitter=0.0, bandwidth=None, loss=0.0)
