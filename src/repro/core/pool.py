"""Persistent connection pool between a broker and one backend.

"In the proposed approach, DB brokers maintain persistent connection
thus saving the cost of connection setup" (paper §III). The pool opens
at most ``max_size`` connections lazily, hands them out to dispatchers,
and reuses them across requests; the API baseline, by contrast, pays the
handshake on every single operation.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, List, Optional

from ..errors import BrokerError
from ..metrics import MetricsRegistry
from ..sim.core import Event, Simulation
from .adapters import ServiceAdapter

__all__ = ["ConnectionPool"]


class ConnectionPool:
    """Bounded pool of persistent backend connections."""

    def __init__(
        self,
        sim: Simulation,
        adapter: ServiceAdapter,
        max_size: int = 4,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_size < 1:
            raise BrokerError(f"pool max_size must be >= 1: {max_size!r}")
        self.sim = sim
        self.adapter = adapter
        self.max_size = max_size
        self.metrics = metrics or MetricsRegistry()
        self._idle: List[Any] = []
        self._waiters: Deque[Event] = deque()
        self._count = 0  # connections existing or being established

    def acquire(self):
        """Obtain a connection; a ``yield from`` generator.

        Reuses an idle healthy connection, creates a new one under the
        cap, or waits for a release.
        """
        while True:
            while self._idle:
                connection = self._idle.pop()
                if getattr(connection, "closed", False):
                    self._count -= 1
                    continue
                self.metrics.increment("pool.reused")
                return connection
            if self._count < self.max_size:
                self._count += 1
                try:
                    connection = yield from self.adapter.connect()
                except BaseException:
                    self._count -= 1
                    raise
                self.metrics.increment("pool.created")
                return connection
            waiter = Event(self.sim)
            self._waiters.append(waiter)
            started = self.sim.now
            connection = yield waiter
            self.metrics.observe("pool.wait_time", self.sim.now - started)
            if connection is not None and not getattr(connection, "closed", False):
                self.metrics.increment("pool.reused")
                return connection
            # Handed a broken connection or a retry token: loop again.
            if connection is not None:
                self._count -= 1

    def release(self, connection: Any, discard: bool = False) -> None:
        """Return a connection; ``discard`` drops it (broken/poisoned)."""
        if discard or getattr(connection, "closed", False):
            self._count -= 1
            self.metrics.increment("pool.discarded")
            # A slot opened up: let one waiter retry (it will create).
            self._wake(None)
            return
        if not self._wake(connection):
            self._idle.append(connection)

    def _wake(self, connection: Any) -> bool:
        """Hand *connection* (or a retry token) to the next waiter."""
        while self._waiters:
            waiter = self._waiters.popleft()
            if not waiter.triggered:
                waiter.succeed(connection)
                return True
        return False

    def __repr__(self) -> str:
        return f"<ConnectionPool {self.adapter.name} size={self._count} idle={len(self._idle)}>"
