"""Replica health bookkeeping and backend selection policies.

"The service brokers can track the traffic and monitor their workload
and accurately distribute the workload among the backend servers to
achieve a balanced load" (paper §III). The bookkeeping — an outstanding
count, an EWMA of observed latency, and a consecutive-error health
streak — lives in :class:`ReplicaHealth`, one instance per replica of
*anything* replicated:

* each broker keeps a :class:`BackendState` (a :class:`ReplicaHealth`
  plus the adapter and connection pool) per backend replica, and a
  :class:`Balancer` picks the replica for each dispatch;
* the shard tier's :class:`~repro.core.sharding.ShardGroup` keeps a
  plain :class:`ReplicaHealth` per *broker* replica, so the shard
  router balances and fails over from the same view the backend
  balancers use — there is exactly one outstanding-count/EWMA
  implementation, not a parallel copy in the ring.
"""

from __future__ import annotations

from itertools import count
from typing import TYPE_CHECKING, Optional, Sequence

from ..errors import BrokerError
from .adapters import ServiceAdapter
from .pool import ConnectionPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .faulttolerance import CircuitBreaker

__all__ = [
    "ReplicaHealth",
    "BackendState",
    "Balancer",
    "RoundRobinBalancer",
    "LeastOutstandingBalancer",
    "LatencyAwareBalancer",
]


class ReplicaHealth:
    """Live statistics for one replica of a replicated resource.

    Tracks a consecutive-error streak for circuit breaking: a replica
    that keeps failing is skipped by the balancers (:attr:`healthy`)
    until a success — via the balancers' occasional probe of unhealthy
    replicas when no healthy one exists — resets the streak.

    When a :class:`~repro.core.pipeline.CircuitBreakerStage` is in the
    pipeline it installs a full
    :class:`~repro.core.faulttolerance.CircuitBreaker` on
    :attr:`breaker`, which :meth:`note_completion` then feeds; without
    one the streak-based :attr:`healthy` flag is the only gate.
    """

    #: Consecutive errors after which a replica is considered unhealthy.
    UNHEALTHY_AFTER = 3

    def __init__(self, label: str = "") -> None:
        self.label = label
        self.outstanding = 0
        self.completed = 0
        self.errors = 0
        self.consecutive_errors = 0
        self.ewma_latency = 0.0
        self._ewma_alpha = 0.2
        self.breaker: Optional["CircuitBreaker"] = None

    @property
    def healthy(self) -> bool:
        return self.consecutive_errors < self.UNHEALTHY_AFTER

    def note_dispatch(self) -> None:
        """Count one request sent to this replica."""
        self.outstanding += 1

    def note_completion(self, latency: float, error: bool = False) -> None:
        """Record a completion (or error) and update the EWMA latency."""
        self.outstanding = max(0, self.outstanding - 1)
        if error:
            self.errors += 1
            self.consecutive_errors += 1
            if self.breaker is not None:
                self.breaker.record_failure()
            return
        self.completed += 1
        self.consecutive_errors = 0
        if self.breaker is not None:
            self.breaker.record_success()
        if self.completed == 1:
            self.ewma_latency = latency
        else:
            alpha = self._ewma_alpha
            self.ewma_latency = alpha * latency + (1 - alpha) * self.ewma_latency

    def __repr__(self) -> str:
        return (
            f"<{type(self).__name__} {self.label} "
            f"outstanding={self.outstanding} ewma={self.ewma_latency:.4g}>"
        )


class BackendState(ReplicaHealth):
    """One backend replica behind a broker: health plus adapter and pool."""

    def __init__(self, adapter: ServiceAdapter, pool: ConnectionPool) -> None:
        super().__init__(label=adapter.name)
        self.adapter = adapter
        self.pool = pool

    @property
    def name(self) -> str:
        return self.adapter.name


class Balancer:
    """Base class: pick one replica for the next dispatch.

    All policies balance across *healthy* replicas (circuit breaking);
    when every replica is unhealthy they fall back to all of them, which
    doubles as the periodic probe that detects recovery.
    """

    def pick(self, backends: Sequence[ReplicaHealth]) -> ReplicaHealth:
        """Choose the replica for the next dispatch."""
        raise NotImplementedError

    @staticmethod
    def _candidates(backends: Sequence[ReplicaHealth]) -> Sequence[ReplicaHealth]:
        if not backends:
            raise BrokerError("no backends to balance across")
        healthy = [b for b in backends if b.healthy]
        return healthy if healthy else backends


class RoundRobinBalancer(Balancer):
    """Cycle through replicas regardless of their load."""

    def __init__(self) -> None:
        self._counter = count()

    def pick(self, backends: Sequence[ReplicaHealth]) -> ReplicaHealth:
        candidates = self._candidates(backends)
        return candidates[next(self._counter) % len(candidates)]


class LeastOutstandingBalancer(Balancer):
    """Pick the replica with the fewest in-flight requests (ties: first)."""

    def pick(self, backends: Sequence[ReplicaHealth]) -> ReplicaHealth:
        candidates = self._candidates(backends)
        return min(candidates, key=lambda b: b.outstanding)


class LatencyAwareBalancer(Balancer):
    """Pick by expected waiting time: EWMA latency × (outstanding + 1).

    Replicas with no history yet are tried first so every replica gets
    probed.
    """

    def pick(self, backends: Sequence[ReplicaHealth]) -> ReplicaHealth:
        candidates = self._candidates(backends)
        unprobed = [b for b in candidates if b.completed == 0]
        if unprobed:
            return min(unprobed, key=lambda b: b.outstanding)
        return min(candidates, key=lambda b: b.ewma_latency * (b.outstanding + 1))
