"""Idle-time prefetching.

"Service brokers enable forecasting of the next possible queries and
prefetching the necessary information ... when the server load is not
high" (paper §III, the news-headline example). A :class:`Prefetcher`
owns a set of rules; each rule periodically refreshes one query's cache
entry, but only while the broker is idle (outstanding load at or below
``idle_threshold``) so prefetch traffic never competes with real
requests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence

from ..errors import BrokerError, ReproError
from ..sim.core import Simulation
from .broker import ServiceBroker

__all__ = ["PrefetchRule", "Prefetcher"]

#: Seconds a rule waits before re-checking a busy broker.
BACKOFF = 0.05


@dataclass(frozen=True)
class PrefetchRule:
    """One periodic prefetch: refresh *cache_key* every *period* seconds."""

    operation: str
    payload: Any
    cache_key: str
    period: float
    ttl: Optional[float] = None

    def __post_init__(self) -> None:
        if self.period <= 0:
            raise BrokerError(f"prefetch period must be positive: {self.period!r}")


class Prefetcher:
    """Runs prefetch rules against a broker's backends during idle time."""

    def __init__(
        self,
        broker: ServiceBroker,
        rules: Sequence[PrefetchRule],
        idle_threshold: int = 0,
    ) -> None:
        if broker.cache is None:
            raise BrokerError("prefetching requires the broker to have a cache")
        self.broker = broker
        self.sim: Simulation = broker.sim
        self.rules: List[PrefetchRule] = list(rules)
        self.idle_threshold = idle_threshold
        self.metrics = broker.metrics
        self._processes = [
            self.sim.process(self._run_rule(rule), name=f"prefetch:{rule.cache_key}")
            for rule in self.rules
        ]

    def _run_rule(self, rule: PrefetchRule):
        while True:
            yield rule.period
            # Wait for an idle moment; a busy broker postpones prefetch.
            deferred = 0.0
            while self.broker.outstanding > self.idle_threshold:
                yield BACKOFF
                deferred += BACKOFF
                if deferred >= rule.period:
                    self.metrics.increment("prefetch.skipped_busy")
                    break
            else:
                yield from self._fetch(rule)

    def _fetch(self, rule: PrefetchRule):
        try:
            result = yield from self.broker.execute_direct(rule.operation, rule.payload)
        except ReproError:
            self.metrics.increment("prefetch.errors")
            return
        assert self.broker.cache is not None
        self.broker.cache.put(rule.cache_key, result, ttl=rule.ttl)
        self.metrics.increment("prefetch.refreshes")

    def __repr__(self) -> str:
        return f"<Prefetcher rules={len(self.rules)} broker={self.broker.name}>"
