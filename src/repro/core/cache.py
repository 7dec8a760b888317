"""Result cache: LRU with per-entry TTL and stale-serving.

Brokers see every result from their backend, so popular query results
can be cached and served without touching the backend (paper §III,
"Caching of query results"). Expired entries are *kept* until evicted:
a stale entry cannot satisfy a normal lookup, but the fidelity policy
may serve it as a degraded reply when admission control rejects a
request ("cached results from previous queries with lower fidelity").

Accounting lives in a :class:`CacheStats` value object *and*, when the
cache is bound to a :class:`~repro.metrics.MetricsRegistry` (see
:meth:`ResultCache.bind_metrics`), is mirrored onto registry counters
under the ``broker.cache.*`` prefix so per-broker cache behaviour shows
up next to every other broker metric. The shared cross-broker tier uses
the sibling ``broker.cachetier.*`` prefix — see
:mod:`repro.core.cachetier`.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Tuple

__all__ = ["ResultCache", "CacheEntry", "CacheStats"]

#: Registry counter names mirrored from :class:`CacheStats` fields.
_MIRRORED_STATS = ("hits", "misses", "stale_hits", "evictions", "puts")


@dataclass(slots=True)
class CacheEntry:
    """One cached result."""

    value: Any
    stored_at: float
    expires_at: float
    hits: int = field(default=0, init=False)

    def fresh(self, now: float) -> bool:
        """True while the entry has not passed its expiry."""
        return now < self.expires_at


@dataclass(slots=True)
class CacheStats:
    """Hit/miss accounting, from zero."""

    hits: int = field(default=0, init=False)
    misses: int = field(default=0, init=False)
    stale_hits: int = field(default=0, init=False)
    evictions: int = field(default=0, init=False)
    puts: int = field(default=0, init=False)

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ResultCache:
    """Capacity-bounded LRU cache with TTL.

    Parameters
    ----------
    capacity:
        Maximum number of entries; least-recently-used is evicted.
    ttl:
        Default seconds before an entry goes stale.
    clock:
        Callable returning the current time (pass ``lambda: sim.now``).
    """

    def __init__(
        self,
        capacity: int = 256,
        ttl: float = 60.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        if ttl <= 0:
            raise ValueError(f"ttl must be positive: {ttl!r}")
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock or (lambda: 0.0)
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()
        self.stats = CacheStats()
        self._handles: Optional[dict] = None

    def bind_metrics(self, metrics: Any, prefix: str = "broker.cache") -> None:
        """Mirror statistics onto registry counters under *prefix*.

        The :class:`CacheStats` value object stays authoritative (and
        keeps working without a registry); this additionally interns one
        counter handle per stat — ``broker.cache.hits``,
        ``broker.cache.misses``, ``broker.cache.stale_hits``,
        ``broker.cache.evictions``, ``broker.cache.puts`` — so the
        per-broker cache shows up in ``metrics.counters("broker.")``
        dumps next to every other broker counter. Binding twice is a
        no-op; counters never influence simulated behaviour.
        """
        if self._handles is not None:
            return
        self._handles = {
            name: metrics.handle(f"{prefix}.{name}") for name in _MIRRORED_STATS
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        entry = self._entries.get(key)
        return entry is not None and entry.fresh(self._clock())

    def get(self, key: str) -> Optional[Any]:
        """The fresh value for *key*, or ``None`` (stale counts as miss)."""
        entry = self._entries.get(key)
        now = self._clock()
        if entry is None or not entry.fresh(now):
            self.stats.misses += 1
            if self._handles is not None:
                self._handles["misses"].inc()
            return None
        entry.hits += 1
        self.stats.hits += 1
        if self._handles is not None:
            self._handles["hits"].inc()
        self._entries.move_to_end(key)
        return entry.value

    def get_stale(self, key: str) -> Optional[Tuple[Any, float]]:
        """The value for *key* even if expired, with its age in seconds.

        Does not count toward hit/miss statistics of normal lookups;
        used by the fidelity policy for degraded replies.
        """
        entry = self._entries.get(key)
        if entry is None:
            return None
        self.stats.stale_hits += 1
        if self._handles is not None:
            self._handles["stale_hits"].inc()
        return entry.value, self._clock() - entry.stored_at

    def put(self, key: str, value: Any, ttl: Optional[float] = None) -> None:
        """Store *value* under *key* (evicting LRU entries if needed)."""
        now = self._clock()
        lifetime = self.ttl if ttl is None else ttl
        self._entries[key] = CacheEntry(
            value=value, stored_at=now, expires_at=now + lifetime
        )
        self._entries.move_to_end(key)
        self.stats.puts += 1
        if self._handles is not None:
            self._handles["puts"].inc()
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1
            if self._handles is not None:
                self._handles["evictions"].inc()

    def invalidate(self, key: str) -> bool:
        """Drop *key*; returns whether it was present."""
        return self._entries.pop(key, None) is not None

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        self._entries.clear()

    def keys(self):
        """Current keys, least recently used first."""
        return list(self._entries)

    def __repr__(self) -> str:
        return (
            f"<ResultCache {len(self._entries)}/{self.capacity} "
            f"hit_ratio={self.stats.hit_ratio:.2f}>"
        )
