"""Shared cross-broker cache tier: read-through, write-behind, TTL.

The paper's thesis is that brokers pay for themselves through
*cross-request* optimization (§III) — yet a per-broker
:class:`~repro.core.cache.ResultCache` only amortizes requests that
happen to land on the *same* broker. With ``B`` brokers behind a load
balancer, a popular result is fetched from the backend up to ``B``
times before every broker has it warm. :class:`SharedCacheTier` closes
that gap: one cache shared by every broker in a deployment (or shard),
so the first broker's backend fetch serves all of them.

Policies, following the ``read-through-cache`` / ``write-behind-cache``
patterns named in the roadmap:

* **read-through** — :class:`~repro.core.pipeline.CacheTierStage`
  consults the tier at ingress; on a miss the request proceeds to the
  backend and the dispatch-side fill stage populates the tier, so the
  next request — *at any broker* — hits.
* **write-behind** — :meth:`SharedCacheTier.write_behind` acknowledges
  a write immediately, invalidates the affected keys, and queues the
  backend write on a *bounded* flush queue drained by a background
  flusher process (batched, via ``broker.execute_direct``). When the
  queue is full the write falls back to write-through (the caller is
  told to perform the write synchronously) — bounded memory, no silent
  loss.
* **TTL + transaction-path invalidation** — entries expire after
  ``ttl`` like the local cache, but writes performed under a
  transaction also record ``txn_id → keys``; when the
  :class:`~repro.core.transactions.TransactionTracker` completes the
  transaction (see :meth:`watch_transactions`) every key it wrote is
  invalidated immediately, so the transaction path bounds staleness
  rather than the TTL.

The tier also keeps the deployment-wide accounting for cross-broker
query combining (``combine.*`` counters); the mechanism itself rides
peer gossip — see :class:`~repro.core.peering.CombinableAdvert` and
:class:`~repro.core.pipeline.QueryCombineStage`.

Every counter lives under the ``broker.cachetier.*`` prefix in the
shared registry, keeping the per-broker ``broker.cache.*`` /
shared ``broker.cachetier.*`` split documented in DESIGN.md §13. All
of it is opt-in: a broker with ``cache_tier`` unset behaves
byte-identically to before this module existed.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Any, Dict, Iterable, List, Optional, Tuple

from ..metrics import MetricsRegistry
from .cache import ResultCache

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..sim import Simulation
    from .broker import ServiceBroker
    from .transactions import TransactionTracker

__all__ = ["SharedCacheTier", "PendingWrite"]

#: Queued writes the flusher drains per wakeup.
FLUSH_BATCH = 8
#: Bound on the write-behind queue; a write arriving when the queue is
#: full is refused (the caller write-throughs instead).
FLUSH_QUEUE_DEPTH = 64
#: Simulated seconds between flusher wakeups.
FLUSH_INTERVAL = 0.05


class PendingWrite:
    """One queued write-behind operation.

    Carries the broker that accepted the write (the flusher replays it
    through that broker's ``execute_direct``), the adapter operation and
    payload, and the cache keys the write supersedes.
    """

    __slots__ = ("broker", "operation", "payload", "keys", "txn_id", "accepted_at")

    def __init__(
        self,
        broker: "ServiceBroker",
        operation: str,
        payload: Any,
        keys: Tuple[str, ...],
        txn_id: Optional[str],
        accepted_at: float,
    ) -> None:
        self.broker = broker
        self.operation = operation
        self.payload = payload
        self.keys = keys
        self.txn_id = txn_id
        self.accepted_at = accepted_at

    def __repr__(self) -> str:
        return (
            f"<PendingWrite {self.operation!r} keys={list(self.keys)} "
            f"via {self.broker.name}>"
        )


class SharedCacheTier:
    """One cache shared by every broker of a deployment or shard.

    Parameters
    ----------
    sim:
        The simulation whose clock stamps entries and drives the
        write-behind flusher.
    capacity, ttl:
        Sizing of the backing LRU store (see
        :class:`~repro.core.cache.ResultCache`).
    metrics:
        Registry for the ``broker.cachetier.*`` counters; pass the
        deployment's shared registry so one dump shows the whole tier.

    The write-behind queue holds up to :data:`FLUSH_QUEUE_DEPTH`
    writes; the flusher wakes every :data:`FLUSH_INTERVAL` simulated
    seconds and drains up to :data:`FLUSH_BATCH` of them per wakeup.
    """

    def __init__(
        self,
        sim: "Simulation",
        capacity: int = 4096,
        ttl: float = 30.0,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.sim = sim
        self.metrics = metrics or MetricsRegistry()
        self.ttl = ttl
        self._store = ResultCache(
            capacity=capacity, ttl=ttl, clock=lambda: sim.now
        )
        self._store.bind_metrics(self.metrics, prefix="broker.cachetier")
        self._flush_queue: "deque[PendingWrite]" = deque()
        self._flusher_running = False
        self._txn_keys: Dict[str, List[str]] = {}
        self._brokers: List["ServiceBroker"] = []
        m = self.metrics
        self._h_invalidations = m.handle("broker.cachetier.invalidations")
        self._h_txn_invalidations = m.handle("broker.cachetier.txn_invalidations")
        self._h_wb_enqueued = m.handle("broker.cachetier.writebehind.enqueued")
        self._h_wb_flushed = m.handle("broker.cachetier.writebehind.flushed")
        self._h_wb_overflow = m.handle("broker.cachetier.writebehind.overflow")
        self._h_wb_errors = m.handle("broker.cachetier.writebehind.errors")

    # ------------------------------------------------------------------
    # membership

    def attach(self, broker: "ServiceBroker") -> None:
        """Wire *broker* into the tier.

        Sets ``broker.cache_tier`` (consulted by the cache-tier and
        fill stages), registers the broker as a write-behind executor,
        and — when the broker tracks transactions — hooks transaction
        completion for write-set invalidation. Attaching twice is a
        no-op.
        """
        if broker in self._brokers:
            return
        self._brokers.append(broker)
        broker.cache_tier = self
        if broker.transactions is not None:
            self.watch_transactions(broker.transactions)

    def watch_transactions(self, tracker: "TransactionTracker") -> None:
        """Invalidate a transaction's write-set when *tracker* completes it.

        Idempotent per tracker: registering the same tracker twice
        installs a single callback.
        """
        watched = getattr(tracker, "_cachetier_watched", None)
        if watched is self:
            return
        tracker.on_complete(self._transaction_completed)
        tracker._cachetier_watched = self

    # ------------------------------------------------------------------
    # read path

    def get(self, key: str) -> Optional[Any]:
        """The fresh shared value for *key*, or ``None`` on miss."""
        return self._store.get(key)

    def put(self, key: str, value: Any, ttl: Optional[float] = None) -> None:
        """Read-through fill: store a backend result for every broker."""
        self._store.put(key, value, ttl=ttl)

    def invalidate(self, key: str) -> bool:
        """Drop *key* tier-wide; returns whether it was present."""
        present = self._store.invalidate(key)
        if present:
            self._h_invalidations.inc()
        return present

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store

    # ------------------------------------------------------------------
    # write-behind

    def write_behind(
        self,
        broker: "ServiceBroker",
        operation: str,
        payload: Any,
        keys: Iterable[str] = (),
        txn_id: Optional[str] = None,
    ) -> bool:
        """Queue a backend write; ``True`` if accepted.

        The affected *keys* are invalidated immediately (readers must
        not see the superseded value), the write joins the bounded
        flush queue, and the background flusher replays it through
        *broker*'s ``execute_direct``. Returns ``False`` when the queue
        is full — the caller must then perform the write synchronously
        (write-through fallback); the keys are still invalidated.
        """
        key_tuple = tuple(keys)
        for key in key_tuple:
            self.invalidate(key)
        if txn_id is not None:
            self._txn_keys.setdefault(txn_id, []).extend(key_tuple)
        if len(self._flush_queue) >= FLUSH_QUEUE_DEPTH:
            self._h_wb_overflow.inc()
            return False
        self._flush_queue.append(
            PendingWrite(
                broker=broker,
                operation=operation,
                payload=payload,
                keys=key_tuple,
                txn_id=txn_id,
                accepted_at=self.sim.now,
            )
        )
        self._h_wb_enqueued.inc()
        self._ensure_flusher()
        return True

    def _ensure_flusher(self) -> None:
        if self._flusher_running:
            return
        self._flusher_running = True
        self.sim.process(self._flush_loop(), name="cachetier-flusher")

    def _flush_loop(self):
        while True:
            yield FLUSH_INTERVAL
            drained = 0
            while self._flush_queue and drained < FLUSH_BATCH:
                yield from self._flush_one(self._flush_queue.popleft())
                drained += 1
            if not self._flush_queue:
                self._flusher_running = False
                return

    def _flush_one(self, pending: PendingWrite):
        try:
            yield from pending.broker.execute_direct(
                pending.operation, pending.payload
            )
        except Exception:
            self._h_wb_errors.inc()
        else:
            self._h_wb_flushed.inc()
        # The write superseded these keys again at flush time: a
        # read-through fill may have raced the queued write.
        for key in pending.keys:
            self.invalidate(key)

    # ------------------------------------------------------------------
    # transaction-path invalidation

    def note_txn_write(self, txn_id: str, key: str) -> None:
        """Record that *txn_id* wrote *key* (invalidated on completion)."""
        self._txn_keys.setdefault(txn_id, []).append(key)

    def _transaction_completed(self, txn_id: str) -> None:
        for key in self._txn_keys.pop(txn_id, ()):
            if self.invalidate(key):
                self._h_txn_invalidations.inc()

    def __repr__(self) -> str:
        return (
            f"<SharedCacheTier brokers={len(self._brokers)} "
            f"entries={len(self._store)} pending_writes={len(self._flush_queue)}>"
        )
