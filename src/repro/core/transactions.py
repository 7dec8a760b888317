"""Transaction integrity: step-based priority escalation.

The paper's supply-chain example (§III): a purchase touches the monitor
vendor at step 1 and again at step 3; if the step-3 access is dropped
the whole transaction aborts and all prior work is wasted. Brokers
therefore "gradually increase the priority of the subsequent accesses
that belong to the same transaction" and, under load, shed step-1
accesses before late-step ones.

:class:`TransactionTracker` implements that: the *effective* QoS level
of a request improves by ``escalation_per_step`` for every completed
step, and requests at or beyond ``protect_from_step`` are *protected* —
admission only rejects them when the hard threshold itself is hit.

The tracker is also the invalidation spine for the cross-request cache
tier (:mod:`repro.core.cachetier`): interested parties register an
:meth:`TransactionTracker.on_complete` callback and are told the moment
a transaction finishes, so cached results written under that
transaction can be invalidated on the transaction path rather than
waiting for TTL expiry.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..metrics import MetricsRegistry
from .protocol import BrokerRequest

__all__ = ["TransactionTracker"]


class TransactionTracker:
    """Tracks transactions and computes escalated priorities."""

    def __init__(
        self,
        escalation_per_step: int = 1,
        protect_from_step: int = 3,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if escalation_per_step < 0:
            raise ValueError(
                f"escalation_per_step must be >= 0: {escalation_per_step!r}"
            )
        self.escalation_per_step = escalation_per_step
        self.protect_from_step = protect_from_step
        self.metrics = metrics or MetricsRegistry()
        self._steps: Dict[str, int] = {}
        self._on_complete: List[Callable[[str], None]] = []

    def observe(self, request: BrokerRequest) -> Optional[int]:
        """Record the latest step seen for the request's transaction.

        Returns the new highest step if this request advanced the
        transaction's known progress (so the broker can gossip it to
        peers — see :class:`repro.core.peering.BrokerPeerGroup`), else
        ``None``.
        """
        if request.txn_id is None:
            return None
        self.metrics.increment("txn.accesses")
        previous = self._steps.get(request.txn_id, 0)
        if request.txn_step > previous:
            self._steps[request.txn_id] = request.txn_step
            return request.txn_step
        self._steps.setdefault(request.txn_id, previous)
        return None

    def observe_remote(self, txn_id: str, step: int) -> None:
        """Merge a peer broker's knowledge of a transaction's progress."""
        previous = self._steps.get(txn_id, 0)
        if step > previous:
            self._steps[txn_id] = step
            self.metrics.increment("txn.remote_updates")

    def step_of(self, txn_id: str) -> int:
        """The highest step seen for *txn_id* (0 if unknown)."""
        return self._steps.get(txn_id, 0)

    def _known_step(self, request: BrokerRequest) -> int:
        """The transaction's progress: the request's own tag or what this
        broker has learned locally or from peers, whichever is further."""
        if request.txn_id is None:
            return request.txn_step
        return max(request.txn_step, self.step_of(request.txn_id))

    def effective_level(self, request: BrokerRequest) -> int:
        """The request's QoS level after transaction escalation.

        Level 1 is the best; each step beyond the first raises priority
        by ``escalation_per_step`` levels. An access of an advanced
        transaction is escalated even when the request itself carries no
        step tag, as long as the progress is known (locally or via
        broker peering).
        """
        if request.txn_id is None:
            return request.qos_level
        step = self._known_step(request)
        if step <= 1:
            return request.qos_level
        boost = (step - 1) * self.escalation_per_step
        return max(1, request.qos_level - boost)

    def protected(self, request: BrokerRequest) -> bool:
        """True if admission must not shed this request early."""
        return (
            request.txn_id is not None
            and self._known_step(request) >= self.protect_from_step
        )

    def on_complete(self, callback: Callable[[str], None]) -> None:
        """Register *callback* to run when a transaction completes.

        Callbacks receive the transaction id and run synchronously from
        :meth:`complete`. The cache tier uses this to invalidate every
        key written under the transaction (see
        :meth:`repro.core.cachetier.SharedCacheTier.watch_transactions`).
        """
        self._on_complete.append(callback)

    def complete(self, txn_id: str) -> None:
        """Forget a finished transaction and fire completion callbacks."""
        if self._steps.pop(txn_id, None) is not None:
            self.metrics.increment("txn.completed")
            for callback in self._on_complete:
                callback(txn_id)

    def __repr__(self) -> str:
        return f"<TransactionTracker active={len(self._steps)}>"
