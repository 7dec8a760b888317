"""The broker's request queue.

Requests wait here between admission and dispatch. The queue serves
strict priority by *effective* QoS level (transaction escalation may
raise a request above its nominal class — see
:mod:`repro.core.transactions`), FCFS within a level. "Service brokers
receive, sort and rewrite these messages according to their QoS levels"
— the sorting happens here; dispatchers pull from the front.

The queue is unbounded by default (the paper's testbed). A capacity
and shedding policy can be installed via :meth:`BrokerQueue.configure`
— normally done by
:class:`~repro.core.pipeline.BackpressureStage` — after which
:meth:`BrokerQueue.put` sheds work instead of letting the backlog grow
without limit (see :data:`SHED_POLICIES`).
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import TYPE_CHECKING, Callable, Deque, List, Optional, Tuple

from ..sim.core import Event, Simulation
from .protocol import BrokerRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pipeline import RequestContext

__all__ = ["BrokerQueue", "QueuedRequest", "SHED_POLICIES"]

#: Shedding policies a bounded queue understands (see
#: :meth:`BrokerQueue.configure`):
#:
#: * ``"reject-new"`` — a full queue refuses the arrival itself;
#: * ``"drop-oldest"`` — evict the longest-waiting request to make room;
#: * ``"drop-lowest"`` — evict the worst (lowest-class, youngest)
#:   request, but only when it is strictly lower-class than the
#:   arrival; equal-class arrivals are rejected to preserve FCFS.
SHED_POLICIES: Tuple[str, ...] = ("reject-new", "drop-oldest", "drop-lowest")


class QueuedRequest:
    """A request plus its queueing metadata.

    ``context`` is the request's pipeline :class:`RequestContext`; it
    rides through the queue so dispatch stages can keep appending to
    the same per-request timeline.
    """

    __slots__ = (
        "request", "effective_level", "enqueued_at", "seq", "claimed", "context"
    )

    def __init__(
        self,
        request: BrokerRequest,
        effective_level: int,
        enqueued_at: float,
        seq: int,
        context: Optional["RequestContext"] = None,
    ) -> None:
        self.request = request
        self.effective_level = effective_level
        self.enqueued_at = enqueued_at
        self.seq = seq
        self.claimed = False
        self.context = context

    def sort_key(self) -> Tuple[int, int]:
        """Heap ordering: (effective level, arrival sequence)."""
        return (self.effective_level, self.seq)


class _QueueGet(Event):
    """Pending dispatcher pull."""

    __slots__ = ("cancelled",)

    def __init__(self, sim: Simulation) -> None:
        super().__init__(sim)
        self.cancelled = False


class BrokerQueue:
    """Priority queue of admitted requests.

    ``priority_of`` computes a request's effective level at enqueue time
    (defaults to its nominal QoS level).

    With a capacity installed by :meth:`configure` the queue becomes
    bounded: :meth:`put` either evicts a queued victim (handed to the
    ``on_shed`` callback) or returns ``None`` to signal that the
    arrival itself was shed — the caller owes the client an immediate
    low-fidelity "busy" reply.
    """

    def __init__(
        self,
        sim: Simulation,
        priority_of: Optional[Callable[[BrokerRequest], int]] = None,
    ) -> None:
        self.sim = sim
        self.priority_of = priority_of or (lambda request: request.qos_level)
        self._heap: List[Tuple[int, int, QueuedRequest]] = []
        self._seq = count()
        self._getters: Deque[_QueueGet] = deque()
        # Live count of unclaimed entries; claimed items stay on the
        # heap as tombstones, so len() must not scan it.
        self._waiting = 0
        self.capacity: Optional[int] = None
        self.shed_policy = "reject-new"
        self.on_shed: Optional[Callable[[QueuedRequest, str], None]] = None
        #: Deepest backlog ever observed (for the queue-bound invariant).
        self.peak_depth = 0
        #: Requests shed by the bound — evictions and rejected arrivals.
        self.shed_count = 0

    def __len__(self) -> int:
        return self._waiting

    def configure(
        self,
        capacity: Optional[int],
        shed_policy: str = "reject-new",
        on_shed: Optional[Callable[[QueuedRequest, str], None]] = None,
    ) -> None:
        """Install (or remove, with ``capacity=None``) a queue bound.

        *on_shed* is invoked as ``on_shed(victim, policy)`` for every
        **queued** request evicted to make room; rejected arrivals are
        reported by :meth:`put` returning ``None`` instead.
        """
        if capacity is not None and capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"unknown shed policy {shed_policy!r}; "
                f"expected one of {SHED_POLICIES}"
            )
        self.capacity = capacity
        self.shed_policy = shed_policy
        self.on_shed = on_shed

    def put(
        self, request: BrokerRequest, context: Optional["RequestContext"] = None
    ) -> Optional[QueuedRequest]:
        """Enqueue an admitted request (with its pipeline context, if any).

        Returns ``None`` when a configured capacity sheds the arrival
        itself (``reject-new``, or no strictly-worse victim exists) —
        the caller must answer the request immediately.
        """
        # A full heap implies no waiting getters: _dispatch drains the
        # heap whenever a getter is pending, so the bound only matters
        # on the no-consumer path.
        if self.capacity is not None and self._waiting >= self.capacity:
            if not self._make_room(request):
                self.shed_count += 1
                return None
        item = QueuedRequest(
            request=request,
            effective_level=self.priority_of(request),
            enqueued_at=self.sim.now,
            seq=next(self._seq),
            context=context,
        )
        heapq.heappush(self._heap, (*item.sort_key(), item))
        self._waiting += 1
        if self._waiting > self.peak_depth:
            self.peak_depth = self._waiting
        self._dispatch()
        return item

    def _make_room(self, request: BrokerRequest) -> bool:
        """Evict one queued victim per the shed policy; False = reject arrival."""
        policy = self.shed_policy
        if policy == "reject-new":
            return False
        victim: Optional[QueuedRequest] = None
        if policy == "drop-oldest":
            for _, _, item in self._heap:
                if item.claimed:
                    continue
                if victim is None or item.seq < victim.seq:
                    victim = item
        else:  # drop-lowest
            for _, _, item in self._heap:
                if item.claimed:
                    continue
                if victim is None or item.sort_key() > victim.sort_key():
                    victim = item
            # Only evict strictly worse work: an arrival no better than
            # everything queued is rejected, preserving FCFS in-class.
            if victim is not None and victim.effective_level <= self.priority_of(
                request
            ):
                return False
        if victim is None:
            return False
        victim.claimed = True
        self._waiting -= 1
        self.shed_count += 1
        if self.on_shed is not None:
            self.on_shed(victim, policy)
        return True

    def get(self) -> _QueueGet:
        """Event succeeding with the highest-priority :class:`QueuedRequest`."""
        event = _QueueGet(self.sim)
        self._getters.append(event)
        self._dispatch()
        return event

    def take_matching(
        self, predicate: Callable[[QueuedRequest], bool], limit: int
    ) -> List[QueuedRequest]:
        """Claim up to *limit* queued requests satisfying *predicate*.

        Used by the clustering engine to gather batch companions for a
        request already pulled by a dispatcher. Claimed requests are
        removed from the queue (lazily, via a tombstone flag).
        """
        taken: List[QueuedRequest] = []
        if limit <= 0:
            return taken
        for _, _, item in sorted(self._heap, key=lambda e: (e[0], e[1])):
            if item.claimed:
                continue
            if predicate(item):
                item.claimed = True
                self._waiting -= 1
                taken.append(item)
                if len(taken) >= limit:
                    break
        return taken

    def gauges(self) -> "dict[str, Callable[[], float]]":
        """Depth and shed readings as named gauge callables.

        The canonical sampling surface for in-flight telemetry: a
        :class:`~repro.obs.telemetry.TelemetryScraper` registers these
        once (via :meth:`ServiceBroker.load_gauges
        <repro.core.broker.ServiceBroker.load_gauges>`) instead of
        reaching into queue internals at every scrape. ``queue_depth``
        and ``peak_depth`` are instantaneous readings; ``shed`` is the
        cumulative shed counter, so its scrape series behaves like any
        other counter (deltas/rates are meaningful).
        """
        return {
            "queue_depth": lambda: float(len(self)),
            "peak_depth": lambda: float(self.peak_depth),
            "shed": lambda: float(self.shed_count),
        }

    def snapshot(self) -> List[QueuedRequest]:
        """The waiting requests in service order (for inspection)."""
        return [
            item
            for _, _, item in sorted(self._heap, key=lambda e: (e[0], e[1]))
            if not item.claimed
        ]

    def reset(self) -> List[QueuedRequest]:
        """Discard the backlog (a broker crash); returns the orphans.

        Every waiting item is tombstoned so any stage still holding a
        reference sees it as claimed, and pending getters are cancelled
        — the dispatcher processes that created them die with the
        broker. Capacity, policy, and the peak/shed statistics survive.
        """
        orphans = self.snapshot()
        for item in orphans:
            item.claimed = True
        self._heap = []
        self._waiting = 0
        for getter in self._getters:
            getter.cancelled = True
        self._getters.clear()
        return orphans

    def _dispatch(self) -> None:
        while self._getters and self._heap:
            # Skip tombstoned (claimed) heap entries.
            while self._heap and self._heap[0][2].claimed:
                heapq.heappop(self._heap)
            if not self._heap:
                return
            getter = self._getters.popleft()
            if getter.cancelled:
                continue
            _, _, item = heapq.heappop(self._heap)
            item.claimed = True
            self._waiting -= 1
            getter.succeed(item)

    def __repr__(self) -> str:
        return f"<BrokerQueue depth={len(self)}>"
