"""Shared resources for simulation processes.

* :class:`Resource` — a capacity-limited resource acquired FCFS.
* :class:`PriorityResource` — like :class:`Resource`, but waiters are
  served lowest-priority-number-first (ties FCFS).
* :class:`Store` — an unbounded-or-bounded FIFO buffer of items with
  blocking ``put``/``get``.

Usage pattern (inside a process generator)::

    req = resource.request()
    yield req
    try:
        yield service_time
    finally:
        resource.release(req)

A waiter that gives up (for example after losing an ``AnyOf`` race with a
timeout) must call :meth:`Resource.cancel` / :meth:`Store.cancel` on its
pending event so the slot or item is not lost.
"""

from __future__ import annotations

import heapq
from collections import deque
from itertools import count
from typing import Any, Deque, List, Set, Tuple

from ..errors import SimError
from .core import Event, Simulation

__all__ = ["Request", "Resource", "PriorityResource", "Store", "StorePut", "StoreGet"]


class Request(Event):
    """Pending acquisition of a :class:`Resource` slot."""

    __slots__ = ("resource", "priority", "cancelled")

    def __init__(self, resource: "Resource", priority: int) -> None:
        super().__init__(resource.sim)
        self.resource = resource
        self.priority = priority
        self.cancelled = False


class Resource:
    """A resource with *capacity* slots, granted in queue order.

    Models worker pools (Apache's ``MaxClients``), CPU tokens, and any
    other mutual-exclusion-with-capacity construct.
    """

    def __init__(self, sim: Simulation, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1: {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self._users: Set[Request] = set()
        self._queue: List[Tuple[int, int, Request]] = []
        self._seq = count()

    @property
    def in_use(self) -> int:
        """Number of granted, unreleased slots."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of waiters not yet granted a slot."""
        return sum(1 for _, _, req in self._queue if not req.cancelled)

    def request(self, priority: int = 0) -> Request:
        """Return an event that succeeds when a slot is granted."""
        req = Request(self, priority)
        heapq.heappush(self._queue, (priority, next(self._seq), req))
        self._grant()
        return req

    def release(self, request: Request) -> None:
        """Release a previously granted slot."""
        if request not in self._users:
            raise SimError("release() of a request that does not hold a slot")
        self._users.discard(request)
        self._grant()

    def cancel(self, request: Request) -> None:
        """Withdraw a request; safe whether or not it was granted."""
        if request in self._users:
            self.release(request)
        elif not request.triggered:
            request.cancelled = True

    def _grant(self) -> None:
        while self._queue and len(self._users) < self.capacity:
            _, _, req = heapq.heappop(self._queue)
            if req.cancelled:
                continue
            self._users.add(req)
            req.succeed()


class PriorityResource(Resource):
    """A :class:`Resource` whose waiters pass an explicit priority.

    Lower numbers are served first; equal priorities are FCFS. (The base
    class already implements the mechanics; this subclass exists to make
    call sites self-documenting.)
    """


class StorePut(Event):
    """Pending insertion of an item into a :class:`Store`."""

    __slots__ = ("item", "cancelled")

    def __init__(self, sim: Simulation, item: Any) -> None:
        super().__init__(sim)
        self.item = item
        self.cancelled = False


class StoreGet(Event):
    """Pending retrieval of an item from a :class:`Store`."""

    __slots__ = ("cancelled",)

    def __init__(self, sim: Simulation) -> None:
        super().__init__(sim)
        self.cancelled = False


class Store:
    """A FIFO buffer of items with blocking ``put``/``get``.

    With the default infinite capacity, ``put`` always succeeds
    immediately (it still returns an event, already triggered).
    """

    def __init__(self, sim: Simulation, capacity: float = float("inf")) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity!r}")
        self.sim = sim
        self.capacity = capacity
        self.items: Deque[Any] = deque()
        self._getters: Deque[StoreGet] = deque()
        self._putters: Deque[StorePut] = deque()

    def __len__(self) -> int:
        return len(self.items)

    def put(self, item: Any) -> StorePut:
        """Return an event that succeeds once *item* is buffered."""
        event = StorePut(self.sim, item)
        self._putters.append(event)
        self._dispatch()
        return event

    def get(self) -> StoreGet:
        """Return an event that succeeds with the next item."""
        event = StoreGet(self.sim)
        self._getters.append(event)
        self._dispatch()
        return event

    def cancel(self, event: Event) -> None:
        """Withdraw a pending put/get (no-op if already triggered)."""
        if isinstance(event, (StorePut, StoreGet)) and not event.triggered:
            event.cancelled = True

    def _dispatch(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            # Move buffered-or-pending items to waiting getters first.
            while self._getters and (self.items or self._putters):
                getter = self._getters.popleft()
                if getter.cancelled:
                    progressed = True
                    continue
                if not self.items:
                    # Pull directly from a putter (zero-copy handoff).
                    if not self._admit_one_putter():
                        self._getters.appendleft(getter)
                        break
                getter.succeed(self.items.popleft())
                progressed = True
            # Fill remaining buffer space from putters.
            while self._putters and len(self.items) < self.capacity:
                if not self._admit_one_putter():
                    break
                progressed = True

    def _admit_one_putter(self) -> bool:
        while self._putters:
            putter = self._putters.popleft()
            if putter.cancelled:
                continue
            self.items.append(putter.item)
            putter.succeed()
            return True
        return False
