"""Discrete-event simulation kernel.

A :class:`Simulation` owns a virtual clock and an event heap. Model code
is written as Python generator functions ("processes") that ``yield``
:class:`Event` objects to wait on; when an event triggers, the process
resumes with the event's value (or the event's exception is thrown into
the generator). Composable "blocking" calls are generators used with
``yield from`` that terminate with ``return value``.

The design follows the well-known SimPy architecture but is implemented
from scratch, exposing only what this project needs: events, timeouts,
processes (with interrupts), and the ``AnyOf`` / ``AllOf`` combinators.

Two wait idioms are supported. The classic one yields an event::

    yield sim.timeout(3.0)

The kernel-native fast idiom yields a bare delay (``float`` or ``int``
seconds) and the dispatcher parks the process on a private, reusable
"tick" event — no :class:`Timeout` object, no pool traffic, no
allocation::

    yield 3.0

Both resume the process with ``None`` after the delay and consume one
scheduling sequence number at the yield point, so converting a direct
``yield sim.timeout(d)`` into ``yield d`` leaves seeded trajectories
byte-identical (DESIGN.md §14).

Scheduling internals (the "batched dispatch" layout, DESIGN.md §14):
entries are ``(when, key, event)`` 3-tuples where ``key`` is a global
monotonic sequence number, biased negative for :data:`URGENT` entries so
urgent bookkeeping still dispatches first at equal times. New entries
are not pushed onto the heap eagerly; they collect in a small pending
batch and the run loop merges batch and heap by ``(when, key)``. The
overwhelmingly common single-successor case then costs one
``heappushpop`` (one sift) instead of a push+pop pair — and when the
new entry is already the earliest (zero-delay wakes), no heap traffic
at all.

Example::

    sim = Simulation(seed=1)

    def worker(sim, results):
        yield sim.timeout(3.0)
        results.append(sim.now)

    results = []
    sim.process(worker(sim, results))
    sim.run()
    assert results == [3.0]
"""

from __future__ import annotations

import heapq
import sys
from itertools import count
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional

from ..errors import (
    EventAlreadyTriggered,
    EventNotTriggered,
    Interrupt,
    SimError,
    StopSimulation,
)
from .rng import RngRegistry

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Condition",
    "AnyOf",
    "AllOf",
    "Simulation",
    "URGENT",
    "NORMAL",
    "ProcessGenerator",
]

#: Scheduling priority for bookkeeping events that must run before model
#: events scheduled at the same instant (process initialization,
#: interrupts).
URGENT = 0

#: Default scheduling priority for model events.
NORMAL = 1

#: Key bias applied to URGENT entries: at equal times an urgent entry
#: always sorts before every normal entry (whose keys are the raw,
#: non-negative sequence numbers), while urgent entries keep sequence
#: order among themselves. This reproduces the old ``(when, priority,
#: seq)`` total order with one fewer tuple slot to compare.
_URGENT_BIAS = 1 << 62

#: Sentinel marking an event that has not triggered yet.
_PENDING = object()

#: Type alias for process generator functions' return value.
ProcessGenerator = Generator["Event", Any, Any]

#: Maximum number of retired :class:`Timeout` objects kept for reuse.
_TIMEOUT_POOL_CAP = 1024

_heappush = heapq.heappush
_heappop = heapq.heappop
_heappushpop = heapq.heappushpop


class Event:
    """A happening that processes can wait for.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, which schedules it on the simulation heap. When the
    heap pops it, the event is *processed*: its callbacks run and any
    waiting processes resume.

    The first process to wait on an event occupies the ``_waiter`` fast
    slot instead of the ``callbacks`` list; the dispatcher resumes it
    inline without a callback call. Later subscribers (more processes,
    conditions, transport deliveries) append to ``callbacks`` as
    always, and dispatch order is waiter first, then callbacks — i.e.
    subscription order, exactly as before the slot existed.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "defused", "_waiter")

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        #: Callables invoked with this event when it is processed. Set to
        #: ``None`` once processed, so late subscribers can detect that.
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: Optional[bool] = None
        #: ``True`` if a failure has been handled and must not crash the run.
        self.defused = False
        #: First waiting process (dispatch fast path), if any.
        self._waiter: Optional["Process"] = None

    @property
    def triggered(self) -> bool:
        """``True`` once :meth:`succeed` or :meth:`fail` was called."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """``True`` once the callbacks have been run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded. Raises if still pending."""
        if self._value is _PENDING:
            raise EventNotTriggered(f"{self!r} has not been triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The value the event triggered with (or its exception)."""
        if self._value is _PENDING:
            raise EventNotTriggered(f"{self!r} has not been triggered")
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with *value* after *delay*."""
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        if delay == 0.0:
            self.sim.wake(self)
        else:
            self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with *exception*.

        Processes waiting on the event will have the exception thrown
        into them. If nothing waits on a failed event when it is
        processed, the simulation run aborts with the exception (unless
        :attr:`defused` is set).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise EventAlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        if delay == 0.0:
            self.sim.wake(self)
        else:
            self.sim._schedule(self, delay)
        return self

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self._ok else "failed"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after a fixed delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        super().__init__(sim)
        self.delay = delay
        self._ok = True
        self._value = value
        sim._schedule(self, delay)

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay!r}>"


class _Tick(Event):
    """A process's private, reusable delay event (the ``yield 3.0`` idiom).

    A tick is never handed to model code: it exists only between the
    dispatcher scheduling it and the dispatcher resuming its owner, so
    it needs no value plumbing, never fails, and is reused for every
    bare-delay wait of its process. An interrupted wait orphans the
    in-flight tick (the owner allocates a fresh one next time) so a
    stale heap entry can never resume the process early.
    """

    __slots__ = ()

    def __init__(self, sim: "Simulation") -> None:
        super().__init__(sim)
        self._ok = True
        self._value = None

    def __repr__(self) -> str:
        return f"<_Tick at {id(self):#x}>"


class _Interruption(Event):
    """Urgent bookkeeping event carrying an :class:`Interrupt` to a process."""

    __slots__ = ()

    def __init__(self, process: "Process", cause: Any) -> None:
        super().__init__(process.sim)
        self._ok = False
        self._value = Interrupt(cause)
        self.defused = True
        self._waiter = process
        self.sim._schedule(self, 0.0, priority=URGENT)


class Process(Event):
    """A running generator; also an event that triggers when it finishes.

    The process succeeds with the generator's ``return`` value, or fails
    with any exception the generator raises.
    """

    __slots__ = ("_generator", "_send", "_throw", "_target", "name", "_rcb", "_tick")

    def __init__(
        self, sim: "Simulation", generator: ProcessGenerator, name: str = ""
    ) -> None:
        if not hasattr(generator, "send") or not hasattr(generator, "throw"):
            raise TypeError(f"{generator!r} is not a generator")
        super().__init__(sim)
        self._generator = generator
        self._send = generator.send
        self._throw = generator.throw
        self.name = name or getattr(generator, "__name__", "process")
        #: Cached bound resume callback — one allocation per process
        #: instead of one per wait. A self-cycle: every termination site
        #: drops it (with ``_tick`` and ``_target``, which pins the last
        #: event waited on) so a finished process is freed by reference
        #: counting alone (DESIGN.md §9). The exhausted generator holds
        #: no frame, so ``_send``/``_throw`` can stay for a stale
        #: same-instant interruption to throw into.
        self._rcb = self._resume
        #: Reusable bare-delay tick event (created on first float wait).
        self._tick: Optional[_Tick] = None
        #: The event the generator currently waits on.
        self._target: Optional[Event] = None
        init = Event(sim)
        init._ok = True
        init._value = None
        init._waiter = self
        sim._schedule(init, 0.0, priority=URGENT)
        self._target = init

    @property
    def is_alive(self) -> bool:
        """``True`` while the generator has not terminated."""
        return self._value is _PENDING

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current instant.

        The process is detached from whatever event it was waiting on;
        that event stays valid and may trigger later without affecting
        the process (its subscription has been removed).
        """
        if self._value is not _PENDING:
            raise SimError("cannot interrupt a terminated process")
        target = self._target
        if target is not None:
            if target._waiter is self:
                target._waiter = None
                if target is self._tick:
                    # The tick stays scheduled; orphan it so the next
                    # bare-delay wait cannot alias the stale heap entry.
                    self._tick = None
            elif target.callbacks is not None:
                try:
                    target.callbacks.remove(self._rcb)
                except ValueError:
                    pass
        _Interruption(self, cause)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event*.

        This is the out-of-line twin of the dispatch fast paths inlined
        in :meth:`Simulation.run`; it serves waits that went through the
        ``callbacks`` list (second and later subscribers, conditions)
        and the :meth:`Simulation._step` slow path. The two must stay
        behaviourally identical.
        """
        sim = self.sim
        sim._active_process = self
        try:
            if event._ok:
                target = self._send(event._value)
            else:
                # The failure is being delivered, hence handled.
                event.defused = True
                target = self._throw(event._value)
        except StopIteration as exc:
            self._ok = True
            self._value = exc.value
            self._rcb = self._tick = self._target = None
            sim.wake(self)
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self._ok = False
            self._value = exc
            self._rcb = self._tick = self._target = None
            sim.wake(self)
        else:
            sim._advance(self, target)
        sim._active_process = None

    def __repr__(self) -> str:
        return f"<Process {self.name!r} {'alive' if self.is_alive else 'done'}>"


class Condition(Event):
    """An event that triggers once *evaluate* is satisfied by sub-events.

    The success value is a ``dict`` mapping each already-succeeded
    sub-event to its value, in original order. If any sub-event fails
    before the condition triggers, the condition fails with the same
    exception.
    """

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(
        self,
        sim: "Simulation",
        events: Iterable[Event],
        evaluate: Callable[[List[Event], int], bool],
    ) -> None:
        super().__init__(sim)
        self._events = list(events)
        self._count = 0
        self._evaluate = evaluate
        for event in self._events:
            if event.sim is not sim:
                raise SimError("all events must belong to the same Simulation")
        if not self._events:
            self.succeed({})
            return
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            elif self._value is _PENDING or event._ok is not True:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self.triggered:
            if not event._ok:
                event.defused = True
            return
        self._count += 1
        if not event._ok:
            event.defused = True
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())
        else:
            return
        # Decided: let go of the losers that can no longer fail (a long
        # pre-triggered Timeout, typically), so they neither pin this
        # condition's value until they fire nor miss the Timeout pool.
        # One that may still fail stays subscribed, to be defused above.
        check = self._check
        for loser in self._events:
            if loser._ok is True and loser.callbacks is not None:
                try:
                    loser.callbacks.remove(check)
                except ValueError:
                    pass

    def _collect_values(self) -> Dict[Event, Any]:
        # Only *processed* events count as having happened: a Timeout is
        # "triggered" from the instant it is created (it is pre-scheduled),
        # but it has not occurred until the heap pops it.
        return {
            event: event._value
            for event in self._events
            if event.processed and event._ok
        }


def _evaluate_any(events: List[Event], count: int) -> bool:
    """Condition evaluator: satisfied once a single sub-event triggered."""
    return count >= 1


def _evaluate_all(events: List[Event], count: int) -> bool:
    """Condition evaluator: satisfied once every sub-event triggered."""
    return count == len(events)


class AnyOf(Condition):
    """Triggers as soon as one of *events* triggers."""

    __slots__ = ()

    def __init__(self, sim: "Simulation", events: Iterable[Event]) -> None:
        super().__init__(sim, events, _evaluate_any)


class AllOf(Condition):
    """Triggers once all of *events* have triggered."""

    __slots__ = ()

    def __init__(self, sim: "Simulation", events: Iterable[Event]) -> None:
        super().__init__(sim, events, _evaluate_all)


class Simulation:
    """The event loop: virtual clock, event heap, and RNG registry.

    Parameters
    ----------
    seed:
        Master seed for the deterministic RNG substreams returned by
        :meth:`rng`. Two simulations built with the same seed and the
        same model code produce identical trajectories.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_pending",
        "_pending_append",
        "_counter",
        "_rngs",
        "seed",
        "_active_process",
        "_timeout_pool",
        "tracer",
        "obs",
    )

    def __init__(self, seed: int = 0, tracer: Optional[Any] = None) -> None:
        self._now = 0.0
        self._heap: List[Any] = []
        #: Entries scheduled since the dispatcher last chose an event.
        #: The run loop merges this batch against the heap by
        #: ``(when, key)`` — see the module docstring. The list object's
        #: identity is load-bearing (``_pending_append`` is bound once).
        self._pending: List[Any] = []
        self._pending_append = self._pending.append
        self._counter = count()
        self._rngs = RngRegistry(seed)
        self.seed = seed
        self._active_process: Optional[Process] = None
        #: Retired Timeout objects available for reuse (see :meth:`timeout`).
        self._timeout_pool: List[Timeout] = []
        #: Optional :class:`repro.sim.trace.Tracer`; see :meth:`trace`.
        self.tracer = tracer
        #: Optional :class:`repro.obs.spans.TraceCollector`; instrumented
        #: completion points (broker client, front end) call
        #: ``obs.finish(ctx)`` when this is set. ``None`` (the default)
        #: keeps tracing disabled at the cost of one attribute check —
        #: the obs layer's overhead contract (DESIGN.md §10).
        self.obs: Optional[Any] = None

    def trace(self, category: str, message: str, **fields: Any) -> None:
        """Emit a trace record if a tracer is attached (else a no-op)."""
        if self.tracer is not None:
            self.tracer.log(self._now, category, message, **fields)

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds with *value* after *delay* seconds.

        Retired timeouts are pooled: the run loop recycles a processed
        :class:`Timeout` when nothing else references it (verified via
        the interpreter refcount), so steady-state runs allocate almost
        no timeout objects. Processes that just need to sleep should
        prefer the bare-delay idiom (``yield delay``), which skips this
        factory entirely.
        """
        pool = self._timeout_pool
        if not pool:
            return Timeout(self, delay, value)
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay!r}")
        timeout = pool.pop()
        timeout.delay = delay
        timeout._value = value
        self._pending_append((self._now + delay, next(self._counter), timeout))
        return timeout

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start *generator* as a concurrent process."""
        return Process(self, generator, name=name)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event that triggers when any of *events* does."""
        return AnyOf(self, events)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that triggers when all of *events* have."""
        return AllOf(self, events)

    def rng(self, stream: str):
        """A deterministic ``random.Random`` for the named substream."""
        return self._rngs.stream(stream)

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------

    def wake(self, event: Event) -> None:
        """Schedule *event* for dispatch at the current instant.

        The single zero-delay fast path behind :meth:`Event.succeed`,
        :meth:`Event.fail` and process termination — previously five
        hand-inlined heap pushes. Entries land in the pending batch, so
        a wake costs a tuple append; the dispatcher usually consumes it
        without any heap traffic.
        """
        self._pending_append((self._now, next(self._counter), event))

    def wake_at(self, event: Event, when: float) -> None:
        """Schedule *event* for dispatch at the absolute time *when*.

        The twin of :meth:`wake` (like it, for an event that already
        carries its outcome) for a caller that holds the instant it
        needs: ``now + (when - now)`` need not round back to *when*, so
        a relative delay cannot promise it.
        """
        if when < self._now:
            raise ValueError(f"when={when!r} is in the past (now={self._now!r})")
        self._pending_append((when, next(self._counter), event))

    @property
    def scheduled(self) -> int:
        """Entries waiting for dispatch (heap plus pending batch)."""
        return len(self._heap) + len(self._pending)

    def _schedule(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        key = next(self._counter)
        if priority == URGENT:
            key -= _URGENT_BIAS
        self._pending_append((self._now + delay, key, event))

    def _flush_pending(self) -> None:
        """Move the pending batch onto the heap (slow-path bookkeeping)."""
        pending = self._pending
        if pending:
            heap = self._heap
            for item in pending:
                _heappush(heap, item)
            del pending[:]

    def _dispatch(self, event: Event) -> None:
        """Process one popped event — the out-of-line dispatch used by
        :meth:`_step`; the run loop inlines the same logic for speed."""
        callbacks = event.callbacks
        event.callbacks = None
        waiter = event._waiter
        if waiter is not None:
            event._waiter = None
            waiter._resume(event)
        if callbacks:
            for callback in callbacks:
                callback(event)
        if event._ok is False and not event.defused:
            # An unhandled failure: abort the run loudly rather than
            # letting errors pass silently.
            raise event._value

    def _advance(self, waiter: Process, target: Any) -> None:
        """Park *waiter* on the *target* its generator just yielded.

        Handles every wait shape: bare delays (arming the process's
        reusable tick), pending events (subscribe via the ``_waiter``
        slot or the callbacks list), already-processed events (their
        outcome is delivered immediately and the generator advances
        again), and invalid yields (the generator is closed and the
        process fails). The run loop inlines the hot cases of this
        logic — keep the two in sync. The caller manages
        ``_active_process``.
        """
        while True:
            cls = target.__class__
            if cls is float or cls is int:
                if target >= 0:
                    tick = waiter._tick
                    if tick is None:
                        tick = waiter._tick = _Tick(self)
                    tick._waiter = waiter
                    waiter._target = tick
                    self._pending_append(
                        (self._now + target, next(self._counter), tick)
                    )
                    return
                ok = False
                value: Any = ValueError(f"negative timeout delay: {target!r}")
            elif isinstance(target, Event):
                if target.sim is not self:
                    raise SimError("event belongs to a different Simulation")
                tcbs = target.callbacks
                if tcbs is not None:
                    if target._waiter is None and not tcbs:
                        target._waiter = waiter
                    else:
                        tcbs.append(waiter._rcb)
                    waiter._target = target
                    return
                # Already processed: consume its outcome immediately.
                ok = target._ok
                value = target._value
                if not ok:
                    target.defused = True
            else:
                exc = SimError(
                    f"process {waiter.name!r} yielded {target!r}, expected an Event"
                )
                waiter._generator.close()
                waiter._ok = False
                waiter._value = exc
                waiter._rcb = waiter._tick = waiter._target = None
                self.wake(waiter)
                return
            try:
                if ok:
                    target = waiter._send(value)
                else:
                    target = waiter._throw(value)
            except StopIteration as stop:
                waiter._ok = True
                waiter._value = stop.value
                waiter._rcb = waiter._tick = waiter._target = None
                self.wake(waiter)
                return
            except BaseException as failure:  # noqa: BLE001 - propagate via event
                waiter._ok = False
                waiter._value = failure
                waiter._rcb = waiter._tick = waiter._target = None
                self.wake(waiter)
                return

    def _step(self) -> None:
        """Pop and process one event; used by tests and the run loop's
        slow path (the main loop inlines this body for speed)."""
        self._flush_pending()
        when, _key, event = _heappop(self._heap)
        self._now = when
        self._dispatch(event)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        self._flush_pending()
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Any = None) -> Any:
        """Execute events until the heap empties, *until* time passes, or
        an *until* event triggers.

        ``until`` may be ``None`` (run to exhaustion), a number (run until
        the clock would pass it; the clock is then set to it), or an
        :class:`Event` (run until it triggers; its value is returned).
        """
        stop_at: Optional[float] = None
        if until is None:
            pass
        elif isinstance(until, Event):
            if until.callbacks is None:
                return until.value if until.ok else self._raise(until)
            until.callbacks.append(self._stop_on_event)
        elif isinstance(until, (int, float)):
            if until < self._now:
                raise ValueError(f"until={until!r} is in the past (now={self._now!r})")
            stop_at = float(until)
        else:
            raise TypeError(f"until must be None, a number, or an Event: {until!r}")

        # The dispatch below is `_step` batched and inlined: heapq, the
        # heap, and the pending batch are bound to locals; the next
        # entry is chosen by merging the pending batch against the heap
        # (one `heappushpop`, or no heap traffic when the batch entry is
        # already the earliest); tick and timeout events resume their
        # waiting process without a callback call; and retired Timeout
        # objects are recycled into the pool when the refcount proves
        # nothing else can observe them (the two references are the
        # `event` local and getrefcount's argument — a Condition, a
        # waiting process `_target`, or model code holding the timeout
        # keeps the count higher).
        heap = self._heap
        pending = self._pending
        pending_append = self._pending_append
        pop = _heappop
        push = _heappush
        pushpop = _heappushpop
        counter = self._counter
        getrefcount = sys.getrefcount
        pool = self._timeout_pool
        pool_cap = _TIMEOUT_POOL_CAP
        horizon = float("inf") if stop_at is None else stop_at
        target = None
        try:
            while True:
                # ---- select the next entry (exact (when, key) merge) --
                if pending:
                    if len(pending) == 1:
                        item = pending.pop()
                        if heap:
                            # heappushpop returns `item` untouched when it
                            # is already <= heap[0] — the exact merge.
                            item = pushpop(heap, item)
                    else:
                        # Burst of schedules: fall back to the heap.
                        for it in pending:
                            push(heap, it)
                        del pending[:]
                        item = pop(heap)
                elif heap:
                    item = pop(heap)
                else:
                    break
                when, _key, event = item
                if when > horizon:
                    push(heap, item)
                    break
                item = None  # drop the tuple's reference for pool recycling
                self._now = when
                # ---- dispatch ----------------------------------------
                cls = event.__class__
                if cls is _Tick:
                    # Bare-delay wake: resume the owner directly; the
                    # sleep-loop continuation (yield another delay)
                    # re-arms this very tick with zero object traffic.
                    waiter = event._waiter
                    if waiter is None:
                        continue  # orphaned by an interrupt
                    event._waiter = None
                    self._active_process = waiter
                    try:
                        target = waiter._send(None)
                    except StopIteration as exc:
                        waiter._ok = True
                        waiter._value = exc.value
                        waiter._rcb = waiter._tick = waiter._target = None
                        pending_append((when, next(counter), waiter))
                    except BaseException as exc:  # noqa: BLE001
                        waiter._ok = False
                        waiter._value = exc
                        waiter._rcb = waiter._tick = waiter._target = None
                        pending_append((when, next(counter), waiter))
                    else:
                        tcls = target.__class__
                        if (tcls is float or tcls is int) and target >= 0:
                            # waiter._target is already this tick.
                            event._waiter = waiter
                            pending_append((when + target, next(counter), event))
                        else:
                            self._advance(waiter, target)
                    self._active_process = None
                    continue
                cbs = event.callbacks
                event.callbacks = None
                waiter = event._waiter
                if waiter is not None:
                    # Inline twin of Process._resume/_advance — keep in sync.
                    event._waiter = None
                    self._active_process = waiter
                    deliver = event
                    while True:
                        try:
                            if deliver._ok:
                                target = waiter._send(deliver._value)
                            else:
                                deliver.defused = True
                                target = waiter._throw(deliver._value)
                        except StopIteration as exc:
                            waiter._ok = True
                            waiter._value = exc.value
                            waiter._rcb = waiter._tick = waiter._target = None
                            pending_append((when, next(counter), waiter))
                            break
                        except BaseException as exc:  # noqa: BLE001
                            waiter._ok = False
                            waiter._value = exc
                            waiter._rcb = waiter._tick = waiter._target = None
                            pending_append((when, next(counter), waiter))
                            break
                        tcls = target.__class__
                        if tcls is float or tcls is int:
                            if target < 0:
                                self._advance(waiter, target)
                                break
                            tick = waiter._tick
                            if tick is None:
                                tick = waiter._tick = _Tick(self)
                            tick._waiter = waiter
                            waiter._target = tick
                            pending_append((when + target, next(counter), tick))
                            break
                        if not isinstance(target, Event):
                            self._advance(waiter, target)
                            break
                        if target.sim is not self:
                            raise SimError("event belongs to a different Simulation")
                        tcbs = target.callbacks
                        if tcbs is None:
                            # Already processed: consume it immediately.
                            deliver = target
                            continue
                        if target._waiter is None and not tcbs:
                            target._waiter = waiter
                        else:
                            tcbs.append(waiter._rcb)
                        waiter._target = target
                        break
                    self._active_process = None
                if cbs:
                    for callback in cbs:
                        callback(event)
                if cls is Timeout:
                    # `deliver`/`target` may still alias this event (or a
                    # pooled-timeout candidate) from a waiter resume; drop
                    # them so the refcount check below can prove exclusivity.
                    deliver = target = None
                    if len(pool) < pool_cap and getrefcount(event) == 2:
                        # Reuse the (empty) callbacks list as well.
                        event.callbacks = cbs if not cbs else []
                        pool.append(event)
                elif event._ok is False and not event.defused:
                    raise event._value
        except StopSimulation as stop:
            stopper: Event = stop.value
            return stopper.value if stopper.ok else self._raise(stopper)
        finally:
            self._flush_pending()
        if stop_at is not None:
            self._now = max(self._now, stop_at)
        if isinstance(until, Event) and not until.triggered:
            raise SimError("run(until=event) exhausted the heap before the event")
        if isinstance(until, Event):
            return until.value if until.ok else self._raise(until)
        return None

    @staticmethod
    def _raise(event: Event) -> Any:
        event.defused = True
        raise event.value

    @staticmethod
    def _stop_on_event(event: Event) -> None:
        raise StopSimulation(event)

    def __repr__(self) -> str:
        return f"<Simulation t={self._now:.6g} pending={self.scheduled}>"
