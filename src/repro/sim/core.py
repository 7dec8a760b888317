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

The kernel-native idiom yields a bare delay (``float`` or ``int``
seconds) and the process is parked on a private, reusable "tick" event,
so no :class:`Timeout` object is allocated::

    yield 3.0

Both resume the process with ``None`` after the delay and consume one
scheduling sequence number at the yield point, so converting a direct
``yield sim.timeout(d)`` into ``yield d`` leaves seeded trajectories
byte-identical (DESIGN.md §14).

Scheduling (DESIGN.md §14.1): the heap holds ``(when, key, event)``
3-tuples where ``key`` is a global monotonic sequence number, biased
negative for :data:`URGENT` entries so urgent bookkeeping dispatches
first at equal times. :meth:`Simulation.run` pops one entry at a time
and hands it to :meth:`Simulation._dispatch`; every process resume goes
through :meth:`Process._resume`. ``tests/sim/reference_kernel.py`` is
the plain oracle the kernel is checked against.

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

_heappush = heapq.heappush
_heappop = heapq.heappop


class Event:
    """A happening that processes can wait for.

    An event starts *pending*; calling :meth:`succeed` or :meth:`fail`
    *triggers* it, which schedules it on the simulation heap. When the
    heap pops it, the event is *processed*: its callbacks run and any
    waiting processes resume.

    The first process to wait on an event occupies the ``_waiter``
    slot instead of the ``callbacks`` list, so the common single-waiter
    case allocates no bound method. Later subscribers (more processes,
    conditions, transport deliveries) append to ``callbacks``, and
    dispatch order is waiter first, then callbacks — i.e. subscription
    order.
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
        #: First waiting process, if any (resumed before ``callbacks``).
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

    A tick is never handed to model code: it exists only between its
    owner yielding a delay and the dispatcher resuming the owner, so it
    needs no value plumbing, never fails, and is reused for every
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
        #: instead of one per wait. A self-cycle: :meth:`_finish` drops it
        #: (with ``_tick`` and ``_target``, which pins the last event
        #: waited on) so a finished process is freed by reference
        #: counting alone (DESIGN.md §9). The exhausted generator holds
        #: no frame, so ``_send``/``_throw`` can stay.
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
        self._detach()
        interruption = Event(self.sim)
        interruption._ok = False
        interruption._value = Interrupt(cause)
        interruption.defused = True
        interruption.callbacks.append(self._interrupted)
        self.sim._schedule(interruption, 0.0, priority=URGENT)

    def _detach(self) -> None:
        """Unsubscribe from the event the generator waits on."""
        target = self._target
        if target is None:
            return
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

    def _interrupted(self, interruption: Event) -> None:
        """Deliver an interruption (URGENT, so first at its instant).

        A second interrupt in the same instant finds the process either
        finished (it is dropped) or parked on what the first one made it
        yield (it is detached from that first, so it resumes once).
        """
        if self._value is _PENDING:
            self._detach()
            self._resume(interruption)

    def _resume(self, event: Event) -> None:
        """Advance the generator with the outcome of *event* and park it.

        The one resume path: the generator runs until it yields
        something to wait on. A bare delay arms the process's reusable
        tick; a pending event is subscribed to (the ``_waiter`` slot if
        free, else the ``callbacks`` list); an already-processed event's
        outcome is delivered at once and the generator runs on; any
        other yield closes the generator and fails the process.
        """
        sim = self.sim
        ok = event._ok
        value = event._value
        if not ok:
            # The failure is being delivered, hence handled.
            event.defused = True
        while True:
            try:
                target = self._send(value) if ok else self._throw(value)
            except StopIteration as stop:
                self._finish(True, stop.value)
                break
            except BaseException as exc:  # noqa: BLE001 - propagate via event
                # Drop this frame from the stored traceback: it names
                # ``self``, and the process keeps the exception.
                self._finish(False, exc.with_traceback(exc.__traceback__.tb_next))
                break
            cls = target.__class__
            if cls is float or cls is int:
                if target >= 0:
                    tick = self._tick
                    if tick is None:
                        tick = self._tick = _Tick(sim)
                    tick._waiter = self
                    self._target = tick
                    _heappush(sim._heap, (sim._now + target, next(sim._counter), tick))
                    break
                ok = False
                value = ValueError(f"negative timeout delay: {target!r}")
                continue
            if not isinstance(target, Event):
                self._generator.close()
                self._finish(
                    False,
                    SimError(f"process {self.name!r} yielded {target!r}, expected an Event"),
                )
                break
            if target.sim is not sim:
                raise SimError("event belongs to a different Simulation")
            callbacks = target.callbacks
            if callbacks is not None:
                if target._waiter is None and not callbacks:
                    target._waiter = self
                else:
                    callbacks.append(self._rcb)
                self._target = target
                break
            # Already processed: consume its outcome immediately.
            ok = target._ok
            value = target._value
            if not ok:
                target.defused = True

    def _finish(self, ok: bool, value: Any) -> None:
        """Terminate: record the outcome, drop the self-cycles, schedule."""
        self._ok = ok
        self._value = value
        self._rcb = self._tick = self._target = None
        self.sim.wake(self)

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
        # pre-triggered Timeout, typically), so they do not pin this
        # condition's value until they fire. One that may still fail
        # stays subscribed, to be defused above.
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
        "_counter",
        "_rngs",
        "seed",
        "obs",
    )

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._heap: List[Any] = []
        self._counter = count()
        self._rngs = RngRegistry(seed)
        self.seed = seed
        #: Optional :class:`repro.obs.spans.TraceCollector`, the one
        #: observer hook: instrumented completion points (broker client,
        #: front end) call ``obs.finish(ctx)`` and the broker pipeline
        #: notes request events on the context when this is set.
        #: ``None`` (the default) keeps tracing disabled at the cost of
        #: one attribute check — the obs layer's overhead contract
        #: (DESIGN.md §10).
        self.obs: Optional[Any] = None

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    # ------------------------------------------------------------------
    # Event factories
    # ------------------------------------------------------------------

    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that succeeds with *value* after *delay* seconds.

        Processes that just need to sleep should prefer the bare-delay
        idiom (``yield delay``), which allocates no event.
        """
        return Timeout(self, delay, value)

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

    def forget_rng(self, stream: str) -> None:
        """Release the named substream for good (:meth:`RngRegistry.forget`)."""
        self._rngs.forget(stream)

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------

    def wake(self, event: Event) -> None:
        """Schedule *event* for dispatch at the current instant.

        The zero-delay path behind :meth:`Event.succeed`,
        :meth:`Event.fail` and process termination.
        """
        _heappush(self._heap, (self._now, next(self._counter), event))

    def wake_at(self, event: Event, when: float) -> None:
        """Schedule *event* for dispatch at the absolute time *when*.

        The twin of :meth:`wake` (like it, for an event that already
        carries its outcome) for a caller that holds the instant it
        needs: ``now + (when - now)`` need not round back to *when*, so
        a relative delay cannot promise it.
        """
        if when < self._now:
            raise ValueError(f"when={when!r} is in the past (now={self._now!r})")
        _heappush(self._heap, (when, next(self._counter), event))

    @property
    def scheduled(self) -> int:
        """Entries waiting for dispatch."""
        return len(self._heap)

    def _schedule(self, event: Event, delay: float, priority: int = NORMAL) -> None:
        if delay < 0:
            raise ValueError(f"negative delay: {delay!r}")
        key = next(self._counter)
        if priority == URGENT:
            key -= _URGENT_BIAS
        _heappush(self._heap, (self._now + delay, key, event))

    def _dispatch(self, event: Event) -> None:
        """Process one popped event: resume its waiter, run its callbacks."""
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


    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
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

        heap = self._heap
        dispatch = self._dispatch
        horizon = float("inf") if stop_at is None else stop_at
        try:
            while heap and heap[0][0] <= horizon:
                when, _key, event = _heappop(heap)
                self._now = when
                dispatch(event)
        except StopSimulation as stop:
            stopper: Event = stop.value
            return stopper.value if stopper.ok else self._raise(stopper)
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
