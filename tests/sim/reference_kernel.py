"""A deliberately plain event kernel: the differential oracle for ``repro.sim.core``.

Same API and tie rule (equal times: URGENT first, then scheduling order) around
one ``(when, priority, seq, event)`` heap; no waiter slot, tick, pool or batch.
Always on: no scheduling in the past, no time going backwards. No misuse checks."""

import heapq
from itertools import count

from repro.errors import Interrupt, SimError, StopSimulation
from repro.sim.rng import RngRegistry

URGENT, NORMAL, _PENDING = 0, 1, object()


def _stop(event): raise StopSimulation(event)  # noqa: E704


class Event:
    def __init__(self, sim):
        self.sim, self.callbacks, self.defused = sim, [], False
        self._ok, self._value = None, _PENDING

    triggered = property(lambda self: self._value is not _PENDING)
    processed = property(lambda self: self.callbacks is None)
    ok = property(lambda self: bool(self._ok))
    value = property(lambda self: self._value)

    def _trigger(self, ok, value, delay, priority=NORMAL):
        self._ok, self._value = ok, value
        self.sim._push(self.sim._now + delay, priority, self)
        return self

    succeed = lambda self, value=None, delay=0.0: self._trigger(True, value, delay)
    fail = lambda self, exception, delay=0.0: self._trigger(False, exception, delay)


class Process(Event):
    def __init__(self, sim, generator, name=""):
        super().__init__(sim)
        self._gen, self.name = generator, name or getattr(generator, "__name__", "process")
        self._target = self._urgent(True, None, self._resume)  # the start

    def _urgent(self, ok, value, callback):
        event = Event(self.sim)
        event.callbacks, event.defused = [callback], not ok
        return event._trigger(ok, value, 0.0, URGENT)

    def interrupt(self, cause=None):
        if self._value is not _PENDING:
            raise SimError("cannot interrupt a terminated process")
        self._detach()  # at once: even a process that has not started yet is hit
        self._urgent(False, Interrupt(cause), self._interrupted)

    def _detach(self):
        if self._resume in (self._target.callbacks or ()):
            self._target.callbacks.remove(self._resume)

    def _interrupted(self, event):  # detach again: a second one finds a new target
        if self._value is _PENDING:
            self._detach()
            self._resume(event)

    def _resume(self, event):
        ok, value = event._ok, event._value
        event.defused = event.defused or not ok
        while True:
            try:
                target = self._gen.send(value) if ok else self._gen.throw(value)
            except StopIteration as stop:
                return self._trigger(True, stop.value, 0.0)
            except BaseException as exc:  # noqa: BLE001 - the process fails with it
                return self._trigger(False, exc, 0.0)
            if type(target) in (float, int):
                target = self.sim.timeout(target)
            self._target = target
            if target.callbacks is not None:
                return target.callbacks.append(self._resume)
            ok, value = target._ok, target._value  # already processed: deliver now
            target.defused = target.defused or not ok


class Condition(Event):
    def __init__(self, sim, events, satisfied):
        super().__init__(sim)
        self._events, self._count, self._satisfied = list(events), 0, satisfied
        if not self._events:
            self.succeed({})
        for event in self._events:
            if event.callbacks is None:
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event):
        event.defused = event.defused or not event._ok
        if self.triggered:
            return
        self._count += 1
        if not event._ok:
            self.fail(event._value)
        elif self._satisfied(self._count, len(self._events)):
            self.succeed({e: e._value for e in self._events if e.processed and e._ok})


class Simulation:
    def __init__(self, seed=0):
        self._now, self._heap, self._seq, self._rngs = 0.0, [], count(), RngRegistry(seed)

    now = property(lambda self: self._now)
    event = lambda self: Event(self)
    timeout = lambda self, delay, value=None: Event(self).succeed(value, delay)
    process = lambda self, generator, name="": Process(self, generator, name)
    any_of = lambda self, events: Condition(self, events, lambda n, size: n >= 1)
    all_of = lambda self, events: Condition(self, events, lambda n, size: n == size)
    rng = lambda self, stream: self._rngs.stream(stream)
    wake = lambda self, event: self._push(self._now, NORMAL, event)
    wake_at = lambda self, event, when: self._push(when, NORMAL, event)

    def _push(self, when, priority, event):
        if when < self._now:
            raise ValueError(f"when={when!r} is in the past (now={self._now!r})")
        heapq.heappush(self._heap, (when, priority, next(self._seq), event))

    def run(self, until=None):
        stop = until if isinstance(until, Event) else None
        horizon = float("inf") if until is None or stop else float(until)
        if stop and stop.callbacks is not None:
            stop.callbacks.append(_stop)
        try:
            while self._heap and self._heap[0][0] <= horizon and not (stop and stop.processed):
                when, _, _, event = heapq.heappop(self._heap)
                if when < self._now:
                    raise SimError(f"time went backwards: {when!r} < {self._now!r}")
                self._now, callbacks, event.callbacks = when, event.callbacks, None
                for callback in callbacks or ():
                    callback(event)
                if event._ok is False and not event.defused:
                    raise event._value
        except StopSimulation as stopped:  # maybe left by an earlier, aborted run
            stop = stopped.value
        if stop is None:
            self._now = self._now if until is None else max(self._now, horizon)
        elif not stop.triggered:
            raise SimError("run(until=event) exhausted the heap before the event")
        elif stop._ok:
            return stop._value
        else:
            stop.defused = True
            raise stop._value
