"""Unit tests for the simulation kernel event loop."""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.errors import (
    EventAlreadyTriggered,
    EventNotTriggered,
    Interrupt,
    SimError,
)
from repro.sim import Simulation
from repro.sim.core import Timeout


class WeakTimeout(Timeout):
    """A :class:`Timeout` a test can hold a ``weakref`` to."""

    __slots__ = ("__weakref__",)


class TestEvent:
    def test_fresh_event_is_pending(self, sim):
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self, sim):
        event = sim.event()
        with pytest.raises(EventNotTriggered):
            _ = event.value
        with pytest.raises(EventNotTriggered):
            _ = event.ok

    def test_succeed_carries_value(self, sim):
        event = sim.event()
        event.succeed("payload")
        assert event.triggered
        assert event.ok
        assert event.value == "payload"

    def test_double_trigger_raises(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(EventAlreadyTriggered):
            event.succeed()
        with pytest.raises(EventAlreadyTriggered):
            event.fail(RuntimeError("x"))

    def test_fail_requires_exception(self, sim):
        event = sim.event()
        with pytest.raises(TypeError):
            event.fail("not an exception")  # type: ignore[arg-type]

    def test_unhandled_failure_aborts_run(self, sim):
        event = sim.event()
        event.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()

    def test_defused_failure_does_not_abort(self, sim):
        event = sim.event()
        event.fail(RuntimeError("boom"))
        event.defused = True
        sim.run()  # no raise


class TestTimeout:
    def test_timeout_advances_clock(self, sim):
        times = []

        def proc():
            yield sim.timeout(2.5)
            times.append(sim.now)

        sim.process(proc())
        sim.run()
        assert times == [2.5]

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_timeout_value_passthrough(self, sim):
        result = []

        def proc():
            value = yield sim.timeout(1, value="hello")
            result.append(value)

        sim.process(proc())
        sim.run()
        assert result == ["hello"]

    def test_zero_delay_fires_in_order(self, sim):
        order = []

        def proc(tag):
            yield sim.timeout(0)
            order.append(tag)

        sim.process(proc("a"))
        sim.process(proc("b"))
        sim.run()
        assert order == ["a", "b"]


class TestProcess:
    def test_return_value_becomes_event_value(self, sim):
        def proc():
            yield sim.timeout(1)
            return 99

        assert sim.run(sim.process(proc())) == 99

    def test_exception_propagates_to_run(self, sim):
        def proc():
            yield sim.timeout(1)
            raise ValueError("inside")

        with pytest.raises(ValueError, match="inside"):
            sim.run(sim.process(proc()))

    def test_waiting_on_another_process(self, sim):
        def inner():
            yield sim.timeout(3)
            return "inner-done"

        def outer():
            value = yield sim.process(inner())
            return value

        assert sim.run(sim.process(outer())) == "inner-done"
        assert sim.now == 3

    def test_yield_from_composition(self, sim):
        def leaf():
            yield sim.timeout(1)
            return 7

        def mid():
            value = yield from leaf()
            return value * 2

        assert sim.run(sim.process(mid())) == 14

    def test_yielding_non_event_fails_process(self, sim):
        def proc():
            yield "not an event"  # type: ignore[misc]

        with pytest.raises(SimError, match="expected an Event"):
            sim.run(sim.process(proc()))

    def test_is_alive_lifecycle(self, sim):
        def proc():
            yield sim.timeout(5)

        p = sim.process(proc())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_failed_sub_process_raises_in_waiter(self, sim):
        def inner():
            yield sim.timeout(1)
            raise KeyError("gone")

        def outer():
            try:
                yield sim.process(inner())
            except KeyError:
                return "caught"
            return "missed"

        assert sim.run(sim.process(outer())) == "caught"


class TestInterrupt:
    def test_interrupt_delivers_cause(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100)
                return "overslept"
            except Interrupt as interrupt:
                return ("interrupted", interrupt.cause, sim.now)

        target = sim.process(sleeper())

        def killer():
            yield sim.timeout(4)
            target.interrupt("reason")

        sim.process(killer())
        assert sim.run(target) == ("interrupted", "reason", 4.0)

    def test_interrupted_process_can_continue(self, sim):
        def sleeper():
            try:
                yield sim.timeout(100)
            except Interrupt:
                pass
            yield sim.timeout(1)
            return sim.now

        target = sim.process(sleeper())

        def killer():
            yield sim.timeout(2)
            target.interrupt()

        sim.process(killer())
        assert sim.run(target) == 3.0

    def test_interrupting_done_process_raises(self, sim):
        def quick():
            yield sim.timeout(1)

        target = sim.process(quick())
        sim.run()
        with pytest.raises(SimError):
            target.interrupt()


class TestConditions:
    def test_all_of_waits_for_every_event(self, sim):
        def proc():
            t1 = sim.timeout(1, "a")
            t2 = sim.timeout(3, "b")
            values = yield sim.all_of([t1, t2])
            return sorted(values.values()), sim.now

        assert sim.run(sim.process(proc())) == (["a", "b"], 3.0)

    def test_any_of_returns_first_only(self, sim):
        def proc():
            slow = sim.timeout(9, "slow")
            fast = sim.timeout(2, "fast")
            values = yield sim.any_of([slow, fast])
            return list(values.values()), sim.now

        assert sim.run(sim.process(proc())) == (["fast"], 2.0)

    def test_empty_all_of_triggers_immediately(self, sim):
        def proc():
            values = yield sim.all_of([])
            return values

        assert sim.run(sim.process(proc())) == {}

    def test_any_of_failure_propagates(self, sim):
        def failing():
            yield sim.timeout(1)
            raise RuntimeError("sub failed")

        def proc():
            with pytest.raises(RuntimeError, match="sub failed"):
                yield sim.any_of([sim.process(failing()), sim.timeout(50)])
            return "ok"

        assert sim.run(sim.process(proc())) == "ok"

    def test_simultaneous_events_both_collected(self, sim):
        def proc():
            t1 = sim.timeout(2, "x")
            t2 = sim.timeout(2, "y")
            values = yield sim.any_of([t1, t2])
            # t1 processes first (FIFO among same-time events); only it
            # has occurred when the condition triggers.
            return list(values.values())

        assert sim.run(sim.process(proc())) == ["x"]

    def test_any_of_loser_failing_later_is_defused(self, sim):
        # The condition stays subscribed to a loser that may still fail,
        # so the late failure is handled instead of aborting the run.
        def late_failure(loser):
            yield 5.0
            loser.fail(RuntimeError("too late to matter"))

        def proc():
            winner, loser = sim.timeout(1, "won"), sim.event()
            sim.process(late_failure(loser))
            values = yield sim.any_of([winner, loser])
            return list(values.values()), loser

        process = sim.process(proc())
        sim.run()
        values, loser = process.value
        assert values == ["won"]
        assert sim.now == 5.0 and loser.processed and loser.defused

    def test_any_of_lets_go_of_a_losing_timeout(self, sim):
        # A pre-triggered Timeout cannot fail, so the decided condition
        # unsubscribes from it ...
        def proc():
            winner, timer = sim.event(), WeakTimeout(sim, 30)
            winner.succeed("won")
            yield sim.any_of([winner, timer])
            return timer

        process = sim.process(proc())
        sim.run(until=1)
        assert process.value.callbacks == []
        # ... so once nothing else names it, it dies by refcount when it fires.
        timer = weakref.ref(process.value)
        del process
        gc.disable()
        try:
            sim.run(until=29)
            assert timer() is not None  # the heap entry still names it
            sim.run()
            assert sim.now == 30.0 and timer() is None
        finally:
            gc.enable()

    def test_already_decided_any_of_never_subscribes_to_a_timeout(self, sim):
        done = sim.event().succeed("early")
        sim.run()
        timer = sim.timeout(30)
        condition = sim.any_of([done, timer])
        assert condition.triggered and timer.callbacks == []


class TestRun:
    def test_run_until_time_sets_clock(self, sim):
        def proc():
            yield sim.timeout(100)

        sim.process(proc())
        sim.run(until=10)
        assert sim.now == 10

    def test_run_until_past_raises(self, sim):
        def proc():
            yield sim.timeout(5)

        sim.process(proc())
        sim.run()
        with pytest.raises(ValueError):
            sim.run(until=1)

    def test_run_until_event_returns_its_value(self, sim):
        def proc():
            yield sim.timeout(2)
            return "finished"

        assert sim.run(until=sim.process(proc())) == "finished"

    def test_run_until_unreachable_event_raises(self, sim):
        event = sim.event()  # never triggered

        def proc():
            yield sim.timeout(1)

        sim.process(proc())
        with pytest.raises(SimError, match="exhausted"):
            sim.run(until=event)

    def test_run_bad_until_type(self, sim):
        with pytest.raises(TypeError):
            sim.run(until="tomorrow")  # type: ignore[arg-type]

    def test_peek_reports_next_event_time(self, sim):
        sim.timeout(7)
        assert sim.peek() == 7.0
        sim.run()
        assert sim.peek() == float("inf")

    def test_scheduled_counts_what_waits_for_dispatch(self, sim):
        assert sim.scheduled == 0
        sim.timeout(7)
        sim.timeout(9)
        assert sim.scheduled == 2
        assert "pending=2" in repr(sim)
        sim.run(until=8)
        assert sim.scheduled == 1
        sim.run()
        assert sim.scheduled == 0

    def test_wake_at_dispatches_at_exactly_the_given_instant(self, sim):
        # From now = 2.4000000000000004 a relative delay misses 30.3.
        when = 0.3 + 30.0
        seen = []

        def proc():
            yield 1.1
            yield 1.3
            assert sim.now + (when - sim.now) != when
            alarm = sim.event()
            alarm._ok, alarm._value = True, "rang"
            sim.wake_at(alarm, when)
            seen.append(((yield alarm), sim.now))

        sim.process(proc())
        sim.run()
        assert seen == [("rang", when)]

    def test_wake_at_rejects_the_past(self, sim):
        sim.run(until=5)
        with pytest.raises(ValueError, match="in the past"):
            sim.wake_at(sim.event(), 4.0)
        assert sim.scheduled == 0


class TestDeterminism:
    def test_same_seed_same_rng_streams(self):
        a = Simulation(seed=7)
        b = Simulation(seed=7)
        assert [a.rng("s").random() for _ in range(5)] == [
            b.rng("s").random() for _ in range(5)
        ]

    def test_named_streams_are_independent(self):
        sim = Simulation(seed=7)
        first = sim.rng("one").random()
        # Drawing from another stream must not perturb the first.
        sim2 = Simulation(seed=7)
        sim2.rng("two").random()
        assert sim2.rng("one").random() == first

    def test_same_stream_object_is_cached(self, sim):
        assert sim.rng("x") is sim.rng("x")
