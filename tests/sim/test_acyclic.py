"""The request path leaves nothing for the cyclic collector (DESIGN.md §9).

Every test runs with the collector switched off, so an object can only
die by reference counting. The unit tests hold a ``weakref`` to one
finished object; the census tests collect with ``DEBUG_SAVEALL`` right
after ``Simulation.run`` returns — while the deployment (the one big,
long-lived cycle) is still alive — so ``gc.garbage`` holds exactly what
finished requests left behind.
"""

from __future__ import annotations

import gc
import types
import weakref

import pytest

from repro.core.pipeline import RequestContext, StageRecord
from repro.core.protocol import BrokerReply, BrokerRequest
from repro.errors import ConnectionClosed
from repro.net import Address
from repro.net.transport import StreamConnection, _Inbox, _InboxGet
from repro.sim import Simulation
from repro.sim.core import Condition, Process, Timeout
from repro.workload import run_cache_tier_experiment, run_qos_experiment


class Payload:
    """A weakly referenceable stand-in for a reply."""


class WeakProcess(Process):
    """A :class:`Process` a test can hold a ``weakref`` to."""

    __slots__ = ("__weakref__",)


class TestFreedByRefcount:
    def test_finished_process(self, sim, no_collector):
        def worker():
            yield 1.0
            yield sim.timeout(1.0)
            return "done"

        process = WeakProcess(sim, worker())
        assert sim.run(process) == "done"
        ref = weakref.ref(process)
        del process
        assert ref() is None

    def test_failed_process(self, sim, no_collector):
        refs = []

        def worker():
            yield 1.0
            raise RuntimeError("boom")

        def spawn():
            child = WeakProcess(sim, worker())
            refs.append(weakref.ref(child))
            return child

        def parent():
            # No local names the child: the traceback of the exception
            # it fails with keeps this frame, and so every local, alive.
            with pytest.raises(RuntimeError):
                yield spawn()

        def bystander():
            yield sim.timeout(2.0)
            # The run loop has moved on (its frame, which the traceback
            # keeps, no longer names the child as the last delivery).
            assert refs[0]() is None

        sim.process(parent())
        sim.run(sim.process(bystander()))

    def test_process_failing_on_a_callback_resume(self, sim, no_collector):
        # The child is the gate's second subscriber, so the gate resumes
        # it from its ``callbacks`` list; the exception it fails with must
        # not keep the kernel frame that names the child.
        refs = []
        gate = sim.event()

        def first():
            yield gate

        def worker():
            yield gate
            raise RuntimeError("boom")

        def spawn():
            child = WeakProcess(sim, worker())
            refs.append(weakref.ref(child))
            return child

        def parent():
            with pytest.raises(RuntimeError):
                yield spawn()

        sim.process(first())
        sim.process(parent())
        gate.succeed(delay=1.0)
        sim.run()
        assert len(refs) == 1 and refs[0]() is None

    def test_both_stream_ends_after_close(self, sim, net, no_collector):
        a, b = net.node("a"), net.node("b")
        listener = b.listen_stream(80)
        refs = []

        def server():
            conn = yield listener.accept()
            refs.append(weakref.ref(conn))
            envelope = yield conn.recv()
            conn.send(envelope.payload.upper())
            with pytest.raises(ConnectionClosed):
                yield conn.recv()  # EOF
            conn.close()

        def client():
            conn = yield from a.connect_stream(Address("b", 80))
            refs.append(weakref.ref(conn))
            conn.send("hello")
            envelope = yield conn.recv()
            assert envelope.payload == "HELLO"
            conn.close()

        sim.process(server())
        sim.process(client())
        sim.run()
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None]

    def test_any_of_winner_value_while_timer_pending(self, sim, no_collector):
        def reply_later(waiter):
            yield 0.5
            waiter.succeed(Payload())

        def caller():
            waiter = sim.event()
            timer = sim.timeout(30.0)
            sim.process(reply_later(waiter))
            outcome = yield sim.any_of([waiter, timer])
            return weakref.ref(outcome[waiter])

        ref = sim.run(sim.process(caller()))
        assert sim.now == 0.5 and sim.peek() == 30.0  # the timer is still armed
        assert ref() is None


#: What a finished request must not leave behind for the collector.
FORBIDDEN = (
    Process, StreamConnection, _Inbox, _InboxGet, Condition, Timeout,
    RequestContext, BrokerRequest, BrokerReply, StageRecord,
)


def census(monkeypatch, experiment, **kwargs):
    """Run *experiment*; return (result, cyclic garbage found when the run ended)."""
    garbage = []
    real_run = Simulation.run

    def run_then_collect(self, until=None):
        out = real_run(self, until)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        gc.set_debug(0)
        garbage.extend(gc.garbage)
        del gc.garbage[:]
        return out

    monkeypatch.setattr(Simulation, "run", run_then_collect)
    return experiment(**kwargs), garbage


def offenders(garbage):
    """Names of forbidden kernel/transport objects (and their bound methods)."""
    found = set()
    for obj in garbage:
        if isinstance(obj, FORBIDDEN):
            found.add(type(obj).__name__)
        elif isinstance(obj, types.MethodType) and obj.__name__ in ("_resume", "_check"):
            found.add(f"bound {obj.__name__}")
    return found


class TestCensus:
    def test_api_run_leaves_no_cyclic_garbage(self, monkeypatch, no_collector):
        result, garbage = census(
            monkeypatch, run_qos_experiment, n_clients=6, mode="api", duration=120.0, seed=3
        )
        completed = sum(result.completions.values())
        assert completed > 20
        assert offenders(garbage) == set()
        assert len(garbage) / completed < 1

    def test_broker_run_leaves_no_cyclic_garbage(self, monkeypatch, no_collector):
        result, garbage = census(
            monkeypatch, run_qos_experiment, n_clients=6, mode="broker", duration=120.0, seed=3
        )
        completed = sum(result.completions.values())
        assert completed > 20
        assert offenders(garbage) == set()
        assert len(garbage) / completed < 1

    def test_cache_tier_run_leaves_no_cyclic_garbage(self, monkeypatch, no_collector):
        result, garbage = census(
            monkeypatch, run_cache_tier_experiment, n_clients=12, duration=1.0, seed=3
        )
        assert result.requests > 20
        assert offenders(garbage) == set()
        assert len(garbage) / result.requests < 1
