"""Generated process programs give the same trajectory on both kernels.

Every program runs once on the production kernel (``repro.sim.core``)
and once on the plain reference kernel (``reference_kernel.py``). Each
logged step is ``(now, process, what happened, next rng draw)``, so equal
logs mean the same clock, the same resume order, the same values and
exceptions, and the same ``sim.rng`` draw order. ``repro.sim.resources``
and ``repro.sim.cpu`` are loaded a second time on top of the reference
kernel (the same source files, unchanged) so programs can use them too.

Two seeded mutants of the production tie rule must each produce a
program whose log differs from the reference: the property has teeth.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
import types
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, find, given, settings
from hypothesis import strategies as st

import repro.sim.core as core
import repro.sim.cpu as cpu
import repro.sim.resources as resources
from repro.errors import Interrupt

from . import reference_kernel


def load_on_reference():
    """``(resources, cpu)`` re-imported from their files on the reference kernel."""
    package = "repro._reference_sim"
    if package not in sys.modules:
        shell = types.ModuleType(package)
        shell.__path__ = []
        sys.modules[package] = shell
        sys.modules[f"{package}.core"] = reference_kernel
        for source in (resources, cpu):
            name = f"{package}.{source.__name__.rsplit('.', 1)[1]}"
            spec = importlib.util.spec_from_file_location(name, Path(source.__file__))
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
    return sys.modules[f"{package}.resources"], sys.modules[f"{package}.cpu"]


REF_RESOURCES, REF_CPU = load_on_reference()

#: One kernel: its Simulation class plus resources/cpu built on it.
PRODUCTION = (core.Simulation, resources, cpu)
REFERENCE = (reference_kernel.Simulation, REF_RESOURCES, REF_CPU)

#: Few distinct delays, so same-instant ties are the common case; sums of
#: 0.1/0.2/0.3 leave instants that no relative delay lands on exactly.
DELAYS = st.sampled_from([0, 0.0, 0.1, 0.2, 0.3, 0.5, 1, 1.5])
#: Absolute instants for ``wake_at`` (clamped to ``now``); most of them are
#: missed by ``now + (when - now)`` from some reachable ``now``.
INSTANTS = st.sampled_from([0.3, 0.7, 0.9, 1.8, 2.9, 3.1, 3.6])
SHARED = st.integers(0, 2)
SCRIPT = st.integers(1, 3)

MEMBER = st.one_of(
    st.tuples(st.just("shared"), SHARED),
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("pre"), st.integers(0, 9)),
    st.tuples(st.just("prefail")),
)

OP = st.one_of(
    st.tuples(st.just("sleep"), DELAYS),
    st.tuples(st.just("timeout"), DELAYS, st.integers(0, 9)),
    st.tuples(st.just("spawn"), SCRIPT),
    st.tuples(st.just("join"), SCRIPT),
    st.tuples(st.just("wait"), SHARED),
    st.tuples(st.sampled_from(["succeed", "fail"]), SHARED, DELAYS),
    st.tuples(st.just("interrupt"), SCRIPT, st.integers(1, 2)),
    st.tuples(st.sampled_from(["any_of", "all_of"]), st.lists(MEMBER, max_size=3)),
    st.tuples(st.just("wake_at"), INSTANTS),
    st.tuples(st.just("put"), st.integers(0, 9)),
    st.tuples(st.just("get")),
    st.tuples(st.just("cpu"), st.integers(0, 1), DELAYS),
    st.tuples(st.just("raise")),
)

#: ``(scripts, horizon)``: scripts 0 and 1 start at time zero, script *i*
#: may spawn any script *j > i*; the run stops at *horizon* ("root" = at
#: script 0's end), then continues to exhaustion.
PROGRAMS = st.tuples(
    st.lists(st.lists(OP, max_size=8), min_size=1, max_size=4),
    st.sampled_from([None, 0.3, 1.0, "root"]),
)


def outcome(exc):
    """A kernel-independent rendering of an exception."""
    return (type(exc).__name__, repr(exc.args))


def execute(kernel, program):
    """Run *program* on *kernel*; return its log."""
    simulation, res, host = kernel
    scripts, horizon = program
    sim = simulation(seed=11)
    draws = sim.rng("program")
    log = []
    shared = [sim.event() for _ in range(3)]
    store = res.Store(sim, capacity=1)
    cores = host.HostCpu(sim, context_switch_cost=0.05)
    processes = {}

    def record(name, what):
        log.append((sim.now, name, what, draws.random()))

    def member(spec):
        kind = spec[0]
        if kind == "shared":
            return shared[spec[1]]
        if kind == "timeout":
            return sim.timeout(spec[1], value=f"t{spec[1]}")
        if kind == "pre":
            return sim.event().succeed(spec[1])
        return sim.event().fail(RuntimeError("member failed"))

    def script(index, name):
        children = {}
        for step, op in enumerate(scripts[index]):
            kind, tag = op[0], f"{step}:{op[0]}"
            target = None
            if kind == "sleep":
                target = op[1]
            elif kind == "timeout":
                target = sim.timeout(op[1], value=op[2])
            elif kind == "spawn" or kind == "join":
                if op[1] <= index or op[1] >= len(scripts):
                    continue
                if op[1] not in children or kind == "spawn":
                    child_name = f"{name}/{op[1]}.{len(processes)}"
                    children[op[1]] = processes[child_name] = sim.process(
                        script(op[1], child_name), name=child_name
                    )
                target = children[op[1]] if kind == "join" else None
            elif kind == "wait":
                target = shared[op[1]]
            elif kind in ("succeed", "fail"):
                event = shared[op[1]]
                if event.triggered:
                    continue
                if kind == "succeed":
                    event.succeed(f"{name}@{step}", delay=op[2])
                else:
                    event.fail(RuntimeError(f"{name}@{step}"), delay=op[2])
            elif kind == "interrupt":
                child = children.get(op[1])
                if child is None or child.triggered:
                    continue
                for n in range(op[2]):
                    child.interrupt(f"{name}#{n}")
            elif kind in ("any_of", "all_of"):
                target = getattr(sim, kind)([member(spec) for spec in op[1]])
            elif kind == "wake_at":
                target = sim.event()
                target._ok, target._value = True, f"at{op[1]}"
                sim.wake_at(target, max(sim.now, op[1]))
            elif kind == "put":
                target = store.put(op[1])
            elif kind == "get":
                target = store.get()
            elif kind == "cpu":
                try:
                    yield from cores.run(op[1], op[2])
                    record(name, (tag, "ran"))
                except Interrupt as exc:
                    record(name, (tag, outcome(exc)))
                continue
            elif kind == "raise":
                record(name, (tag, "raise"))
                raise RuntimeError(f"{name} gave up")
            if target is None:
                record(name, (tag, "done"))
                continue
            try:
                value = yield target
            except Exception as exc:  # noqa: BLE001 - every failure is logged
                record(name, (tag, outcome(exc)))
            else:
                if isinstance(value, dict):  # a condition: values in member order
                    value = list(value.values())
                record(name, (tag, repr(value)))
        return f"{name} finished"

    for index in range(min(2, len(scripts))):
        processes[f"p{index}"] = sim.process(script(index, f"p{index}"), name=f"p{index}")
    until = processes["p0"] if horizon == "root" else horizon
    for until in (until, None):
        for _ in range(50):  # a crash (unhandled failure) is logged; the run resumes
            try:
                result = sim.run(until)
            except Exception as exc:  # noqa: BLE001
                log.append(("crash", sim.now, outcome(exc)))
                if until is not None and not isinstance(until, float):
                    break
            else:
                log.append(("stopped", sim.now, repr(result)))
                break
    for name, process in processes.items():
        if not process.triggered:
            log.append((name, "alive"))
        elif process.ok:
            log.append((name, "ok", repr(process.value)))
        else:
            log.append((name, "failed", outcome(process.value)))
    return log


#: ``wake_at(0.9)`` from ``now = 0.2``: a relative delay would land on
#: 0.8999999999999999, the instant a 0.7 s sleep from 0.2 reaches.
WAKE_AT_MISSED_BY_DELAY = ([[("sleep", 0.2), ("wake_at", 0.9)], [("sleep", 0.2), ("sleep", 0.7)]], None)
#: Two interrupts in one instant: the child catches both, one wait each.
#: The wait the second one cuts short (0.3 s) ends before the last one
#: (0.5 s), so a kernel that leaves it subscribed resumes the child early.
DOUBLE_INTERRUPT = (
    [[("spawn", 1), ("sleep", 0.1), ("interrupt", 1, 2), ("join", 1)],
     [("sleep", 1), ("sleep", 0.3), ("sleep", 0.5)]],
    None,
)
#: An interrupt before the child's first step: it detaches the child from
#: its start at once, so the child fails with the Interrupt, never runs.
INTERRUPT_BEFORE_START = ([[], [("spawn", 2), ("interrupt", 2, 1)], []], None)
#: Conditions over pre-triggered, failing and later-failing members.
CONDITIONS = (
    [[("any_of", [("pre", 1), ("prefail",), ("timeout", 0.5)]),
      ("all_of", [("shared", 0), ("timeout", 0.1)]),
      ("any_of", [("shared", 1), ("timeout", 0.3)])],
     [("fail", 0, 0.3), ("sleep", 0.3), ("succeed", 1, 0)]],
    1.0,
)


def test_wake_at_example_is_missed_by_a_relative_delay():
    assert 0.2 + (0.9 - 0.2) != 0.9


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(PROGRAMS)
@example(WAKE_AT_MISSED_BY_DELAY)
@example(DOUBLE_INTERRUPT)
@example(INTERRUPT_BEFORE_START)
@example(CONDITIONS)
def test_production_matches_reference(program):
    assert execute(PRODUCTION, program) == execute(REFERENCE, program)


class TieFlipped(core.Simulation):
    """Mutant: equal-time entries dispatch newest first."""

    __slots__ = ()

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._counter = itertools.count(0, -1)


@pytest.mark.parametrize("mutant", ["tie_flipped", "no_urgent_bias"])
def test_seeded_mutants_fail_the_property(mutant, monkeypatch):
    kernel = PRODUCTION
    if mutant == "tie_flipped":
        kernel = (TieFlipped, resources, cpu)
    else:
        monkeypatch.setattr(core, "_URGENT_BIAS", 0)
    found = find(
        PROGRAMS,
        lambda program: execute(kernel, program) != execute(REFERENCE, program),
        settings=settings(max_examples=2000, database=None, derandomize=True),
    )
    assert found is not None


def test_resources_and_cpu_run_on_the_reference_kernel():
    """A hand-written contention scenario: the two logs agree step by step."""

    def scenario(kernel):
        simulation, res, host = kernel
        sim = simulation(seed=3)
        log = []
        pool = res.PriorityResource(sim, capacity=2)
        store = res.Store(sim, capacity=2)
        cores = host.HostCpu(sim, context_switch_cost=0.01)

        def worker(n):
            request = pool.request(priority=n % 3)
            yield request
            log.append((sim.now, n, "granted"))
            yield from cores.run(n % 2, 0.1 * n)
            yield store.put(n)
            pool.release(request)
            item = yield store.get()
            log.append((sim.now, n, "got", item, cores.switches))

        for n in range(8):
            sim.process(worker(n))
        sim.run()
        return log, repr(cores.busy_time), repr(sim.now)

    assert scenario(PRODUCTION) == scenario(REFERENCE)
