"""Tests for the fork-and-collect runner (:mod:`repro.sim.parallel`).

The model used throughout is a ping-pong inside one partition: a driver
emits a counter every virtual second and an echo answers each one times
ten, both after a fixed link delay. Its trajectory is computed by hand,
so the runner is checked against ground truth — and forked runs are
checked against the in-process run, pinning the determinism contract
(results never depend on the worker count).
"""

from __future__ import annotations

import os

import pytest

from repro.errors import SimError
from repro.sim import Simulation
from repro.sim.parallel import available_workers, run_partitions

DELAY = 1.0
ROUNDS = 5


def _pingpong_builder(sim):
    """Driver and echo in one partition; finalize returns both logs."""
    left_log, right_log = [], []

    def right_receive(event):
        right_log.append((sim.now, event.value))
        echo = sim.event()
        echo.callbacks.append(lambda e: left_log.append((sim.now, e.value)))
        echo.succeed(event.value * 10, delay=DELAY)

    def driver():
        yield 0.5
        for i in range(ROUNDS):
            message = sim.event()
            message.callbacks.append(right_receive)
            message.succeed(i, delay=DELAY)
            yield 1.0

    sim.process(driver())
    return lambda: (left_log, right_log)


def _idle_builder(sim):
    return lambda: None


def _partitions(count=2):
    return [(f"p{i}", i + 1, _pingpong_builder) for i in range(count)]


#: the driver sends i at t = 0.5 + i; the echo side receives at 1.5 + i
#: and answers; the driver side receives the echo at 2.5 + i.
EXPECTED_RIGHT = [(1.5 + i, i) for i in range(ROUNDS)]
EXPECTED_LEFT = [(2.5 + i, 10 * i) for i in range(ROUNDS)]


class TestPingPong:
    def test_inline_matches_ground_truth(self):
        values = run_partitions(_partitions(), until=10.0)
        assert values == [(EXPECTED_LEFT, EXPECTED_RIGHT)] * 2

    def test_forked_matches_inline(self):
        inline = run_partitions(_partitions(), until=10.0)
        forked = run_partitions(_partitions(), until=10.0, workers=2)
        assert forked == inline

    def test_matches_single_simulation_reference(self):
        """A partition is its builder run on a plain Simulation."""
        sim = Simulation(seed=1)
        finalize = _pingpong_builder(sim)
        sim.run(until=10.0)
        assert finalize() == (EXPECTED_LEFT, EXPECTED_RIGHT)
        assert run_partitions(_partitions(1), until=10.0) == [finalize()]


class TestDeterminism:
    def test_worker_count_invariance(self):
        """Values come back in partition order from 1, 2 and 3 workers."""

        def seeded(sim):
            return lambda: (sim.now, sim.rng("draw").random())

        partitions = _partitions() + [("seeded", 3, seeded), ("again", 4, seeded)]
        runs = [
            run_partitions(partitions, until=10.0, workers=w) for w in (1, 2, 3)
        ]
        assert runs[0] == runs[1] == runs[2]
        assert runs[0][2][0] == 10.0
        assert runs[0][2] != runs[0][3]  # own seed, own stream

    def test_repeated_forked_runs_are_identical(self):
        first = run_partitions(_partitions(), until=10.0, workers=2)
        second = run_partitions(_partitions(), until=10.0, workers=2)
        assert first == second


class TestValidation:
    def test_needs_partitions(self):
        with pytest.raises(SimError, match="at least one partition"):
            run_partitions([], until=1.0)

    def test_rejects_duplicate_names(self):
        dup = [("p", 0, _idle_builder), ("p", 1, _idle_builder)]
        with pytest.raises(SimError, match="duplicate partition names"):
            run_partitions(dup, until=1.0)

    def test_rejects_bad_worker_count(self):
        with pytest.raises(SimError, match="workers must be"):
            run_partitions(_partitions(), until=1.0, workers=0)

    def test_workers_clamped_to_partition_count(self):
        pids = run_partitions(
            [(f"p{i}", i, lambda sim: os.getpid) for i in range(2)],
            until=1.0,
            workers=64,
        )
        assert len(set(pids)) == 2 and os.getpid() not in pids

    def test_until_must_be_positive(self):
        with pytest.raises(SimError, match="until must be positive"):
            run_partitions(_partitions(), until=0.0)

    def test_available_workers_positive(self):
        assert available_workers() >= 1


class TestErrorPropagation:
    def test_builder_exception_surfaces_inline(self):
        def broken(sim):
            raise ValueError("boom at build time")

        with pytest.raises(ValueError, match="boom at build time"):
            run_partitions([("bad", 0, broken)], until=1.0)

    def test_builder_exception_surfaces_from_worker(self):
        def broken(sim):
            raise ValueError("boom in the worker")

        with pytest.raises(SimError, match="'bad'.*boom in the worker"):
            run_partitions(
                [("bad", 0, broken), ("ok", 0, _idle_builder)],
                until=1.0,
                workers=2,
            )

    def test_model_exception_surfaces_from_worker(self):
        def explodes_later(sim):
            def driver():
                yield 2.5
                raise RuntimeError("mid-flight failure")

            sim.process(driver())
            return lambda: None

        with pytest.raises(SimError, match="mid-flight failure"):
            run_partitions(
                [("boomy", 0, explodes_later), ("calm", 0, _idle_builder)],
                until=10.0,
                workers=2,
            )
