"""Tests for the HostCpu context-switch model."""

from __future__ import annotations

import pytest

from repro.sim import HostCpu


class TestHostCpu:
    def test_same_task_pays_no_switch(self, sim):
        cpu = HostCpu(sim, context_switch_cost=0.01)

        def run():
            for _ in range(5):
                yield from cpu.run("A", 0.1)

        sim.run(sim.process(run()))
        assert cpu.switches == 0
        assert sim.now == pytest.approx(0.5)

    def test_alternating_tasks_pay_switches(self, sim):
        cpu = HostCpu(sim, context_switch_cost=0.01)

        def run():
            for i in range(6):
                yield from cpu.run("A" if i % 2 == 0 else "B", 0.1)

        sim.run(sim.process(run()))
        assert cpu.switches == 5
        assert sim.now == pytest.approx(0.6 + 0.05)

    def test_core_is_exclusive(self, sim):
        cpu = HostCpu(sim, context_switch_cost=0.0)
        finish = []

        def worker(tag):
            yield from cpu.run(tag, 1.0)
            finish.append((tag, sim.now))

        sim.process(worker("A"))
        sim.process(worker("B"))
        sim.run()
        assert [t for _, t in finish] == [1.0, 2.0]

    def test_busy_time(self, sim):
        cpu = HostCpu(sim, context_switch_cost=0.1)

        def run():
            yield from cpu.run("A", 0.4)
            yield sim.timeout(0.5)  # idle
            yield from cpu.run("B", 0.4)

        sim.run(sim.process(run()))
        assert cpu.busy_time == pytest.approx(0.9)  # 0.8 work + 0.1 switch

    def test_interleaving_processes_switch_every_slice(self, sim):
        cpu = HostCpu(sim, context_switch_cost=0.001)

        def worker(tag, slices):
            for _ in range(slices):
                yield from cpu.run(tag, 0.01)
                yield sim.timeout(0.001)  # simulated I/O wait

        procs = [sim.process(worker(f"p{i}", 10)) for i in range(4)]
        sim.run(sim.all_of(procs))
        # 4 processes interleaving on one core: nearly every slice switches.
        assert cpu.switches > 30

    def test_validation(self, sim):
        with pytest.raises(ValueError):
            HostCpu(sim, context_switch_cost=-1)
        cpu = HostCpu(sim)

        def run():
            yield from cpu.run("A", -0.1)

        with pytest.raises(ValueError):
            sim.run(sim.process(run()))
