"""Unit tests for the fault-injection layer (plans, injector, severing)."""

from __future__ import annotations

import pytest

from repro.errors import ConnectionRefused, NoRouteError, SimError
from repro.net import (
    Address,
    BackendCrash,
    FaultInjector,
    FaultPlan,
    LinkDegrade,
    LinkDown,
    SlowBackend,
)


class TestFaultPlan:
    def test_empty_plan_is_falsy_and_injects_nothing(self, sim):
        plan = FaultPlan()
        assert not plan
        assert len(plan) == 0
        injector = FaultInjector(sim, plan)
        assert injector.start() == []

    def test_describe_lists_every_fault_in_order(self):
        plan = (
            FaultPlan()
            .add(BackendCrash(target="b1", at=1.0, duration=2.0))
            .add(LinkDown(a="x", b="y", at=3.0, duration=1.0))
            .add(SlowBackend(target="b1", at=5.0, duration=1.0, factor=2.0))
        )
        lines = plan.describe()
        assert len(lines) == 3
        assert "backend-crash" in lines[0]
        assert "link-down" in lines[1]
        assert "slow-backend" in lines[2]

    def test_crash_restart_cycle_is_deterministic(self, sim):
        rng_a = sim.rng("plan.a")
        rng_b = sim.rng("plan.a.copy")
        plan_a = FaultPlan.crash_restart_cycle("b1", 10.0, 2.0, 100.0, rng_a)
        # Same substream name on a fresh sim gives the same schedule.
        from repro.sim import Simulation

        other = Simulation(seed=42)
        plan_c = FaultPlan.crash_restart_cycle(
            "b1", 10.0, 2.0, 100.0, other.rng("plan.a")
        )
        assert [f.at for f in plan_a] == [f.at for f in plan_c]
        # A different substream gives a different schedule.
        plan_b = FaultPlan.crash_restart_cycle("b1", 10.0, 2.0, 100.0, rng_b)
        assert [f.at for f in plan_a] != [f.at for f in plan_b]
        # Windows never overlap: each crash starts after the last repair.
        ends = 0.0
        for fault in plan_a:
            assert fault.at >= ends
            ends = fault.at + fault.duration

    def test_cycle_rejects_nonpositive_parameters(self, sim):
        rng = sim.rng("plan")
        with pytest.raises(SimError):
            FaultPlan.crash_restart_cycle("b1", 0.0, 1.0, 10.0, rng)
        with pytest.raises(SimError):
            FaultPlan.crash_restart_cycle("b1", 1.0, -1.0, 10.0, rng)

    def test_first_at_pins_the_first_crash(self, sim):
        plan = FaultPlan.crash_restart_cycle(
            "b1", 10.0, 2.0, 100.0, sim.rng("plan"), first_at=7.5
        )
        assert plan.faults[0].at == 7.5


class TestFaultInjector:
    def test_double_start_raises(self, sim):
        injector = FaultInjector(sim, FaultPlan())
        injector.start()
        with pytest.raises(SimError):
            injector.start()

    def test_unknown_target_raises(self, sim):
        plan = FaultPlan().add(BackendCrash(target="ghost", at=0.0, duration=1.0))
        injector = FaultInjector(sim, plan, targets={})
        injector.start()
        with pytest.raises(SimError):
            sim.run()

    def test_link_fault_requires_network(self, sim):
        plan = FaultPlan().add(LinkDown(a="x", b="y", at=0.0, duration=1.0))
        injector = FaultInjector(sim, plan)
        injector.start()
        with pytest.raises(SimError):
            sim.run()

    def test_windows_and_is_down(self, sim, net):
        from repro.http.server import BackendWebServer

        server = BackendWebServer(sim, net.node("b1"), name="b1")
        plan = FaultPlan().add(BackendCrash(target="b1", at=5.0, duration=3.0))
        injector = FaultInjector(sim, plan, targets={"b1": server})
        injector.start()
        sim.run(until=20.0)
        assert injector.windows("b1") == [(5.0, 8.0)]

        def is_down(at):
            return any(start <= at < end for start, end in injector.windows("b1"))

        assert is_down(6.0)
        assert not is_down(8.0)  # [start, end) is half-open
        assert not is_down(4.9)

    def test_open_window_reported_up_to_now(self, sim, net):
        from repro.http.server import BackendWebServer

        server = BackendWebServer(sim, net.node("b1"), name="b1")
        plan = FaultPlan().add(BackendCrash(target="b1", at=5.0, duration=100.0))
        injector = FaultInjector(sim, plan, targets={"b1": server})
        injector.start()
        sim.run(until=10.0)
        assert injector.windows("b1") == [(5.0, 10.0)]

    def test_crash_refuses_connections_and_restart_recovers(self, sim, net):
        from repro.http.client import HttpClient
        from repro.http.server import BackendWebServer

        client_node = net.node("client")
        server = BackendWebServer(sim, net.node("b1"), name="b1")
        server.add_cgi("/index.html", lambda server, request: "hello")
        plan = FaultPlan().add(BackendCrash(target="b1", at=1.0, duration=2.0))
        injector = FaultInjector(sim, plan, targets={"b1": server})
        injector.start()
        outcomes = {}

        def probe(label):
            try:
                response = yield from HttpClient.get(
                    sim, client_node, server.address, "/index.html"
                )
                outcomes[label] = response.status
            except ConnectionRefused:
                outcomes[label] = "refused"

        def driver():
            yield from probe("before")
            yield sim.timeout(1.5 - sim.now)
            yield from probe("during")
            yield sim.timeout(5.0 - sim.now)
            yield from probe("after")

        sim.process(driver())
        sim.run()
        assert outcomes["before"] == 200
        assert outcomes["during"] == "refused"
        assert outcomes["after"] == 200
        assert server.metrics.counter("http.crashes") == 1
        assert server.metrics.counter("http.restarts") == 1

    def test_crash_aborts_inflight_sessions(self, sim, net):
        from repro.errors import ConnectionClosed
        from repro.http.server import BackendWebServer

        client_node = net.node("client")
        server = BackendWebServer(sim, net.node("b1"), name="b1")

        def forever_cgi(server, request):
            yield server.sim.timeout(1_000.0)
            return "never"

        server.add_cgi("/slow", forever_cgi)
        outcome = {}

        def client():
            from repro.http.messages import HttpRequest

            conn = yield from client_node.connect_stream(server.address)
            conn.send(HttpRequest(method="GET", path="/slow"))
            try:
                yield conn.recv()
                outcome["result"] = "replied"
            except ConnectionClosed:
                outcome["result"] = "aborted"

        plan = FaultPlan().add(BackendCrash(target="b1", at=1.0, duration=1.0))
        FaultInjector(sim, plan, targets={"b1": server}).start()
        sim.process(client())
        sim.run(until=10.0)
        assert outcome["result"] == "aborted"

    def test_link_down_blocks_connects_and_loses_datagrams(self, sim, net):
        a, b = net.node("a"), net.node("b")
        b.listen_stream(80)
        b.datagram_socket(90)
        plan = FaultPlan().add(LinkDown(a="a", b="b", at=0.0, duration=5.0))
        FaultInjector(sim, plan, network=net).start()
        outcomes = {}

        def driver():
            yield sim.timeout(1.0)
            try:
                yield from a.connect_stream(Address("b", 80))
                outcomes["during"] = "connected"
            except NoRouteError:
                outcomes["during"] = "no-route"
            socket = a.datagram_socket(91)
            socket.sendto("lost", Address("b", 90))
            yield sim.timeout(5.0)
            conn = yield from a.connect_stream(Address("b", 80))
            outcomes["after"] = "connected" if conn else "failed"

        sim.process(driver())
        sim.run()
        assert outcomes["during"] == "no-route"
        assert outcomes["after"] == "connected"
        assert net.metrics.counter("net.datagrams.lost") >= 1

    def test_link_degrade_adds_latency_then_clears(self, sim, net):
        plan = FaultPlan().add(
            LinkDegrade(a="a", b="b", at=0.0, duration=5.0, extra_latency=0.1)
        )
        a, b = net.node("a"), net.node("b")
        base = net.link_between("a", "b")
        FaultInjector(sim, plan, network=net).start()
        sim.run(until=1.0)
        assert net.link_between("a", "b").latency == pytest.approx(
            base.latency + 0.1
        )
        sim.run(until=6.0)
        assert net.link_between("a", "b").latency == pytest.approx(base.latency)

    def test_slow_backend_scales_service_time_and_restores(self, sim, net):
        from repro.http.server import BackendWebServer

        server = BackendWebServer(sim, net.node("b1"), name="b1")
        plan = FaultPlan().add(
            SlowBackend(target="b1", at=1.0, duration=2.0, factor=4.0)
        )
        FaultInjector(sim, plan, targets={"b1": server}).start()
        assert server.service_time_scale == 1.0
        sim.run(until=2.0)
        assert server.service_time_scale == 4.0
        sim.run(until=4.0)
        assert server.service_time_scale == 1.0
