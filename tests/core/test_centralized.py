"""Tests for the centralized model: load listener, profiles, controller."""

from __future__ import annotations

import pytest

from repro.core import (
    CentralizedController,
    HttpAdapter,
    LoadListener,
    LoadReport,
    QoSPolicy,
    ResourceProfileRegistry,
    ServiceBroker,
)
from repro.frontend.app import QOS_HEADER
from repro.http import BackendWebServer, HttpRequest


def page_request(qos: int = 1, path: str = "/page") -> HttpRequest:
    return HttpRequest(method="GET", path=path, headers={QOS_HEADER: str(qos)})


class TestLoadListener:
    def test_reports_update_table(self, sim, net):
        node = net.node("web")
        listener = LoadListener(sim, node)
        sender = net.node("brokerhost").datagram_socket()
        report = LoadReport("b1", "db", outstanding=7, queue_depth=3, threshold=20, sent_at=0.0)
        sender.sendto(report, listener.address)
        sim.run()
        assert listener.load_of("db").outstanding == 7
        assert listener.load_of("never") is None

    def test_updates_queue_behind_processing_time(self, sim, net):
        node = net.node("web")
        listener = LoadListener(sim, node, process_time=0.1)
        sender = net.node("brokerhost").datagram_socket()
        for i in range(10):
            sender.sendto(
                LoadReport("b1", "db", i, 0, 20, sent_at=sim.now), listener.address
            )
        sim.run()
        # 10 updates x 0.1s serial processing: the last applies near t=1.
        assert sim.now == pytest.approx(1.0, abs=0.05)
        assert listener.load_of("db").outstanding == 9
        assert listener.metrics.sample("listener.update_lag").maximum > 0.8

    def test_reports_feed_broker_load_samples(self, sim, net):
        node = net.node("web")
        listener = LoadListener(sim, node)
        sender = net.node("brokerhost").datagram_socket()
        for outstanding in (3, 9):
            sender.sendto(
                LoadReport("b1", "db", outstanding, 4, 20, sent_at=sim.now),
                listener.address,
            )
        sim.run()
        load = listener.metrics.sample("broker.load.b1")
        assert load.count == 2
        assert load.maximum == 9.0
        depth = listener.metrics.sample("broker.load.b1.queue_depth")
        assert depth.mean == pytest.approx(4.0)

    def test_negative_lag_clamped_and_counted(self, sim, net):
        node = net.node("web")
        listener = LoadListener(sim, node, process_time=0.0)
        sender = net.node("brokerhost").datagram_socket()
        # A report stamped ahead of the listener's clock (queued across
        # a broker restart) must not produce a negative lag sample.
        sender.sendto(
            LoadReport("b1", "db", 2, 0, 20, sent_at=sim.now + 10.0),
            listener.address,
        )
        sim.run()
        assert listener.metrics.counter("listener.clock_skew") == 1
        lag = listener.metrics.sample("listener.update_lag")
        assert lag.count == 1
        assert lag.minimum == 0.0
        # The report itself is still applied.
        assert listener.load_of("db").outstanding == 2

    def test_malformed_updates_ignored(self, sim, net):
        node = net.node("web")
        listener = LoadListener(sim, node)
        sender = net.node("x").datagram_socket()
        sender.sendto({"not": "a report"}, listener.address)
        sim.run()
        assert listener.metrics.counter("listener.malformed") == 1


class TestResourceProfiles:
    def test_register_and_lookup(self):
        profiles = ResourceProfileRegistry()
        profiles.register("/page", ["db", "mail"])
        assert profiles.services_for("/page") == ("db", "mail")
        assert profiles.services_for("/other") == ()
        assert "/page" in profiles
        assert len(profiles) == 1


class TestCentralizedController:
    @pytest.fixture
    def controller(self, sim, net):
        listener = LoadListener(sim, net.node("web"))
        profiles = ResourceProfileRegistry()
        profiles.register("/page", ["db"])
        policy = QoSPolicy(levels=3, threshold=20)
        return CentralizedController(listener, profiles, policy), listener

    def _report(self, outstanding: int) -> LoadReport:
        return LoadReport("b1", "db", outstanding, 0, 20, sent_at=0.0)

    def test_admits_when_unreported(self, controller):
        ctrl, _listener = controller
        accepted, _ = ctrl.admit(page_request(qos=3))
        assert accepted

    def test_rejects_by_class_limit(self, controller):
        ctrl, listener = controller
        listener.table["db"] = self._report(10)
        assert ctrl.admit(page_request(qos=1))[0] is True
        assert ctrl.admit(page_request(qos=3))[0] is False  # limit 20/3

    def test_unprofiled_path_always_admitted(self, controller):
        ctrl, listener = controller
        listener.table["db"] = self._report(1000)
        assert ctrl.admit(page_request(qos=3, path="/static"))[0] is True

    def test_rejection_reason_names_service(self, controller):
        ctrl, listener = controller
        listener.table["db"] = self._report(30)
        accepted, reason = ctrl.admit(page_request(qos=1))
        assert not accepted
        assert "db" in reason

    def test_disabled_state_machine_never_degrades(self, sim, net, controller):
        ctrl, listener = controller
        listener.table["db"] = self._report(30)
        sim.run(until=100.0)  # the report is now very stale
        accepted, _ = ctrl.admit(page_request(qos=1))
        # However old the report, the last known load still decides.
        assert not accepted

    def test_integration_with_broker_reports(self, sim, net):
        """Brokers stream reports; the controller reacts to real load."""
        web_node = net.node("web")
        listener = LoadListener(sim, web_node, process_time=0.0001)
        backend = BackendWebServer(sim, net.node("origin"), max_clients=1)

        def slow_cgi(server, request):
            yield server.sim.timeout(5.0)
            return "ok"

        backend.add_cgi("/slow", slow_cgi)
        broker = ServiceBroker(
            sim,
            web_node,
            service="web",
            adapters=[HttpAdapter(sim, web_node, backend.address)],
            qos=QoSPolicy(levels=3, threshold=4),
        )
        broker.report_load_to(listener.address, interval=0.05)
        profiles = ResourceProfileRegistry()
        profiles.register("/page", ["web"])
        controller = CentralizedController(
            listener, profiles, QoSPolicy(levels=3, threshold=4)
        )
        from repro.core import BrokerClient

        client = BrokerClient(sim, web_node, {"web": broker.address})

        def load_then_check():
            before = controller.admit(page_request(qos=3))
            for i in range(4):
                sim.process(client.call("web", "get", ("/slow", {"i": i}), cacheable=False))
            yield sim.timeout(0.5)  # let reports arrive
            after = controller.admit(page_request(qos=3))
            return before[0], after[0]

        before, after = sim.run(sim.process(load_then_check()))
        assert before is True
        assert after is False
