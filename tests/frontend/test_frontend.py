"""Tests for the front-end web server and the API-based baseline."""

from __future__ import annotations

from repro.db import Database, DatabaseServer
from repro.frontend import (
    ApiBackendGateway,
    FrontendWebServer,
    WebApplication,
    qos_of,
)
from repro.frontend import server as frontend_module
from repro.frontend.app import QOS_HEADER
from repro.http import BackendWebServer, HttpClient, HttpRequest, HttpResponse


class TestQosHeader:
    def test_parses_header(self):
        request = HttpRequest(method="GET", path="/", headers={QOS_HEADER: "2"})
        assert qos_of(request) == 2

    def test_default_when_missing_or_garbage(self):
        assert qos_of(HttpRequest(method="GET", path="/")) == 1
        bad = HttpRequest(method="GET", path="/", headers={QOS_HEADER: "high"})
        assert qos_of(bad) == 1


class TestFrontendWebServer:
    def test_app_dispatch(self, sim, net):
        frontend = FrontendWebServer(sim, net.node("web"))

        def hello(frontend_server, request):
            yield frontend_server.sim.timeout(0.01)
            return f"hello {request.param('name')}"

        frontend.register_app(WebApplication(path="/hello", handler=hello))
        client_node = net.node("client")

        def run():
            return (
                yield from HttpClient.get(
                    sim, client_node, frontend.address, "/hello", {"name": "bob"}
                )
            )

        response = sim.run(sim.process(run()))
        assert response.body == "hello bob"

    def test_unknown_app_404(self, sim, net):
        frontend = FrontendWebServer(sim, net.node("web"))
        client_node = net.node("client")

        def run():
            return (yield from HttpClient.get(sim, client_node, frontend.address, "/none"))

        assert sim.run(sim.process(run())).status == 404

    def test_app_exception_becomes_500(self, sim, net):
        frontend = FrontendWebServer(sim, net.node("web"))

        def broken(frontend_server, request):
            raise KeyError("oops")
            yield  # pragma: no cover

        frontend.register_app(WebApplication(path="/broken", handler=broken))
        client_node = net.node("client")

        def run():
            return (yield from HttpClient.get(sim, client_node, frontend.address, "/broken"))

        response = sim.run(sim.process(run()))
        assert response.status == 500
        assert frontend.metrics.counter("frontend.errors") == 1

    def test_admission_hook_rejects_with_503(self, sim, net):
        frontend = FrontendWebServer(
            sim,
            net.node("web"),
            admission=lambda request: (qos_of(request) == 1, "low class rejected"),
        )
        frontend.register_app(
            WebApplication(path="/p", handler=lambda s, r: HttpResponse.text("in"))
        )
        client_node = net.node("client")

        def run(qos):
            return (
                yield from HttpClient.fetch(
                    sim,
                    client_node,
                    frontend.address,
                    HttpRequest(method="GET", path="/p", headers={QOS_HEADER: str(qos)}),
                )
            )

        ok = sim.run(sim.process(run(1)))
        rejected = sim.run(sim.process(run(2)))
        assert ok.status == 200
        assert rejected.status == 503
        assert frontend.metrics.counter("frontend.rejected.qos2") == 1

    def test_process_pool_limits_concurrency(self, sim, net, monkeypatch):
        monkeypatch.setattr(frontend_module, "MAX_PROCESSES", 2)
        frontend = FrontendWebServer(sim, net.node("web"))

        def slow(frontend_server, request):
            yield frontend_server.sim.timeout(1.0)
            return "done"

        frontend.register_app(WebApplication(path="/slow", handler=slow))
        client_node = net.node("client")
        finished = []

        def one(i):
            yield from HttpClient.get(sim, client_node, frontend.address, "/slow")
            finished.append(sim.now)

        for i in range(4):
            sim.process(one(i))
        sim.run()
        assert sum(1 for t in finished if t < 1.5) == 2
        assert sum(1 for t in finished if t > 1.5) == 2

    def test_per_class_metrics_recorded(self, sim, net):
        frontend = FrontendWebServer(sim, net.node("web"))
        frontend.register_app(
            WebApplication(path="/p", handler=lambda s, r: "ok")
        )
        client_node = net.node("client")

        def run():
            for qos in (1, 2, 2):
                yield from HttpClient.fetch(
                    sim,
                    client_node,
                    frontend.address,
                    HttpRequest(method="GET", path="/p", headers={QOS_HEADER: str(qos)}),
                )

        sim.run(sim.process(run()))
        assert frontend.metrics.counter("frontend.completed.qos1") == 1
        assert frontend.metrics.counter("frontend.completed.qos2") == 2
        assert frontend.metrics.sample("frontend.response_time").count == 3


class TestApiBackendGateway:
    def test_db_query_pays_connection_each_time(self, sim, net):
        database = Database()
        table = database.create_table("t", [("k", int)])
        table.insert((1,))
        server = DatabaseServer(sim, net.node("db"), database)
        gateway = ApiBackendGateway(sim, net.node("app"))

        def run():
            for _ in range(3):
                result = yield from gateway.db_query(server.address, "SELECT COUNT(*) FROM t")
                assert result.rows[0][0] == 1

        sim.run(sim.process(run()))
        # Three isolated API calls = three database connections.
        assert server.metrics.counter("db.connections") == 3
        assert gateway.metrics.counter("api.connections") == 3

    def test_http_get(self, sim, net):
        server = BackendWebServer(sim, net.node("origin"))
        server.add_cgi("/x", lambda server, request: "body")
        gateway = ApiBackendGateway(sim, net.node("app"))

        def run():
            return (yield from gateway.http_get(server.address, "/x"))

        assert sim.run(sim.process(run())).body == "body"
