"""Tests for the HTTP message model, backend server, and client."""

from __future__ import annotations

import pytest

from repro.http import BackendWebServer, HttpClient, HttpRequest, HttpResponse


class TestMessages:
    def test_method_validation(self):
        with pytest.raises(ValueError):
            HttpRequest(method="PUT", path="/x")

    def test_mget_requires_paths(self):
        with pytest.raises(ValueError):
            HttpRequest(method="MGET", path="")

    def test_response_helpers(self):
        ok = HttpResponse.text("body")
        assert ok.ok and ok.status == 200
        err = HttpResponse.error(404)
        assert not err.ok and err.body == "Not Found"


@pytest.fixture
def server(sim, net):
    srv = BackendWebServer(sim, net.node("backend"), max_clients=2)
    # A handler that returns its body at once: a page with no work behind it.
    srv.add_cgi("/index.html", lambda server, request: "<html>hi</html>")

    def cgi(server, request):
        yield server.sim.timeout(float(request.param("t", 0.5)))
        return f"param={request.param('x')}"

    srv.add_cgi("/cgi/work", cgi)
    return srv


class TestBackendWebServer:
    def test_static_get(self, sim, net, server):
        client_node = net.node("app")

        def run():
            response = yield from HttpClient.get(
                sim, client_node, server.address, "/index.html"
            )
            return response

        response = sim.run(sim.process(run()))
        assert response.ok
        assert response.body == "<html>hi</html>"

    def test_missing_resource_404(self, sim, net, server):
        client_node = net.node("app")

        def run():
            return (
                yield from HttpClient.get(sim, client_node, server.address, "/ghost")
            )

        assert sim.run(sim.process(run())).status == 404

    def test_cgi_receives_params(self, sim, net, server):
        client_node = net.node("app")

        def run():
            return (
                yield from HttpClient.get(
                    sim, client_node, server.address, "/cgi/work", {"x": 7, "t": 0.1}
                )
            )

        assert sim.run(sim.process(run())).body == "param=7"

    def test_max_clients_serializes_work(self, sim, net, server):
        client_node = net.node("app")
        finished = []

        def one(i):
            yield from HttpClient.get(
                sim, client_node, server.address, "/cgi/work", {"x": i, "t": 1.0}
            )
            finished.append(sim.now)

        for i in range(4):
            sim.process(one(i))
        sim.run()
        early = [t for t in finished if t < 1.5]
        late = [t for t in finished if t >= 1.5]
        assert len(early) == 2 and len(late) == 2

    def test_cgi_exception_becomes_500(self, sim, net, server):
        def broken(server, request):
            raise RuntimeError("boom")
            yield  # pragma: no cover

        server.add_cgi("/cgi/broken", broken)
        client_node = net.node("app")

        def run():
            return (
                yield from HttpClient.get(sim, client_node, server.address, "/cgi/broken")
            )

        response = sim.run(sim.process(run()))
        assert response.status == 500
        assert "boom" in response.body

    def test_keep_alive_reuses_connection(self, sim, net, server):
        client_node = net.node("app")

        def run():
            conn = yield from HttpClient.open(sim, client_node, server.address)
            first = yield from conn.get("/index.html")
            second = yield from conn.get("/index.html")
            conn.close()
            return first.ok and second.ok

        assert sim.run(sim.process(run()))
        assert net.metrics.counter("net.connections") == 1

    def test_load_inspection(self, sim, net, server):
        client_node = net.node("app")
        seen = {}

        def one(i):
            yield from HttpClient.get(
                sim, client_node, server.address, "/cgi/work", {"t": 1.0}
            )

        def probe():
            yield sim.timeout(0.5)
            seen["active"] = server.workers.in_use
            seen["queued"] = server.workers.queued

        for i in range(5):
            sim.process(one(i))
        sim.process(probe())
        sim.run()
        assert seen["active"] == 2
        assert seen["queued"] == 3
