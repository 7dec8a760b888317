"""Full-stack integration: clients → front end → brokers → backends.

Also checks the global invariants the paper's accounting relies on:
request conservation (every arrival is served, dropped, degraded,
errored, or still queued/in-flight) and end-to-end determinism.
"""

from __future__ import annotations

from repro import (
    BackendWebServer,
    BrokerClient,
    Database,
    DatabaseAdapter,
    DatabaseServer,
    FrontendWebServer,
    HttpAdapter,
    HttpClient,
    HttpRequest,
    HttpResponse,
    Link,
    Network,
    QoSPolicy,
    ReplyStatus,
    ResultCache,
    ServiceBroker,
    Simulation,
    WebApplication,
    qos_of,
)
from repro.frontend.app import QOS_HEADER


def build_shop(seed: int):
    """An online shop: catalog DB + recommendations web service, both
    brokered, behind one front end, driven by mixed-QoS clients."""
    sim = Simulation(seed=seed)
    net = Network(sim, default_link=Link.lan())
    web_node = net.node("web")

    database = Database()
    catalog = database.create_table("products", [("id", int), ("name", str)])
    for i in range(3000):
        catalog.insert((i, f"product-{i}"))
    catalog.create_index("id")
    db_server = DatabaseServer(sim, net.node("dbhost"), database, max_workers=4)

    reco = BackendWebServer(sim, net.node("reco"), max_clients=3)

    def reco_cgi(server, request):
        yield server.sim.timeout(0.05)
        return f"reco-for-{request.param('id')}"

    reco.add_cgi("/recommend", reco_cgi)

    db_broker = ServiceBroker(
        sim,
        web_node,
        service="db",
        port=7001,
        adapters=[DatabaseAdapter(sim, web_node, db_server.address)],
        qos=QoSPolicy(levels=3, threshold=15),
        cache=ResultCache(capacity=64, ttl=10, clock=lambda: sim.now),
    )
    reco_broker = ServiceBroker(
        sim,
        web_node,
        service="reco",
        port=7002,
        adapters=[HttpAdapter(sim, web_node, reco.address)],
        qos=QoSPolicy(levels=3, threshold=15),
    )
    client = BrokerClient(
        sim, web_node, {"db": db_broker.address, "reco": reco_broker.address}
    )

    def product_page(frontend_server, request):
        level = qos_of(request)
        product_id = int(request.param("id", 0))
        lookup = yield from client.call(
            "db", "query", f"SELECT name FROM products WHERE id = {product_id}",
            qos_level=level,
        )
        if lookup.status is ReplyStatus.ERROR:
            return HttpResponse.error(500, lookup.error)
        if not lookup.ok:
            return HttpResponse.text("busy")
        recommendations = yield from client.call(
            "reco", "get", ("/recommend", {"id": product_id}),
            qos_level=level, cacheable=False,
        )
        body = f"{lookup.payload.rows[0][0]}"
        if recommendations.ok and recommendations.status is ReplyStatus.OK:
            body += f" | {recommendations.payload.body}"
        return HttpResponse.text(body)

    frontend = FrontendWebServer(sim, web_node)
    frontend.register_app(WebApplication(path="/product", handler=product_page))
    return sim, net, frontend, (db_broker, reco_broker)


def drive(sim, net, frontend, n_requests: int, seed_tag: str):
    client_node = net.node("shopper")
    rng = sim.rng(f"drive.{seed_tag}")
    bodies = []

    def one(i):
        response = yield from HttpClient.fetch(
            sim,
            client_node,
            frontend.address,
            HttpRequest(
                method="GET",
                path="/product",
                params={"id": rng.randrange(100)},
                headers={QOS_HEADER: str(1 + i % 3)},
            ),
        )
        bodies.append((round(sim.now, 9), response.status, response.body))

    def driver():
        for i in range(n_requests):
            yield sim.timeout(rng.expovariate(100.0))
            sim.process(one(i))

    sim.process(driver())
    sim.run()
    return bodies


class TestFullStack:
    def test_pages_compose_both_backends(self):
        sim, net, frontend, _brokers = build_shop(seed=1)
        bodies = drive(sim, net, frontend, 30, "a")
        assert len(bodies) == 30
        full = [b for _, status, b in bodies if "|" in b]
        assert full, "at least some pages include recommendations"
        assert all(status == 200 for _, status, _ in bodies)
        assert any(b.startswith("product-") for _, _, b in bodies)

    def test_request_conservation_at_brokers(self):
        sim, net, frontend, brokers = build_shop(seed=2)
        drive(sim, net, frontend, 120, "b")
        for broker in brokers:
            m = broker.metrics
            arrivals = m.counter("broker.arrivals")
            accounted = (
                m.counter("broker.served")
                + m.counter("broker.drops")
                + m.counter("broker.cache_replies")
                + m.counter("broker.backend_errors")
            )
            assert arrivals == accounted, broker.name
            assert broker.outstanding == 0
            assert len(broker.queue) == 0

    def test_end_to_end_determinism(self):
        runs = []
        for _ in range(2):
            sim, net, frontend, _ = build_shop(seed=7)
            runs.append(drive(sim, net, frontend, 60, "c"))
        assert runs[0] == runs[1]

    def test_different_seeds_differ(self):
        sim1, net1, fe1, _ = build_shop(seed=7)
        out1 = drive(sim1, net1, fe1, 60, "c")
        sim2, net2, fe2, _ = build_shop(seed=8)
        out2 = drive(sim2, net2, fe2, 60, "c")
        assert out1 != out2
