#!/usr/bin/env python3
"""Quickstart: a database behind a service broker.

Builds the smallest complete system — one database server, one service
broker with a result cache, and a handful of web-application processes
calling through the broker — and contrasts it with the API-based
baseline the paper argues against.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    ApiBackendGateway,
    BrokerClient,
    Database,
    DatabaseAdapter,
    DatabaseServer,
    Link,
    Network,
    QoSPolicy,
    ReplyStatus,
    ResultCache,
    ServiceBroker,
    Simulation,
    SummaryStats,
    TraceCollector,
    render_attribution,
    render_waterfall,
)


def build_database() -> Database:
    """A product catalog with 10,000 rows and a hash index on the key."""
    database = Database("catalog")
    table = database.create_table(
        "products", [("id", int), ("name", str), ("price", float)]
    )
    table.load((i, f"product-{i}", float(5 + i % 95)) for i in range(10_000))
    table.create_index("id")
    return database


def main() -> None:
    sim = Simulation(seed=42)
    net = Network(sim, default_link=Link.lan())
    db_node = net.node("dbhost")
    web_node = net.node("webhost")

    db_server = DatabaseServer(sim, db_node, build_database(), max_workers=4)

    # --- The paper's model: a per-service broker with a cache ----------
    broker = ServiceBroker(
        sim,
        web_node,
        service="db",
        adapters=[DatabaseAdapter(sim, web_node, db_server.address, name="db0")],
        qos=QoSPolicy(levels=3, threshold=50),
        cache=ResultCache(capacity=256, ttl=30.0, clock=lambda: sim.now),
        pool_size=2,
    )
    client = BrokerClient(sim, web_node, {"db": broker.address})

    # Trace every broker request so we can show one waterfall at the end.
    collector = TraceCollector(sample=1).attach(sim)

    broker_times = SummaryStats()

    def app_via_broker(product_id: int):
        started = sim.now
        reply = yield from client.call(
            "db", "query", f"SELECT name, price FROM products WHERE id = {product_id}"
        )
        assert reply.status is ReplyStatus.OK
        broker_times.add(sim.now - started)

    # --- The baseline: per-request API access --------------------------
    gateway = ApiBackendGateway(sim, web_node)
    api_times = SummaryStats()

    def app_via_api(product_id: int):
        started = sim.now
        yield from gateway.db_query(
            db_server.address,
            f"SELECT name, price FROM products WHERE id = {product_id}",
        )
        api_times.add(sim.now - started)

    # 200 requests over a popular set of 20 products, both ways.
    rng = sim.rng("quickstart")

    def driver():
        for i in range(200):
            product_id = rng.randrange(20)
            yield from app_via_api(product_id)
        for i in range(200):
            product_id = rng.randrange(20)
            yield from app_via_broker(product_id)

    sim.run(sim.process(driver()))

    print("Quickstart: 200 keyed lookups over 20 hot products")
    print(f"  API baseline : mean {api_times.mean * 1000:6.2f} ms/request "
          f"({int(db_server.metrics.counter('db.connections')) - 1} connections)")
    print(f"  Service broker: mean {broker_times.mean * 1000:6.2f} ms/request "
          f"(1 pooled connection, "
          f"{int(broker.metrics.counter('broker.cache_replies'))} cache hits)")
    speedup = api_times.mean / broker_times.mean
    print(f"  Broker speedup: {speedup:.1f}x")
    assert speedup > 1.5, "broker should beat per-request API access"

    # Every request flowed through the broker's stage pipeline; each
    # stage records its latency and decisions in the metrics registry.
    print("\n  Pipeline profile (broker.stage.* metrics):")
    for name in broker.describe_pipeline():
        timing = broker.metrics.sample(f"broker.stage.{name}.time")
        if timing.count == 0:
            continue
        print(f"    {name:<12} n={timing.count:<4.0f} "
              f"mean {timing.mean * 1000:7.3f} ms")
    hits = int(broker.metrics.counter("broker.stage.cache-lookup.hit"))
    misses = int(broker.metrics.counter("broker.stage.cache-lookup.miss"))
    print(f"    cache-lookup decisions: {hits} hit / {misses} miss")

    # The obs layer turned every request into a trace of nested spans;
    # show the slowest one as a waterfall with per-hop attribution.
    slowest = collector.slowest(1)[0]
    print("\n  Slowest broker request:")
    print(render_waterfall(slowest))
    print(f"  {render_attribution(slowest)}")


if __name__ == "__main__":
    main()
