"""ABL-POOL — persistent connections ablation (paper §III multiplexing).

"For a database access, database connection and tear-down, which are
required in API model for each access, would be more expensive than
inter-process communication. In the proposed approach, DB brokers
maintain persistent connection thus saving the cost of connection
setup."

Compares per-request connections (the API baseline) against the broker's
pooled persistent connections, on a LAN and on a WAN, for keyed lookups
where connection setup dominates real work.
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
    ServiceBroker,
    Simulation,
    SummaryStats,
)
from repro.metrics import render_table

from .harness import SEED, print_artifact

N_CALLS = 300


def run_point(link: Link, mode: str):
    sim = Simulation(seed=SEED)
    net = Network(sim, default_link=link)
    database = Database()
    table = database.create_table("kv", [("k", int), ("v", str)])
    for i in range(5000):
        table.insert((i, f"v{i}"))
    table.create_index("k")
    db_server = DatabaseServer(sim, net.node("dbhost"), database, max_workers=8)
    web_node = net.node("web")
    times = SummaryStats()
    rng = sim.rng("keys")

    if mode == "api":
        gateway = ApiBackendGateway(sim, web_node)

        def one():
            key = rng.randrange(5000)
            started = sim.now
            yield from gateway.db_query(
                db_server.address, f"SELECT v FROM kv WHERE k = {key}"
            )
            times.add(sim.now - started)

    else:
        broker = ServiceBroker(
            sim,
            web_node,
            service="db",
            adapters=[DatabaseAdapter(sim, web_node, db_server.address)],
            qos=QoSPolicy(levels=1, threshold=1000),
            pool_size=2,
        )
        client = BrokerClient(sim, web_node, {"db": broker.address})

        def one():
            key = rng.randrange(5000)
            started = sim.now
            reply = yield from client.call(
                "db", "query", f"SELECT v FROM kv WHERE k = {key}", cacheable=False
            )
            assert reply.ok
            times.add(sim.now - started)

    def driver():
        for _ in range(N_CALLS):
            yield from one()

    sim.run(sim.process(driver()))
    return {
        "link": "LAN" if link.latency < 0.01 else "WAN",
        "mode": mode,
        "mean_ms": times.mean * 1000,
        "connections": int(db_server.metrics.counter("db.connections")),
    }


def run_sweep():
    rows = []
    for link in (Link.lan(), Link.wan(jitter=0.0)):
        for mode in ("api", "broker"):
            rows.append(run_point(link, mode))
    return rows


def test_ablation_connection_pooling(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_artifact(
        "Ablation — per-request connections (API) vs persistent pool (broker)",
        render_table(rows),
    )
    benchmark.extra_info["rows"] = rows

    by = {(r["link"], r["mode"]): r for r in rows}
    # The pool wins on both link types...
    assert by[("LAN", "broker")]["mean_ms"] < by[("LAN", "api")]["mean_ms"]
    assert by[("WAN", "broker")]["mean_ms"] < by[("WAN", "api")]["mean_ms"]
    # ...and the saving is dramatically larger over the WAN, where each
    # handshake costs full round trips (the loosely-coupled case).
    lan_saving = by[("LAN", "api")]["mean_ms"] - by[("LAN", "broker")]["mean_ms"]
    wan_saving = by[("WAN", "api")]["mean_ms"] - by[("WAN", "broker")]["mean_ms"]
    assert wan_saving > 10 * lan_saving
    # Connection counts tell the story directly.
    assert by[("WAN", "api")]["connections"] == N_CALLS
    assert by[("WAN", "broker")]["connections"] <= 2
