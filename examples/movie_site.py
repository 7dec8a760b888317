#!/usr/bin/env python3
"""Movie-schedule site: broker caching under Zipf popularity.

The paper's §III example: "consider an online Web site that provides
movie schedules ... In the peak time, there would be a lot of requests
for the same movie schedule. If the results are not cached, the database
has to process the same query repeatedly."

This example builds the movie site — a schedules table queried by a
front-end application under Zipf-skewed popularity — and measures
response time and database load with the broker cache off and on.

Run:  python examples/movie_site.py
"""

from __future__ import annotations

from typing import Optional

from repro import (
    BrokerClient,
    Database,
    DatabaseAdapter,
    DatabaseServer,
    Link,
    Network,
    QoSPolicy,
    ResultCache,
    ServiceBroker,
    Simulation,
    SummaryStats,
    zipf_sampler,
)

N_MOVIES = 500
N_REQUESTS = 1_500


def build_schedule_db() -> Database:
    database = Database("schedules")
    table = database.create_table(
        "schedule",
        [("movie_id", int), ("theater", str), ("showtime", str)],
    )
    table.load(
        (movie, f"theater-{movie % 12}", f"{12 + slot * 2}:00")
        for movie in range(N_MOVIES)
        for slot in range(6)  # six showings per movie
    )
    # No index on movie_id: each schedule query scans the table, exactly
    # the repeated-work scenario caching eliminates.
    return database


def run(cache_ttl: Optional[float], seed: int = 11):
    sim = Simulation(seed=seed)
    net = Network(sim, default_link=Link.lan())
    db_node = net.node("dbhost")
    web_node = net.node("webhost")
    db_server = DatabaseServer(sim, db_node, build_schedule_db(), max_workers=4)

    cache = None
    if cache_ttl is not None:
        cache = ResultCache(capacity=128, ttl=cache_ttl, clock=lambda: sim.now)
    broker = ServiceBroker(
        sim,
        web_node,
        service="db",
        adapters=[DatabaseAdapter(sim, web_node, db_server.address, name="db0")],
        qos=QoSPolicy(levels=1, threshold=500),
        cache=cache,
        pool_size=4,
    )
    client = BrokerClient(sim, web_node, {"db": broker.address})

    sample_movie = zipf_sampler(sim.rng("popularity"), N_MOVIES, skew=1.1)
    times = SummaryStats()

    def one_request():
        movie = sample_movie()
        started = sim.now
        reply = yield from client.call(
            "db",
            "query",
            f"SELECT theater, showtime FROM schedule WHERE movie_id = {movie}",
        )
        assert reply.ok
        times.add(sim.now - started)

    def driver():
        rng = sim.rng("arrivals")
        for _ in range(N_REQUESTS):
            yield sim.timeout(rng.expovariate(50.0))  # ~50 req/s peak
            sim.process(one_request())

    sim.process(driver())
    sim.run()
    return times, broker, db_server


def main() -> None:
    print(f"Movie site: {N_REQUESTS} Zipf-popular schedule queries over "
          f"{N_MOVIES} movies\n")
    print(f"{'configuration':<18} {'mean ms':>9} {'p95 ms':>9} "
          f"{'db queries':>11} {'cache hits':>11}")
    results = {}
    for label, ttl in (("no cache", None), ("cache ttl=30s", 30.0)):
        times, broker, db_server = run(ttl)
        hits = int(broker.metrics.counter("broker.cache_replies"))
        queries = int(db_server.metrics.counter("db.queries"))
        results[label] = (times.mean, queries)
        print(f"{label:<18} {times.mean * 1000:>9.2f} {times.p95 * 1000:>9.2f} "
              f"{queries:>11d} {hits:>11d}")
    speedup = results["no cache"][0] / results["cache ttl=30s"][0]
    load_cut = results["no cache"][1] / results["cache ttl=30s"][1]
    print(f"\ncaching cut mean response time {speedup:.1f}x "
          f"and database load {load_cut:.1f}x")


if __name__ == "__main__":
    main()
