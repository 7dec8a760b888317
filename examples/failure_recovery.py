#!/usr/bin/env python3
"""Failure recovery: a broker that keeps answering through faults.

Builds two replica backend web servers behind one broker running the
fault-tolerant stage plan (deadline stamping, retries with backoff,
per-backend circuit breakers, failover, stale-cache fallback), then
replays a hand-written :class:`FaultPlan` against them: a crash of one
replica, a slow window on the other, and a degraded network link. The
paper's §III promise is that clients still get answers — full-fidelity
when a replica survives, degraded (stale cache / busy) otherwise.

Run:  python examples/failure_recovery.py
"""

from __future__ import annotations

from repro import (
    BackendCrash,
    BackendWebServer,
    BrokerClient,
    FaultInjector,
    FaultPlan,
    HttpAdapter,
    Link,
    LinkDegrade,
    Network,
    QoSPolicy,
    ReplyStatus,
    ResultCache,
    RetryPolicy,
    ServiceBroker,
    Simulation,
    SlowBackend,
    SummaryStats,
    stage_plan,
)
from repro.core import CircuitBreakerStage, RetryStage

N_CLIENTS = 6
DURATION = 60.0
SERVICE_TIME = 0.08


def main() -> None:
    sim = Simulation(seed=7)
    net = Network(sim, default_link=Link.lan())
    web_node = net.node("web")

    # Two replica backends serving the same cacheable lookup.
    backends = []
    for index in (1, 2):
        node = net.node(f"backend{index}")
        server = BackendWebServer(sim, node, max_clients=4, name=f"backend{index}")

        def item_cgi(server, request):
            # CGI handlers honour the slow-backend fault hook themselves.
            yield server.sim.timeout(SERVICE_TIME * server.service_time_scale)
            return f"item={request.param('id', '?')}"

        server.add_cgi("/item", item_cgi)
        backends.append(server)

    broker = ServiceBroker(
        sim,
        web_node,
        service="items",
        adapters=[
            HttpAdapter(sim, web_node, server.address, name=server.name)
            for server in backends
        ],
        qos=QoSPolicy(levels=1, threshold=10_000, deadlines={1: 2.0}),
        cache=ResultCache(capacity=128, ttl=1.0, clock=lambda: sim.now),
        pool_size=4,
        dispatchers=8,
        name="ft-broker",
        # The fault-tolerant base with this broker's breaker and retry
        # settings: each extra replaces the base stage of its name.
        stages=stage_plan(
            "fault-tolerant",
            CircuitBreakerStage(failure_threshold=3, reset_timeout=0.5),
            RetryStage(policy=RetryPolicy(max_attempts=3, base_delay=0.05)),
        ),
    )
    client = BrokerClient(sim, web_node, {"items": broker.address})

    # A hand-written schedule exercising three of the four fault shapes.
    plan = (
        FaultPlan()
        .add(BackendCrash(target="backend1", at=10.0, duration=8.0))
        .add(SlowBackend(target="backend2", at=25.0, duration=10.0, factor=4.0))
        .add(LinkDegrade(a="web", b="backend1", at=40.0, duration=8.0,
                         extra_latency=0.02, bandwidth_factor=0.5))
    )
    injector = FaultInjector(
        sim,
        plan,
        network=net,
        targets={server.name: server for server in backends},
        metrics=broker.metrics,
    )
    injector.start()

    print("Fault schedule:")
    for line in plan.describe():
        print(f"  {line}")

    # Closed-loop clients over a small key pool (so stale cache entries
    # exist for every key when the fallback needs them).
    from repro import ClosedLoopClient

    counts = {"ok": 0, "degraded": 0, "dropped": 0}
    latency = SummaryStats()
    key_rng = sim.rng("example.keys")
    stagger = sim.rng("example.stagger")
    for index in range(N_CLIENTS):
        workstation = net.node(f"client{index}")

        def one(_client, _iteration, _node=workstation):
            started = sim.now
            reply = yield from client.call(
                "items",
                "get",
                ("/item", {"id": key_rng.randrange(16)}),
                timeout=8.0,
            )
            latency.add(sim.now - started)
            if reply.status is ReplyStatus.OK:
                counts["ok"] += 1
            elif reply.status is ReplyStatus.DEGRADED:
                counts["degraded"] += 1
            else:
                counts["dropped"] += 1

        loop = ClosedLoopClient(
            sim, f"c{index}", one,
            think_time=0.1, start_delay=stagger.uniform(0.0, 1.0),
        )
        loop.start(until=DURATION)

    sim.run(until=DURATION + 30.0)

    answered = counts["ok"] + counts["degraded"]
    total = answered + counts["dropped"]
    counter = broker.metrics.counter
    print(f"\n{total} requests over {DURATION:g}s of faults:")
    print(f"  full fidelity : {counts['ok']}")
    print(f"  degraded      : {counts['degraded']}")
    print(f"  dropped       : {counts['dropped']}")
    print(f"  availability  : {100.0 * answered / total:.2f}%")
    print(f"  mean latency  : {latency.mean * 1000:.1f} ms")
    print("\nWhat the pipeline did about it:")
    print(f"  retry attempts     : {int(counter('broker.retry.attempts'))}")
    print(f"  retries recovered  : {int(counter('broker.retry.recovered'))}")
    print(f"  breaker trips      : {int(counter('broker.breaker.open'))}")
    print(f"  failover re-routes : {int(counter('broker.fault.failover'))}")
    print(f"  fault replies      : {int(counter('broker.fault.replies'))}")
    print("\nOutage windows recorded by the injector:")
    for key in ("backend1", "backend2", "web<->backend1"):
        for start, end in injector.windows(key):
            print(f"  {key}: [{start:.1f}s, {end:.1f}s)")


if __name__ == "__main__":
    main()
