"""Backpressure: bounded-queue shedding and watermarks."""

from __future__ import annotations

import pytest

from repro.core import (
    BackpressureStage,
    BrokerClient,
    HttpAdapter,
    QoSPolicy,
    ReplyStatus,
    ServiceBroker,
    stage_plan,
)
from repro.http import BackendWebServer


@pytest.fixture
def slow_backend(sim, net):
    server = BackendWebServer(sim, net.node("origin"), max_clients=1)

    def cgi(server, request):
        yield server.sim.timeout(0.05)
        return "ok"

    server.add_cgi("/work", cgi)
    return server


def make_broker(sim, net, backend, capacity, policy, **kwargs):
    node = net.node("webhost")
    broker = ServiceBroker(
        sim,
        node,
        service="web",
        adapters=[HttpAdapter(sim, node, backend.address, name="origin")],
        qos=QoSPolicy(levels=3, threshold=10_000),
        stages=stage_plan(
            "distributed", BackpressureStage(capacity, shed_policy=policy)
        ),
        dispatchers=1,
        pool_size=1,
        **kwargs,
    )
    client = BrokerClient(sim, node, {"web": broker.address})
    return broker, client


def backpressure_stage(broker: ServiceBroker) -> BackpressureStage:
    return next(
        stage for stage in broker.pipeline.stages
        if isinstance(stage, BackpressureStage)
    )


def flood(sim, client, count, qos, statuses, spacing=0.0001):
    def one(i):
        yield sim.timeout(spacing * i)
        reply = yield from client.call(
            "web", "get", ("/work", {"i": i}), qos_level=qos, cacheable=False
        )
        statuses.append((qos, reply.status))

    for i in range(count):
        sim.process(one(i))



def shed_ratio(broker, level):
    """Fraction of level-*level* arrivals shed by backpressure."""
    arrivals = broker.metrics.counter(f"broker.arrivals.qos{level}")
    return broker.metrics.counter(f"broker.shed.qos{level}") / arrivals if arrivals else 0.0

class TestShedAccounting:
    def test_sheds_counted_apart_from_admission_drops(self, sim, net, slow_backend):
        broker, client = make_broker(sim, net, slow_backend, 2, "reject-new")
        statuses = []
        flood(sim, client, 8, qos=2, statuses=statuses)
        sim.run()
        shed = broker.metrics.counter("broker.shed")
        # Every arrival beyond the in-flight one and the 2 queued slots
        # was shed, and every shed landed in the policy + class buckets
        # — not in the admission-drop counters.
        assert shed > 0
        assert broker.metrics.counter("broker.shed.reject-new") == shed
        assert broker.metrics.counter("broker.shed.qos2") == shed
        assert broker.metrics.counter("broker.drops") == 0
        assert broker.drop_ratio(2) == 0.0
        assert shed_ratio(broker, 2) == pytest.approx(
            shed / broker.metrics.counter("broker.admitted.qos2")
        )
        # Nobody waits forever: shed arrivals got an immediate reply.
        assert len(statuses) == 8
        terminal = {s for _, s in statuses}
        assert terminal <= {ReplyStatus.OK, ReplyStatus.DROPPED, ReplyStatus.DEGRADED}
        assert broker.outstanding == 0

    def test_drop_lowest_sheds_worst_class_for_premium(self, sim, net, slow_backend):
        broker, client = make_broker(sim, net, slow_backend, 2, "drop-lowest")
        statuses = []
        # Fill the queue with class-3 work, then premium arrivals evict it.
        flood(sim, client, 4, qos=3, statuses=statuses)

        def premium(i):
            yield sim.timeout(0.001 + 0.0001 * i)
            reply = yield from client.call(
                "web", "get", ("/work", {"p": i}), qos_level=1, cacheable=False
            )
            statuses.append((1, reply.status))

        for i in range(2):
            sim.process(premium(i))
        sim.run()
        assert broker.metrics.counter("broker.shed.drop-lowest") > 0
        assert broker.metrics.counter("broker.shed.qos3") > 0
        # Premium work was never shed; every premium call completed OK.
        assert broker.metrics.counter("broker.shed.qos1") == 0
        assert all(s is ReplyStatus.OK for q, s in statuses if q == 1)
        assert shed_ratio(broker, 3) > shed_ratio(broker, 1) == 0.0
        assert len(statuses) == 6


class TestWatermarks:
    def test_engage_release_hysteresis(self, sim, net, slow_backend):
        broker, client = make_broker(sim, net, slow_backend, 4, "reject-new")
        stage = backpressure_stage(broker)
        statuses = []
        # high = int(4 * 0.75) = 3, low = min(2, high-1) = 2.
        flood(sim, client, 8, qos=2, statuses=statuses)

        def late_probe():
            # Long after the backlog drained, one more request observes
            # the low watermark and releases the throttle.
            yield sim.timeout(5.0)
            assert stage.engaged
            yield from client.call(
                "web", "get", ("/work", {"late": 1}), cacheable=False
            )

        sim.process(late_probe())
        sim.run()
        assert not stage.engaged
        assert broker.metrics.counter("broker.backpressure.engaged") == 1
        assert broker.metrics.counter("broker.backpressure.released") == 1

    def test_watermark_validation(self):
        with pytest.raises(ValueError):
            BackpressureStage(0)
